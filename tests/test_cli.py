from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import re
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

from cofreehopf import qalg
from cofreehopf.braid import BraidingTable, flip_braiding
from cofreehopf.checks import fail
from cofreehopf.cli import _pairs_up_to, _read_cartan, _render_any, main
from cofreehopf.config import ConfigDocument, emit_config, parse_config
from cofreehopf.cotensor import (CotensorElement, SmashElement, chain_lift_word, coproduct,
                                 flatten_coinvariant, from_smash, right_translate, star, to_smash)
from cofreehopf.elements import Element, render_terms
from cofreehopf.errors import ConfigError
from cofreehopf.grouphopf import GroupElement
from cofreehopf.qalg import BraidedAlgebraSpec, deconcat, quasi_shuffle
from cofreehopf.scalars import Scalar

from conftest import chain_word, letter_key, override_document

HOFFMAN = """
[group]
rank = 0

[basis]
x1 =
x2 =

[mult]
x1 x1 -> x2
"""

# g1 swaps the two letters and g2 scales them apart: the actions do not commute
NONCOMMUTING = """
[group]
rank = 2

[basis]
a = 1, 0
b = 1, 0

[action]
g1.a = 0, 1
g1.b = 1, 0
g2 = 2, 1
"""

# g1 has order 2 in the group, but acting by q its square is not the identity
TORSION_ORDER = """
[group]
torsion = 2

[basis]
a = 1
b = 0

[action]
g1 = q, 1
"""


@pytest.fixture()
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return invoke


@pytest.fixture()
def clifford_config(tmp_path, run):
    code, out, _ = run("preset", "clifford", "--n", "2")
    assert code == 0
    path = tmp_path / "clifford2.cfg"
    path.write_text(out, encoding="utf-8")
    return str(path)


@pytest.fixture()
def hoffman_config(tmp_path):
    path = tmp_path / "hoffman.cfg"
    path.write_text(HOFFMAN, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("module", ["cofreehopf", "cofreehopf.cli"])
def test_python_dash_m_runs_the_command_line(module, run):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))

    def python_m(*argv):
        return subprocess.run([sys.executable, "-m", module, *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    _, expected, _ = run("preset", "clifford", "--n", "2")
    done = python_m("preset", "clifford", "--n", "2")
    assert (done.returncode, done.stdout) == (0, expected)
    assert python_m("no-such-command").returncode == 2


@pytest.mark.parametrize("long_first, length", [(True, 1000), (False, 300)],
                         ids=["long-times-v1", "v1-times-long"])
def test_long_times_one_letter_product_stays_within_the_recursion_limit(
        clifford_config, long_first, length):
    # A word times one letter is a loop, at any length.  One letter times a
    # word costs about 3 recursion-limit units per letter: 300 letters leave
    # little room under the default limit, so a costlier clause fails here.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    word = _periodic_word(length)
    factors = [word, "v1"] if long_first else ["v1", word]
    done = subprocess.run([sys.executable, "-m", "cofreehopf", "--config", clifford_config,
                           "qsh", *factors], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert "internal" not in done.stderr


def _periodic_word(length: int) -> str:
    """CI's long word on clifford2: v1 v2 v2 v1 v2, repeated to ``length`` letters."""
    return "@".join(("v1", "v2", "v2", "v1", "v2")[k % 5] for k in range(length))


def test_the_pinned_1000_letter_outputs_are_the_star_route(clifford_config, run):
    # CI's entry-point gate pins the md5 of these two outputs
    word = _periodic_word(1000)
    spec = parse_config(Path(clifford_config).read_text(encoding="utf-8")).spec
    x, y = (SmashElement.of(spec, tuple(spec.letter(a) for a in w.split("@"))) for w in (word, "v1"))
    product = star(from_smash(x), from_smash(y))
    render = _render_any(spec)
    for command, want, digest in (
            ("qsh", flatten_coinvariant(product), "bdfdd8895a8b7127351ab64ed7356927"),
            ("smash-star", to_smash(product), "f29a03d815a1e5a103e3fa741a9c5eb6")):
        code, out, err = run("--config", clifford_config, command, word, "v1")
        assert (code, err) == (0, "")
        assert out == render(want) + "\n"
        assert hashlib.md5(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the address-space size from /proc")
def test_a_product_too_large_for_memory_exits_2_with_one_line(clifford_config):
    # The child limits its own address space to what it uses at start plus
    # 16 MB, far below the product of two 12-letter words; so it runs out in
    # a fraction of a second.
    child = """
import os, resource, sys
from cofreehopf.cli import main
with open("/proc/self/statm") as statm:
    size = int(statm.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
resource.setrlimit(resource.RLIMIT_AS,
                   (size + (16 << 20), resource.getrlimit(resource.RLIMIT_AS)[1]))
sys.exit(main(sys.argv[1:]))
"""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    u = "@".join(("v1", "v2", "v2", "v1")[k % 4] for k in range(12))
    v = "@".join(("v2", "v1", "v1")[k % 3] for k in range(12))
    done = subprocess.run([sys.executable, "-c", child, "--config", clifford_config,
                           "qsh", u, v], env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) \
        == (2, "", "error: out of memory while computing qsh\n")


def test_a_stdout_closed_by_its_reader_exits_2_with_one_line(clifford_config):
    # The product prints 125,646 bytes, more than a pipe holds: the child is
    # still writing when the reader takes a few bytes and closes the pipe.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    with subprocess.Popen([sys.executable, "-m", "cofreehopf", "--config", clifford_config,
                           "star", "v1@v2@v1@v2@v1@v2@v1", "v2@v1@v2@v1@v2@v1@v2"],
                          env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          bufsize=0) as child:
        assert child.stdout.read(16)
        child.stdout.close()
        err = child.stderr.read().decode("utf-8")
        code = child.wait(timeout=60)
    assert (code, err) == (2, "error: output closed by the reader before it was written\n")


def test_out_of_memory_names_emit_config_and_survives_a_failing_report(
        monkeypatch, capsys, clifford_config):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr("cofreehopf.cli._dispatch", exhausted)
    assert main(["--config", clifford_config, "--emit-config"]) == 2
    assert capsys.readouterr().err == "error: out of memory while computing emit-config\n"

    class FullStderr:
        def write(self, text):
            raise MemoryError

    monkeypatch.setattr(sys, "stderr", FullStderr())
    assert main(["--config", clifford_config, "qsh", "v1", "v2"]) == 2


def test_star_golden_rendering(run, clifford_config):
    code, out, _ = run("--config", clifford_config, "star", "v1", "v2")
    assert code == 0
    assert out == "v1.K{1}[]v2.K{0} − v2.K{1}[]v1.K{0} + xi12.K{0}\n"


def test_qsh_golden_rendering(run, hoffman_config):
    code, out, _ = run("--config", hoffman_config, "qsh", "x1", "x1")
    assert code == 0
    assert out == "2 x1@x1 + x2\n"


def test_checks_pass_on_presets(run, clifford_config):
    for what in ("yb", "alg", "yd", "bialg", "rb"):
        code, out, _ = run("--config", clifford_config, "check", what,
                           "--max-degree", "2")
        assert code == 0, what
        assert out == "PASS\n"


def test_a_yd_config_needs_no_second_braided_spec(run, clifford_config, monkeypatch):
    # the module algebra is its own braided algebra: no command on a config
    # without a [braiding] override builds a BraidedAlgebraSpec
    def refuse(*args, **kwargs):
        raise AssertionError("a BraidedAlgebraSpec was built")

    monkeypatch.setattr(qalg.BraidedAlgebraSpec, "__init__", refuse)
    for argv in (("qsh", "v1@v2", "v1"), ("smash-star", "v1#K{1}", "v2@xi12"),
                 ("check", "yb"), ("check", "alg"), ("check", "bialg", "--max-degree", "2")):
        code, out, err = run("--config", clifford_config, *argv)
        assert (code, err) == (0, ""), argv
        assert out.strip(), argv


def test_corrupted_braiding_fails_check_yb(run, tmp_path, clifford2):
    spec = clifford2.spec
    entries = dict(spec.braiding.entries)
    entries[(0, 1)] = entries[(0, 1)] + Element.from_word((0, 1), alphabet=spec)
    table = BraidingTable(spec.dim, entries, alphabet=spec)
    doc = override_document(spec, table)
    path = tmp_path / "corrupt.cfg"
    path.write_text(emit_config(doc), encoding="utf-8")
    code, out, _ = run("--config", str(path), "check", "yb")
    assert code == 1
    assert out.startswith("FAIL yang-baxter")
    assert "lhs" in out and "rhs" in out


def test_malformed_config_exits_2(run, tmp_path):
    path = tmp_path / "broken.cfg"
    path.write_text("[basis]\nx =\n", encoding="utf-8")
    code, out, err = run("--config", str(path), "check", "yd")
    assert code == 2
    assert "error" in err


def test_singular_action_exits_2_with_one_line(run, tmp_path):
    path = tmp_path / "singular.cfg"
    path.write_text("[group]\nrank = 1\n\n[basis]\na = 1\nb = 1\n\n[action]\ng1 = 0, 1\n",
                    encoding="utf-8")
    for argv in (("check", "yd"), ("star", "a", "b"), ("qsh", "a", "b")):
        code, out, err = run("--config", str(path), *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: action matrix of generator g1 has no Laurent inverse")
        assert err.count("\n") == 1


def test_config_notes_go_to_stderr(run, tmp_path):
    path = tmp_path / "torsion.cfg"
    path.write_text("[group]\ntorsion = 2\n\n[basis]\nu = 1\nv = 3\n\n[action]\ng1 = -1, -1\n",
                    encoding="utf-8")
    assert run("--config", str(path), "star", "u", "v") == (
        0, "u.K{1}[]v.K{0} − v.K{1}[]u.K{0}\n",
        "note: line 6: torsion exponents normalized to (1,)\n")


def test_check_pairs_come_in_a_fixed_order():
    # each u by length, then each v with |u| + |v| <= 2: the first
    # counterexample a check prints depends on this order
    spec = BraidedAlgebraSpec(2, flip_braiding(2), {})
    words = [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]
    expected = ([((), v) for v in words] + [((0,), v) for v in words[:3]]
                + [((1,), v) for v in words[:3]] + [(u, ()) for u in words[3:]])
    assert list(_pairs_up_to(spec, 2)) == expected


def test_missing_config_exits_2(run):
    code, _, err = run("star", "v1", "v2")
    assert code == 2
    assert "config" in err


def test_bad_expression_exits_2(run, clifford_config):
    code, _, err = run("--config", clifford_config, "star", "v1@@", "v2")
    assert code == 2


def test_leading_ascii_minus_starts_an_element(run, clifford_config):
    negated = "−v1.K{1}[]v2.K{0} + v2.K{1}[]v1.K{0} − xi12.K{0}\n"
    assert run("--config", clifford_config, "star", "-v1", "v2") == (0, negated, "")
    assert run("--config", clifford_config, "star", "−v1", "v2") == (0, negated, "")
    assert run("star", "-v1", "v2", "--config", clifford_config) == (0, negated, "")
    assert run("--config", clifford_config, "qsh", "-(1 + q) v1", "v2") \
        == run("--config", clifford_config, "qsh", "−(1 + q) v1", "v2") \
        == (0, "(-1 - q) v1@v2 + (1 + q) v2@v1 + (-1 - q) xi12\n", "")
    code, out, _ = run("--config", clifford_config, "star", "-h")
    assert (code, out.startswith("usage: cofreehopf star")) == (0, True)
    code, _, err = run("--config", clifford_config, "check", "yb", "--max-degree", "-1")
    assert (code, err) == (2, "error: --max-degree must be >= 0, got -1\n")


def test_leading_ascii_minus_before_a_fraction_starts_an_element(run, clifford_config):
    # argparse takes -2 for a negative number but -3/4 for an option
    for argv in (("psi", "{}3/4"), ("star", "{}3/4@v1", "v2"), ("qsh", "{}3/4", "v2"),
                 ("psi", "{}2")):
        ascii_, minus = (run("--config", clifford_config,
                             *(arg.format(sign) for arg in argv)) for sign in "-−")
        assert ascii_ == minus, argv
    assert run("--config", clifford_config, "psi", "-3/4") == (0, "−3/4 K{0}\n", "")
    # a coefficient joined to a letter by @ is the grammar's error, not a usage error
    assert run("--config", clifford_config, "star", "-3/4@v1", "v2") \
        == (2, "", "error: expected 'END', found '@' (column 5)\n")


def test_negative_max_degree_exits_2(run, clifford_config):
    # a negative cap samples nothing, so a PASS would certify nothing
    for what in ("bialg", "rb"):
        code, out, err = run("--config", clifford_config, "check", what,
                             "--max-degree", "-1")
        assert code == 2, what
        assert out == ""
        assert "--max-degree" in err


# CI's torsion.cfg: v's degree 3 is normalized to 1, with a note
TORSION_CI = "[group]\ntorsion = 2\n\n[basis]\nu = 1\nv = 3\n\n[action]\ng1 = -1, -1\n"


def _chain_letters(spec, key) -> list[str]:
    """The letter texts of a basis key, from its chain word written out."""
    if isinstance(key, GroupElement):
        return [key.render()]
    return [f"{spec.names[v]}.{g.render()}" for v, g in chain_word(spec, key)]


def _canonical(spec, key):
    """The reference order of the chain word under a key, or of a pair of them."""
    if type(key) is tuple and type(key[0]) is not str:  # a pair of keys
        return letter_key(tuple(k if isinstance(k, GroupElement) else chain_word(spec, k)
                                for k in key))
    return letter_key(key if isinstance(key, GroupElement) else chain_word(spec, key))


def test_the_smallest_case_where_packed_keys_sort_out_of_chain_order(run, clifford_config):
    # sorted as (packed word, right degree), the two terms would swap
    assert run("--config", clifford_config, "star", "v1@v1 + v1.K{0}[]v2.K{1}", "1") \
        == (0, "v1.K{0}[]v2.K{1} + v1.K{1}[]v1.K{0}\n", "")


@pytest.mark.parametrize("name", ["clifford2", "uqg_a2", "torsion"])
def test_terms_print_in_the_canonical_order_of_their_chain_words(name, run, tmp_path, request):
    text = TORSION_CI if name == "torsion" else emit_config(
        ConfigDocument(request.getfixturevalue(name).spec))
    path = tmp_path / f"{name}.cfg"
    path.write_text(text, encoding="utf-8")
    spec, config = parse_config(text).spec, str(path)
    group = spec.group
    tags = [group.element(e) for e in itertools.product((-1, 0, 1), repeat=group.n_generators)]
    r = random.Random(name)
    order = partial(_canonical, spec)
    for _ in range(30):
        x = CotensorElement.zero(spec)
        while len(x) < 2:
            for _ in range(r.randint(2, 4)):
                word = tuple(r.randrange(spec.dim) for _ in range(r.randint(0, 4)))
                key = right_translate(spec, chain_lift_word(spec, word), r.choice(tags))
                x = x + CotensorElement(spec, {key: Scalar.q_power(r.randint(-2, 2),
                                                                   r.choice((1, -1, 2)))})
        given = _render_any(spec)(x)
        code, out, _ = run("--config", config, "star", given, "1")
        assert (code, out) == (0, render_terms(
            x, lambda key: "[]".join(_chain_letters(spec, key)), order) + "\n"), given
        code, out, _ = run("--config", config, "--format", "json", "star", given, "1")
        assert [term["word"] for term in json.loads(out)["terms"]] \
            == [_chain_letters(spec, key) for key in sorted(x._terms, key=order)], given
        code, out, _ = run("--config", config, "comul", given)
        assert (code, out) == (0, render_terms(coproduct(x), lambda pair: " (x) ".join(
            "[]".join(_chain_letters(spec, key)) for key in pair), order) + "\n"), given
        code, out, _ = run("--config", config, "--format", "json", "comul", given)
        assert [(term["left"], term["right"]) for term in json.loads(out)["terms"]] \
            == [tuple("[]".join(_chain_letters(spec, key)) for key in pair)
                for pair in sorted(coproduct(x)._terms, key=order)], given


def test_json_star_output(run, clifford_config):
    code, out, _ = run("--config", clifford_config, "--format", "json",
                       "star", "v1", "v2")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "cotensor"
    assert payload["terms"][0] == {"coeff": "1", "word": ["v1.K{1}", "v2.K{0}"]}
    assert payload["terms"][1]["coeff"] == "-1"


def test_json_check_failure_payload(run, tmp_path, clifford2):
    spec = clifford2.spec
    entries = dict(spec.braiding.entries)
    entries[(0, 1)] = entries[(0, 1)] + Element.from_word((0, 1), alphabet=spec)
    doc = override_document(spec, BraidingTable(spec.dim, entries, alphabet=spec))
    path = tmp_path / "corrupt.cfg"
    path.write_text(emit_config(doc), encoding="utf-8")
    code, out, _ = run("--config", str(path), "--format", "json", "check", "yb")
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["law"] == "yang-baxter"
    assert payload["lhs"] != payload["rhs"]


def test_emit_config_round_trip(run, clifford_config):
    code, out, _ = run("--config", clifford_config, "--emit-config")
    assert code == 0
    with open(clifford_config, encoding="utf-8") as handle:
        assert out == handle.read()


def test_preset_uqg_from_cartan_file(run, tmp_path):
    cartan = tmp_path / "a2.txt"
    cartan.write_text("2 -1\n-1 2\n", encoding="utf-8")
    code, out, _ = run("preset", "uqg", "--cartan", str(cartan))
    assert code == 0
    assert "[basis]" in out and "E1 = 1, 0" in out and "xi2 = 0, 2" in out
    path = tmp_path / "a2.cfg"
    path.write_text(out, encoding="utf-8")
    code, out2, _ = run("--config", str(path), "star", "E1", "F1")
    assert code == 0
    assert "xi1" in out2


def test_cartan_rows_report_line_and_column(run, tmp_path):
    cartan = tmp_path / "a2.txt"
    cartan.write_text("# A2\n2, -1\n-1 2\n", encoding="utf-8")
    code, out, _ = run("preset", "uqg", "--cartan", str(cartan))
    assert code == 0 and "xi2 = 0, 2" in out
    cartan.write_text("2 x\n-1 2\n", encoding="utf-8")
    assert run("preset", "uqg", "--cartan", str(cartan)) == (
        2, "", "error: cannot read cartan matrix: expected 'INT', found 'x' (line 1, column 3)\n")
    cartan.write_text("# A2\n2 -1\n  -1 2x\n", encoding="utf-8")
    assert run("preset", "uqg", "--cartan", str(cartan)) == (
        2, "", "error: cannot read cartan matrix: expected 'END', found 'x' (line 3, column 7)\n")


def test_cartan_rows_of_the_wrong_length_report_their_line(run, tmp_path):
    cartan = tmp_path / "short.txt"
    cartan.write_text("# A2, one entry short\n2 -1\n\n-1\n", encoding="utf-8")
    assert run("preset", "uqg", "--cartan", str(cartan)) == (
        2, "", "error: cannot read cartan matrix: a square matrix of 2 rows needs "
               "2 entries per row, got 1 (line 4)\n")
    cartan.write_text("2 -1 0\n-1 2 -1\n", encoding="utf-8")
    code, _, err = run("preset", "uqg", "--cartan", str(cartan))
    assert code == 2 and err.endswith("got 3 (line 1)\n")
    with pytest.raises(ConfigError) as raised:
        _read_cartan(str(cartan))
    assert (raised.value.line, raised.value.column) == (1, None)
    cartan.write_text("2 -1\n-1 2x\n", encoding="utf-8")
    with pytest.raises(ConfigError) as raised:
        _read_cartan(str(cartan))
    assert (raised.value.line, raised.value.column) == (2, 5)
    assert str(raised.value) == \
        "cannot read cartan matrix: expected 'END', found 'x' (line 2, column 5)"


def test_phi_psi_and_smash_commands(run, clifford_config):
    code, out, _ = run("--config", clifford_config, "psi", "v1@v2")
    assert code == 0
    assert out == "v1.K{1}[]v2.K{0}\n"
    code, out, _ = run("--config", clifford_config, "phi", "v1.K{1}[]v2.K{0}")
    assert code == 0
    assert out == "v1@v2\n"
    code, out, _ = run("--config", clifford_config, "smash-star", "v1", "v2")
    assert code == 0
    assert out == "v1@v2#K{0} − v2@v1#K{0} + xi12#K{0}\n"
    code, out, _ = run("--config", clifford_config, "comul", "v1")
    assert code == 0
    assert out == "K{1} (x) v1.K{0} + v1.K{0} (x) K{0}\n"
    code, out, _ = run("--config", clifford_config, "rb-apply", "v1")
    assert code == 0
    assert out == "one.K{1}[]v1.K{0}\n"


def test_rank_zero_output_reads_back(run, hoffman_config):
    # a group with no generators renders as K{}; every printed term is input again
    def output(*argv):
        code, out, err = run("--config", hoffman_config, *argv)
        assert (code, err) == (0, ""), argv
        return out.rstrip("\n")

    def terms(out):
        return re.split(" [+−] ", out)

    star_out = output("star", "x1", "x1")
    assert star_out == "2 x1.K{}[]x1.K{} + x2.K{}"
    legs = [leg for term in terms(output("comul", "x1@x2")) for leg in term.split(" (x) ")]
    assert "K{}" in legs
    for term in terms(star_out) + legs:
        assert output("star", term, "K{}") == term
        output("phi", term)
    assert output("phi", star_out) == "2 x1@x1 + x2"
    for term in terms(output("smash-star", "x1", "x2")):
        word, tag = term.split("#")
        assert output("smash-star", f"{word}@{tag}", "K{}") == term


def test_empty_group_atom_over_a_generator_is_an_arity_error(run, clifford_config):
    for argv in (("star", "K{}", "v1"), ("phi", "v1.K{}"), ("smash-star", "v1@K{}", "v2")):
        code, out, err = run("--config", clifford_config, *argv)
        assert (code, out, err) == (2, "", "error: group element needs 1 exponents\n"), argv
        assert "internal" not in err


def test_cli_counterexample_matches_library_byte_for_byte(run, tmp_path, clifford2):
    from cofreehopf.braid import check_yang_baxter
    from cofreehopf.cli import _render_any
    spec = clifford2.spec
    entries = dict(spec.braiding.entries)
    entries[(0, 1)] = entries[(0, 1)] + Element.from_word((0, 1), alphabet=spec)
    table = BraidingTable(spec.dim, entries, alphabet=spec)
    doc = override_document(spec, table)
    path = tmp_path / "corrupt.cfg"
    path.write_text(emit_config(doc), encoding="utf-8")
    code, out, _ = run("--config", str(path), "check", "yb")
    assert code == 1
    expected = check_yang_baxter(table).describe(
        _render_any(spec), lambda word: "@".join(spec.names[v] for v in word))
    assert out == expected + "\n"


def test_check_alg_uses_braiding_override(run, tmp_path, clifford2):
    # invertible override (one entry rescaled) that is incompatible with
    # the multiplication: the exchange laws pick up mismatched factors
    spec = clifford2.spec
    entries = dict(spec.braiding.entries)
    entries[(0, 0)] = entries[(0, 0)].scale(2)
    doc = override_document(spec, BraidingTable(spec.dim, entries, alphabet=spec))
    path = tmp_path / "override.cfg"
    path.write_text(emit_config(doc), encoding="utf-8")
    code, out, _ = run("--config", str(path), "check", "alg")
    assert code == 1
    assert out.startswith("FAIL braided-compatibility")


def test_internal_error_exits_2_with_one_line(run, clifford_config, monkeypatch):
    import cofreehopf.cli as cli

    def broken(x, y):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "star", broken)
    code, out, err = run("--config", clifford_config, "star", "v1", "v2")
    assert code == 2
    assert out == ""
    assert err == "error: internal: RuntimeError: boom\n"


def test_large_group_exponents_exit_0(run, tmp_path):
    cartan = tmp_path / "a2.txt"
    cartan.write_text("2 -1\n-1 2\n", encoding="utf-8")
    code, out, _ = run("preset", "uqg", "--cartan", str(cartan))
    assert code == 0
    path = tmp_path / "a2.cfg"
    path.write_text(out, encoding="utf-8")
    for tag, coeff in (("K{3000,0}", "q^6000"), ("K{-3000,0}", "q^-6000")):
        assert run("--config", str(path), "smash-star", tag, "E1") \
            == (0, f"{coeff} E1#{tag}\n", "")


def test_preset_requires_arguments(run):
    code, _, err = run("preset", "clifford")
    assert code == 2
    code, _, err = run("preset", "uqg")
    assert code == 2


def test_no_command_is_an_error(run):
    code, _, err = run()
    assert code == 2


def test_unicode_digits_exit_2_without_an_internal_error(run, clifford_config, tmp_path):
    assert run("--config", clifford_config, "star", "3² v1", "v1") \
        == (2, "", "error: unexpected character '²' (column 2)\n")
    path = tmp_path / "torsion.cfg"
    path.write_text("[group]\ntorsion = 2²\n\n[basis]\nu = 1\n", encoding="utf-8")
    assert run("--config", str(path), "star", "u", "u") \
        == (2, "", "error: unexpected character '²' (line 2, column 2)\n")


def test_a_parse_error_names_the_offending_tokens_column(run, clifford_config):
    assert run("--config", clifford_config, "star", "1/0 v1", "v1") \
        == (2, "", "error: zero denominator (column 3)\n")
    assert run("--config", clifford_config, "star", "v1@q", "v1") \
        == (2, "", "error: 'q' is reserved for the scalar parameter (column 4)\n")


def test_a_missing_file_is_an_error(run, tmp_path):
    missing = tmp_path / "missing.cfg"
    assert run("--config", str(missing), "star", "v1", "v1") == (
        2, "", f"error: cannot read config: [Errno 2] No such file or directory: '{missing}'\n")
    assert run("preset", "uqg", "--cartan", str(missing)) == (
        2, "", f"error: cannot read cartan matrix: [Errno 2] No such file or directory: "
               f"'{missing}'\n")


def test_rb_apply_names_the_unit_apart_from_a_letter_named_one(run, tmp_path):
    path = tmp_path / "one.cfg"
    path.write_text("[group]\nrank = 1\n\n[basis]\none = 1\nx = 1\n\n[action]\ng1 = q, q\n",
                    encoding="utf-8")
    assert run("--config", str(path), "rb-apply", "one@x") \
        == (0, "one_.K{2}[]one.K{1}[]x.K{0}\n", "")


DEGREE_CONFIG = ("[group]\nrank = 1\n\n[basis]\na = 1\nb = 1\n\n[action]\ng1 = q, q^-1\n"
                 "\n[mult]\na b -> b\n")


def test_group_elements_in_a_counterexample_render_as_atoms(run, tmp_path):
    path = tmp_path / "degree.cfg"
    path.write_text(DEGREE_CONFIG, encoding="utf-8")
    assert run("--config", str(path), "check", "alg") \
        == (1, "FAIL mult-degree; at ('a', 'b'); lhs = K{1}; rhs = K{2}\n", "")
    code, out, _ = run("--config", str(path), "--format", "json", "check", "alg")
    assert code == 1
    assert (json.loads(out)["lhs"], json.loads(out)["rhs"]) == ("K{1}", "K{2}")


def test_product_leaving_the_chain_words_names_its_word_through_the_spec(run, tmp_path):
    # a b -> b breaks the degree, so b@a times a@b builds a word off the chain
    path = tmp_path / "degree.cfg"
    path.write_text(DEGREE_CONFIG, encoding="utf-8")
    for fmt in ("text", "json"):
        code, out, err = run("--config", str(path), "--format", fmt, "star", "b@a", "a@b")
        assert (code, out) == (2, "")
        assert "cotensor subspace" in err
        assert "GroupElement(" not in err and "internal" not in err
        assert err == ("error: product left the cotensor subspace: "
                       "chain word b.K{3}[]a.K{2}[]b.K{0} breaks at cut 2\n")


OVERRIDE_CONFIG = ("[group]\nrank = 1\n\n[basis]\na = 1\nb = 1\n\n[action]\ng1 = q, q^-1\n"
                   "\n[mult]\na b -> b\n\n[braiding]\na a -> q a@a\na b -> a@b + b@a\n"
                   "b a -> a@b\nb b -> 2 b@b\n")


def test_witness_words_render_through_the_letter_names(run, tmp_path):
    path = tmp_path / "override.cfg"
    path.write_text(OVERRIDE_CONFIG, encoding="utf-8")
    for check, law in (("yb", "yang-baxter"), ("alg", "associativity")):
        code, out, err = run("--config", str(path), "check", check)
        assert (code, err) == (1, "")
        assert out.startswith(f"FAIL {law}; at a@a@b; lhs = ")
        code, out, _ = run("--config", str(path), "--format", "json", "check", check)
        assert code == 1
        assert (json.loads(out)["law"], json.loads(out)["witness"]) == (law, "a@a@b")


def test_witness_pairs_render_as_tensor_pairs(run, clifford_config, monkeypatch):
    import cofreehopf.qalg as qalg
    import cofreehopf.rotabaxter as rotabaxter

    monkeypatch.setattr(qalg, "check_quasi_shuffle_bialgebra", lambda spec, pairs: fail(
        "quasi-shuffle-bialgebra", ((0, 1), ()), Element.zero(), Element.zero()))
    assert run("--config", clifford_config, "check", "bialg") \
        == (1, "FAIL quasi-shuffle-bialgebra; at v1@v2 (x) 1; lhs = 0; rhs = 0\n", "")
    pair = (Element.from_word((1,), 2) + Element.from_word(()), Element.from_word((0, 0)))
    monkeypatch.setattr(rotabaxter, "check_rota_baxter", lambda inst, samples: fail(
        "rota-baxter", pair, Element.zero(), Element.zero()))
    code, out, _ = run("--config", clifford_config, "--format", "json", "check", "rb")
    assert code == 1
    assert json.loads(out)["witness"] == "1 + 2 v2 (x) v1@v1"


def test_rb_counterexample_renders_the_adjoined_unit_letter(run, clifford_config, monkeypatch):
    import cofreehopf.rotabaxter as rotabaxter

    def failing(inst, samples):  # fails on the first sample holding the unit letter
        for x, y in samples:
            if any(chr(5) in word for word in x.support() + y.support()):
                return fail("rota-baxter", (x, y), inst.operator(x), inst.operator(y))

    monkeypatch.setattr(rotabaxter, "check_rota_baxter", failing)
    assert run("--config", clifford_config, "--max-degree", "1", "check", "rb") \
        == (1, "FAIL rota-baxter; at 1 (x) one; lhs = one; rhs = one@one\n", "")
    code, out, err = run("--config", clifford_config, "--max-degree", "1",
                         "--format", "json", "check", "rb")
    assert (code, err) == (1, "")
    assert json.loads(out) == {"ok": False, "law": "rota-baxter", "witness": "1 (x) one",
                               "lhs": "one", "rhs": "one@one"}


def test_bialgebra_counterexample_renders_pairs_of_words(run, clifford_config, monkeypatch):
    import cofreehopf.qalg as qalg

    def failing(spec, pairs):  # no known config makes the real check fail
        u, v = (0, 1), (1,)
        lhs = deconcat(quasi_shuffle(spec, Element.from_word(u, alphabet=spec.alphabet),
                                     Element.from_word(v, alphabet=spec.alphabet)))
        return fail("quasi-shuffle-bialgebra", (u, v), lhs, lhs.scale(0))

    monkeypatch.setattr(qalg, "check_quasi_shuffle_bialgebra", failing)
    code, out, err = run("--config", clifford_config, "check", "bialg")
    assert (code, err) == (1, "")
    assert out.startswith("FAIL quasi-shuffle-bialgebra; at ")
    assert out.endswith("; lhs = 1/2 1 (x) v1@xi22 + 1 (x) v2@v1@v2 − 1 (x) xi12@v2"
                        " + 1/2 v1 (x) xi22"
                        " + 1/2 v1@xi22 (x) 1 + v2 (x) v1@v2 + v2@v1 (x) v2 + v2@v1@v2 (x) 1"
                        " − xi12 (x) v2 − xi12@v2 (x) 1; rhs = 0\n")
    code, out, _ = run("--config", clifford_config, "--format", "json", "check", "bialg")
    assert code == 1
    assert json.loads(out)["lhs"].startswith("1/2 1 (x) v1@xi22 + ")


@pytest.mark.parametrize("config, fmt, law, witness", [
    (NONCOMMUTING, "text", "action-matrices-commute", "('g1', 'g2')"),
    (NONCOMMUTING, "json", "action-matrices-commute", "('g1', 'g2')"),
    (TORSION_ORDER, "text", "torsion-order", "'g1'"),
    (TORSION_ORDER, "json", "torsion-order", "'g1'"),
], ids=["text", "json", "torsion-text", "torsion-json"])
def test_non_commuting_actions_fail_check_yd_at_the_named_generators(run, tmp_path, config, fmt,
                                                                     law, witness):
    path = tmp_path / "yd.cfg"
    path.write_text(config, encoding="utf-8")
    code, out, err = run("--config", str(path), "--format", fmt, "check", "yd")
    assert (code, err) == (1, "")
    if fmt == "text":
        assert out == f"FAIL {law}; at {witness}\n"
    else:  # no lhs/rhs: the check evaluated no sides
        assert json.loads(out) == {"law": law, "ok": False, "witness": witness}


def test_render_any_chooses_the_text_by_type(clifford2):
    from cofreehopf.cli import _render_any
    spec = clifford2.spec
    g = spec.group.generator(0)
    word = Element.from_word((0, 1), alphabet=spec)
    cases = [
        (CotensorElement.from_word(spec, chain_lift_word(spec, (0, 1))).scale(Scalar.q_power(-1))
         + CotensorElement(spec, {g: Scalar.rational(2)}), "2 K{1} + q^-1 v1.K{1}[]v2.K{0}"),
        (SmashElement.of(spec, (0, 1), g) - SmashElement.of(spec, ()), "−1#K{0} + v1@v2#K{1}"),
        (coproduct(CotensorElement.from_word(spec, chain_lift_word(spec, (0,)))),
         "K{1} (x) v1.K{0} + v1.K{0} (x) K{0}"),
        (deconcat(word), "1 (x) v1@v2 + v1 (x) v2 + v1@v2 (x) 1"),
        (word.scale(Scalar({0: 1, 1: 1})) + Element.from_word((), 2, spec), "2 + (1 + q) v1@v2"),
        (g, "K{1}"),
        ((0, 1, 0), "v1@v2@v1"),
        ((), "1"),
        (((0,), ()), "v1 (x) 1"),
        ((word, Element.from_word((), alphabet=spec)), "v1@v2 (x) 1"),
        (("g1", "g2"), "('g1', 'g2')"),
        ("g1", "'g1'"),
        (("a", "b", "g1"), "('a', 'b', 'g1')"),
        (None, "None"),
    ]
    render = _render_any(spec)
    assert [render(value) for value, _ in cases] == [text for _, text in cases]


# g1 scales a by q and c = a a by q^3, not q^2: the product is not equivariant
NON_EQUIVARIANT = """
[group]
rank = 1

[basis]
a = 1
c = 2

[action]
g1 = q, q^3

[mult]
a a -> c
"""


def test_a_non_equivariant_product_fails_check_alg(run, tmp_path):
    path = tmp_path / "equivariance.cfg"
    path.write_text(NON_EQUIVARIANT, encoding="utf-8")
    assert run("--config", str(path), "check", "alg") == (
        1, "FAIL mult-equivariance; at ('a', 'a', 'g1'); lhs = q^3 c; rhs = q^2 c\n", "")
    code, out, err = run("--config", str(path), "--format", "json", "check", "alg")
    assert (code, err) == (1, "")
    assert json.loads(out) == {"ok": False, "law": "mult-equivariance",
                               "witness": "('a', 'a', 'g1')", "lhs": "q^3 c", "rhs": "q^2 c"}


def test_bialgebra_counterexample_of_a_faulty_braiding(run, clifford_config, monkeypatch):
    import cofreehopf.qalg as qalg

    # no known config fails the real check: the fault doubles every block braiding
    block_braiding = qalg.block_braiding
    monkeypatch.setattr(qalg, "block_braiding", lambda *args: block_braiding(*args).scale(2))
    lhs, rhs = "1/2 1 (x) xi11 + 1/2 xi11 (x) 1", "1/2 1 (x) xi11 − v1 (x) v1 + 1/2 xi11 (x) 1"
    assert run("--config", clifford_config, "check", "bialg") == (
        1, f"FAIL quasi-shuffle-bialgebra; at v1 (x) v1; lhs = {lhs}; rhs = {rhs}\n", "")
    code, out, err = run("--config", clifford_config, "--format", "json", "check", "bialg")
    assert (code, err) == (1, "")
    assert json.loads(out) == {"ok": False, "law": "quasi-shuffle-bialgebra",
                               "witness": "v1 (x) v1", "lhs": lhs, "rhs": rhs}


def test_named_group_references_bind_as_their_atoms(run, clifford_config):
    named = run("--config", clifford_config, "star", "v1.g1[]v2.e", "v1")
    assert named == run("--config", clifford_config, "star", "v1.K{1}[]v2.K{0}", "v1")
    assert named[0] == 0
    assert run("--config", clifford_config, "star", "v1.g3[]v2.e", "v1") \
        == (2, "", "error: unknown group element name 'g3'\n")

from __future__ import annotations

import json

import pytest

from cofreehopf.braid import BraidingTable
from cofreehopf.cli import main
from cofreehopf.config import document_from_spec, emit_config
from cofreehopf.elements import Element

HOFFMAN = """
[group]
rank = 0

[basis]
x1 =
x2 =

[mult]
x1 x1 -> x2
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


def test_corrupted_braiding_fails_check_yb(run, tmp_path, clifford2):
    spec = clifford2.spec
    entries = dict(spec.induced_braiding().entries)
    entries[(0, 1)] = entries[(0, 1)] + Element.from_word((0, 1), alphabet=spec)
    table = BraidingTable(spec.dim, entries, alphabet=spec)
    doc = document_from_spec(spec, braiding=table)
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


def test_missing_config_exits_2(run):
    code, _, err = run("star", "v1", "v2")
    assert code == 2
    assert "config" in err


def test_bad_expression_exits_2(run, clifford_config):
    code, _, err = run("--config", clifford_config, "star", "v1@@", "v2")
    assert code == 2


def test_negative_max_degree_exits_2(run, clifford_config):
    # a negative cap samples nothing, so a PASS would certify nothing
    for what in ("bialg", "rb"):
        code, out, err = run("--config", clifford_config, "check", what,
                             "--max-degree", "-1")
        assert code == 2, what
        assert out == ""
        assert "--max-degree" in err


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
    entries = dict(spec.induced_braiding().entries)
    entries[(0, 1)] = entries[(0, 1)] + Element.from_word((0, 1), alphabet=spec)
    doc = document_from_spec(
        spec, braiding=BraidingTable(spec.dim, entries, alphabet=spec))
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


def test_cli_counterexample_matches_library_byte_for_byte(run, tmp_path, clifford2):
    from cofreehopf.braid import check_yang_baxter
    from cofreehopf.cli import _render_any
    spec = clifford2.spec
    entries = dict(spec.induced_braiding().entries)
    entries[(0, 1)] = entries[(0, 1)] + Element.from_word((0, 1), alphabet=spec)
    table = BraidingTable(spec.dim, entries, alphabet=spec)
    doc = document_from_spec(spec, braiding=table)
    path = tmp_path / "corrupt.cfg"
    path.write_text(emit_config(doc), encoding="utf-8")
    code, out, _ = run("--config", str(path), "check", "yb")
    assert code == 1
    expected = check_yang_baxter(table).describe(_render_any(spec))
    assert out == expected + "\n"


def test_check_alg_uses_braiding_override(run, tmp_path, clifford2):
    # invertible override (one entry rescaled) that is incompatible with
    # the multiplication: the exchange laws pick up mismatched factors
    spec = clifford2.spec
    entries = dict(spec.induced_braiding().entries)
    entries[(0, 0)] = entries[(0, 0)].scale(2)
    doc = document_from_spec(spec, braiding=BraidingTable(
        spec.dim, entries, alphabet=spec))
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


def test_preset_requires_arguments(run):
    code, _, err = run("preset", "clifford")
    assert code == 2
    code, _, err = run("preset", "uqg")
    assert code == 2


def test_no_command_is_an_error(run):
    code, _, err = run()
    assert code == 2

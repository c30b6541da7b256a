"""Acceptance suite: every criterion is exact (Laurent coefficients, no
tolerances) and prints one pass/fail line.  Run with ``pytest -v -s``."""

from __future__ import annotations

import itertools
import random
import time

from cofreehopf.braid import BraidingTable, check_yang_baxter
from cofreehopf.cli import main as cli_main
from cofreehopf.config import emit_config
from cofreehopf.cotensor import (
    CotensorElement,
    SmashElement,
    chain_lift,
    chain_lift_word,
    check_chain_condition,
    coinvariant_projection,
    coinvariant_projection_direct,
    flatten_coinvariant,
    from_smash,
    right_translate,
    smash_product,
    star,
    to_smash,
)
from cofreehopf.elements import Element
from cofreehopf.grouphopf import AbelianGroup, YDSpec, braided_spec, diagonal_images
from cofreehopf.qalg import (
    check_quasi_shuffle_bialgebra,
    quasi_shuffle,
)
from cofreehopf.rotabaxter import (
    check_double_product_isomorphism,
    check_rota_baxter,
    qsh_rb_instance,
    smash_rb_instance,
)
from cofreehopf.scalars import Scalar

from conftest import (
    CARTAN_A2,
    Permutation,
    all_reduced_words,
    braid_lift_word,
    check_clifford_relations,
    check_uqg_relations,
    override_document,
)


def _report(number: int, description: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} {status} - {description}{extra}")
    assert ok, f"criterion {number} failed: {description}"


def _cotensor_keys(spec, max_degree, tags):
    keys = list(tags)
    for length in range(1, max_degree + 1):
        for word in itertools.product(range(spec.dim), repeat=length):
            for tag in tags:
                keys.append(right_translate(spec, chain_lift_word(spec, word), tag))
    return keys


def _size(key) -> int:
    return len(key[0]) if type(key) is tuple else len(key)


def test_criterion_01_clifford_relations(clifford3):
    start = time.monotonic()
    result = check_clifford_relations(clifford3, 3)
    elapsed = time.monotonic() - start
    ok = bool(result) and elapsed < 5.0
    _report(1, "Clifford anticommutator relations, n=3, both product routes",
            ok, f" ({elapsed:.2f}s)")


def test_criterion_02_quantum_group_relation(uqg_a2):
    start = time.monotonic()
    result = check_uqg_relations(uqg_a2, CARTAN_A2)
    elapsed = time.monotonic() - start
    ok = bool(result) and elapsed < 5.0
    _report(2, "quantum-group commutator relations for the A2 matrix",
            ok, f" ({elapsed:.2f}s)")


def test_criterion_03_cross_path_equality(clifford2, uqg_a2):
    checked = 0
    ok = True
    for preset in (clifford2, uqg_a2):
        spec = preset.spec
        tags = [spec.group.identity(), spec.group.generator(0)]
        keys = _cotensor_keys(spec, 2, tags)
        # a chain word counts its letters and a group element, a pair
        # (free, torsion), counts 2: the sample this criterion has always had
        eligible = [
            (kx, ky)
            for kx, ky in itertools.product(keys, repeat=2)
            if _size(kx) + _size(ky) <= 3
        ]
        step = max(1, len(eligible) // 75)
        for kx, ky in eligible[::step]:
            x = CotensorElement(spec, {kx: Scalar.one()})
            y = CotensorElement(spec, {ky: Scalar.one()})
            if to_smash(star(x, y)) != smash_product(to_smash(x), to_smash(y)):
                ok = False
            checked += 1
    ok = ok and checked >= 100
    _report(3, "multiplying then splitting equals splitting then "
               "smash-multiplying", ok, f" ({checked} pairs)")


def test_criterion_04_yang_baxter_suite(clifford2, uqg_a2):
    ok = check_yang_baxter(clifford2.spec.braiding) \
        and check_yang_baxter(uqg_a2.spec.braiding)
    rnd = random.Random(20250809)
    for _ in range(20):
        dim = rnd.randint(1, 4)
        group = AbelianGroup(rank=dim)
        degrees = tuple(group.element([rnd.randint(-2, 2) for _ in range(dim)])
                        for _ in range(dim))
        action = tuple(
            diagonal_images([Scalar.q_power(rnd.randint(-2, 2))
                             for _ in range(dim)])
            for _ in range(dim))
        spec = YDSpec(group, tuple(f"a{i}" for i in range(dim)), degrees, action)
        ok = ok and bool(check_yang_baxter(spec.braiding))
    # negative control: an identity-term corruption must be rejected
    spec = clifford2.spec
    entries = dict(spec.braiding.entries)
    entries[(0, 1)] = entries[(0, 1)] + Element.from_word((0, 1), alphabet=spec)
    corrupted = check_yang_baxter(BraidingTable(spec.dim, entries, alphabet=spec))
    print("  negative control:", corrupted.describe())
    ok = ok and not corrupted and corrupted.witness is not None
    _report(4, "Yang-Baxter for presets and 20 random diagonal data, "
               "corrupted table rejected", ok)


def test_criterion_05_braid_lift_well_defined(uqg_a2):
    table = uqg_a2.spec.braiding
    rnd = random.Random(42)
    words = rnd.sample(list(itertools.product(range(table.dim), repeat=4)), 20)
    ok = True
    for images in itertools.permutations(range(1, 5)):
        w = Permutation(images)
        reduced = all_reduced_words(w)
        for word in words:
            x = Element.from_word(word, alphabet=table.alphabet)
            outcomes = {
                tuple(sorted(braid_lift_word(table, rw, x)._terms.items()))
                for rw in reduced
            }
            if len(outcomes) != 1:
                ok = False
    _report(5, "all reduced words give one braid lift on sampled degree-4 words",
            ok)


def test_criterion_06_quasi_shuffle_axioms(clifford2, uqg_a2, hoffman4):
    specs = [braided_spec(clifford2.spec), braided_spec(uqg_a2.spec), hoffman4]
    ok = True
    for spec in specs:
        cache: dict[tuple, Element] = {}

        def product(u, v, spec=spec, cache=cache):
            key = (u, v)
            if key not in cache:
                cache[key] = quasi_shuffle(
                    spec, Element.from_word(u, alphabet=spec.alphabet),
                    Element.from_word(v, alphabet=spec.alphabet))
            return cache[key]

        letters = range(spec.dim)
        for du, dv, dw in ((1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2)):
            for u in itertools.product(letters, repeat=du):
                for v in itertools.product(letters, repeat=dv):
                    left = product(u, v)
                    for w in itertools.product(letters, repeat=dw):
                        lhs = quasi_shuffle(
                            spec, left, Element.from_word(w, alphabet=spec.alphabet))
                        rhs = quasi_shuffle(
                            spec, Element.from_word(u, alphabet=spec.alphabet),
                            product(v, w))
                        if lhs != rhs:
                            ok = False
        pairs = [(u, v)
                 for du, dv in ((1, 1), (1, 2), (2, 1))
                 for u in itertools.product(letters, repeat=du)
                 for v in itertools.product(letters, repeat=dv)]
        if not check_quasi_shuffle_bialgebra(spec, pairs):
            ok = False
    spec = hoffman4
    base = quasi_shuffle(spec, Element.from_word((0,), alphabet=spec.alphabet),
                         Element.from_word((0,), alphabet=spec.alphabet))
    expected = Element.from_word((0, 0), 2, spec.alphabet) \
        + Element.from_word((1,), alphabet=spec.alphabet)
    ok = ok and base == expected
    _report(6, "quasi-shuffle associativity (degree <= 4), coproduct "
               "compatibility (degree <= 3), and the additive base case", ok)


def test_criterion_07_coinvariant_isomorphisms(clifford2, uqg_a2):
    ok = True
    for preset in (clifford2, uqg_a2):
        spec = preset.spec
        for length in range(4):
            for word in itertools.product(range(spec.dim), repeat=length):
                x = Element.from_word(word, alphabet=spec)
                lifted = chain_lift(spec, x)
                if not check_chain_condition(spec, lifted):
                    ok = False
                if flatten_coinvariant(lifted) != x:
                    ok = False
                if chain_lift(spec, flatten_coinvariant(lifted)) != lifted:
                    ok = False
        tags = [spec.group.identity(), spec.group.generator(0)]
        keys = _cotensor_keys(spec, 2, tags)
        # every seventh pair: the key counts (62, 86) are prime to 7, so
        # the sample runs through every left and every right key
        for kx, ky in itertools.islice(itertools.product(keys, repeat=2), 0, None, 7):
            out = star(CotensorElement(spec, {kx: Scalar.one()}),
                       CotensorElement(spec, {ky: Scalar.one()}))
            if not check_chain_condition(spec, out):
                ok = False
    _report(7, "coinvariant flattening and chain lift are mutually inverse; "
               "all lifted and multiplied words satisfy the chain condition", ok)


def test_criterion_08_rota_baxter_suite(clifford2):
    unital = braided_spec(clifford2.spec).with_unit()
    words = [()] + [ (a,) for a in range(unital.dim)] \
        + list(itertools.product(range(unital.dim), repeat=2))
    pairs = [(Element.from_word(u, alphabet=unital.alphabet),
              Element.from_word(v, alphabet=unital.alphabet))
             for u in words for v in words]
    ok = bool(check_rota_baxter(qsh_rb_instance(unital), pairs))

    yd_unital = clifford2.spec.with_unit()
    tags = [yd_unital.group.identity(), yd_unital.group.element([1])]
    smash_words = [()] + [(a,) for a in range(yd_unital.dim)] \
        + list(itertools.product(range(yd_unital.dim), repeat=2))
    smash_basis = [SmashElement.of(yd_unital, w, t) for w in smash_words for t in tags]
    smash_pairs = ((a, b) for a in smash_basis for b in smash_basis)
    ok = ok and bool(check_rota_baxter(smash_rb_instance(yd_unital), smash_pairs))

    heads = [w for w in words if w]
    head_pairs = [(Element.from_word(u, alphabet=unital.alphabet),
                   Element.from_word(v, alphabet=unital.alphabet))
                  for u in heads for v in heads]
    ok = ok and bool(check_double_product_isomorphism(unital, head_pairs))

    inst = qsh_rb_instance(unital)
    for factor in (Scalar.rational(-1), Scalar.q_power(1)):
        ok = ok and bool(check_rota_baxter(inst.scaled(factor), pairs))
    _report(8, "weight-1 identity on both product routes, the double-product "
               "transport, and the scaled weights -1 and q", ok)


def test_criterion_09_projection_and_round_trip(clifford2, uqg_a2):
    ok = True
    count = 0
    for preset in (clifford2, uqg_a2):
        spec = preset.spec
        tags = [spec.group.identity(), spec.group.generator(0)]
        for key in _cotensor_keys(spec, 2, tags):
            x = CotensorElement(spec, {key: Scalar.q_power(1)})
            projected = coinvariant_projection(x)
            if projected != coinvariant_projection_direct(x):
                ok = False
            if coinvariant_projection(projected) != projected:
                ok = False
        for length in range(3):
            for word in itertools.product(range(spec.dim), repeat=length):
                for tag in tags:
                    s = SmashElement.of(spec, word, tag)
                    if to_smash(from_smash(s)) != s:
                        ok = False
                    count += 1
    ok = ok and count >= 100
    _report(9, "projection agrees with its closed form and is idempotent; "
               "smash round-trip is the identity", ok, f" ({count} samples)")


def test_criterion_10_cli_golden_and_exit_codes(tmp_path, capsys):
    code = cli_main(["preset", "clifford", "--n", "2"])
    config_text = capsys.readouterr().out
    ok = code == 0
    config = tmp_path / "clifford2.cfg"
    config.write_text(config_text, encoding="utf-8")

    code = cli_main(["--config", str(config), "star", "v1", "v2"])
    out = capsys.readouterr().out
    ok = ok and code == 0
    ok = ok and out == "v1.K{1}[]v2.K{0} − v2.K{1}[]v1.K{0} + xi12.K{0}\n"

    hoffman = tmp_path / "hoffman.cfg"
    hoffman.write_text(
        "[group]\nrank = 0\n\n[basis]\nx1 =\nx2 =\n\n[mult]\nx1 x1 -> x2\n",
        encoding="utf-8")
    code = cli_main(["--config", str(hoffman), "qsh", "x1", "x1"])
    out = capsys.readouterr().out
    ok = ok and code == 0 and out == "2 x1@x1 + x2\n"

    # exit code 1: corrupted braiding override fails the Yang-Baxter check
    from cofreehopf.presets import build_clifford
    spec = build_clifford(2).spec
    entries = dict(spec.braiding.entries)
    entries[(0, 1)] = entries[(0, 1)] + Element.from_word((0, 1), alphabet=spec)
    doc = override_document(spec, BraidingTable(spec.dim, entries, alphabet=spec))
    corrupted = tmp_path / "corrupted.cfg"
    corrupted.write_text(emit_config(doc), encoding="utf-8")
    code = cli_main(["--config", str(corrupted), "check", "yb"])
    out = capsys.readouterr().out
    ok = ok and code == 1 and out.startswith("FAIL yang-baxter")

    # exit code 2: malformed config
    broken = tmp_path / "broken.cfg"
    broken.write_text("[basis]\nv1 = 1\n", encoding="utf-8")
    code = cli_main(["--config", str(broken), "check", "yb"])
    capsys.readouterr()
    ok = ok and code == 2
    _report(10, "CLI golden renderings and exit codes 0/1/2", ok)

"""The whole-space axiom checkers against per-word reference loops.

``check_yang_baxter`` and ``check_braided_algebra`` evaluate each law once
on a sum of basis words of V^3, each tagged by its index.  The loops below
push each word through the laws on its own, in the same order; both must
report the same PASS, or the same law, witness, lhs and rhs.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from functools import partial

import pytest

from cofreehopf import checks
from cofreehopf.braid import BraidingTable, check_yang_baxter
from cofreehopf.checks import PASS, fail
from cofreehopf.config import parse_config
from cofreehopf.elements import Element, apply_local, render_element
from cofreehopf.errors import StructuralError
from cofreehopf.grouphopf import YDSpec, braided_spec
from cofreehopf.qalg import check_braided_algebra
from cofreehopf.scalars import Scalar

from conftest import diagonal_braiding, given_spec
from test_characterisation import NON_YANG_BAXTER


def reference_yang_baxter(table):
    for word in table.basis_words(3):
        x = Element.from_word(word, alphabet=table.alphabet)
        lhs = table.apply(table.apply(table.apply(x, 1), 2), 1)
        rhs = table.apply(table.apply(table.apply(x, 2), 1), 2)
        if lhs != rhs:
            return fail("yang-baxter", word, lhs, rhs)
    return PASS


def reference_braided_algebra(spec):
    m = spec.mult
    sig = spec.braiding.entries
    for word in spec.braiding.basis_words(3):
        x = Element.from_word(word, alphabet=spec.alphabet)
        left = apply_local(m, 1, apply_local(m, 1, x))
        right = apply_local(m, 1, apply_local(m, 2, x))
        if left != right:
            return fail("associativity", word, left, right)
        lhs = apply_local(m, 2, apply_local(sig, 1, apply_local(sig, 2, x)))
        rhs = apply_local(sig, 1, apply_local(m, 1, x))
        if lhs != rhs:
            return fail("braided-compatibility-left", word, lhs, rhs)
        lhs = apply_local(m, 1, apply_local(sig, 2, apply_local(sig, 1, x)))
        rhs = apply_local(sig, 1, apply_local(m, 2, x))
        if lhs != rhs:
            return fail("braided-compatibility-right", word, lhs, rhs)
    if spec.unit is not None:
        u = spec.unit
        word_of = partial(Element.from_word, alphabet=spec.alphabet)
        for a in range(spec.dim):
            letter = word_of((a,))
            if apply_local(m, 1, word_of((u, a))) != letter:
                return fail("left-unit", (u, a))
            if apply_local(m, 1, word_of((a, u))) != letter:
                return fail("right-unit", (a, u))
            if apply_local(sig, 1, word_of((a, u))) != word_of((u, a)):
                return fail("unit-braiding", (a, u))
            if apply_local(sig, 1, word_of((u, a))) != word_of((a, u)):
                return fail("unit-braiding", (u, a))
    return PASS


def assert_same(result, reference):
    assert result == reference
    assert result.describe() == reference.describe()
    if not reference:
        assert result.lhs.alphabet is reference.lhs.alphabet
        assert result.rhs.alphabet is reference.rhs.alphabet


def _random_scalar(rnd):
    return Scalar({rnd.randint(-2, 2): rnd.choice([-2, -1, 1, 2, 3])})


def _random_spec(seed: int) -> YDSpec:
    """A diagonal braiding, which satisfies Yang-Baxter, with one entry given
    extra terms half the time, and a sparse random multiplication: most
    pairs multiply to zero, some to one letter, some to two."""
    rnd = random.Random(seed)
    dim = rnd.choice([2, 3])
    exponents = [[rnd.randint(-2, 2) for _ in range(dim)] for _ in range(dim)]
    entries = dict(diagonal_braiding(dim, exponents).entries)
    if rnd.random() < 0.5:
        pair = (rnd.randrange(dim), rnd.randrange(dim))
        for _ in range(rnd.randint(1, 2)):
            word = (rnd.randrange(dim), rnd.randrange(dim))
            entries[pair] = entries[pair] + Element.from_word(word, _random_scalar(rnd))
    mult = {}
    for pair in itertools.product(range(dim), repeat=2):
        if rnd.random() < 0.3:
            letters = rnd.sample(range(dim), rnd.randint(1, 2))
            mult[pair] = sum((Element.from_word((a,), _random_scalar(rnd)) for a in letters),
                             Element.zero())
    try:
        braiding = BraidingTable(dim, entries)
    except StructuralError:  # the extra terms made the table singular
        braiding = diagonal_braiding(dim, exponents)
    return given_spec(braiding, mult)


def test_the_non_yang_baxter_override_fails_alike():
    doc = parse_config(NON_YANG_BAXTER)
    reference = reference_yang_baxter(doc.braided().braiding)
    assert not reference
    assert_same(check_yang_baxter(doc.braided().braiding), reference)
    assert_same(check_braided_algebra(doc.override), reference_braided_algebra(doc.override))


def test_a_degree_breaking_mult_fails_alike():
    doc = parse_config("[group]\nrank = 1\n\n[basis]\na = 1\nb = 1\n\n[action]\n"
                       "g1 = q, q^-1\n\n[mult]\na b -> b\n")
    spec = braided_spec(doc.spec)
    reference = reference_braided_algebra(spec)
    assert not reference
    assert_same(check_braided_algebra(spec), reference)
    assert_same(check_yang_baxter(spec.braiding), reference_yang_baxter(spec.braiding))


def test_the_corrupted_clifford_braiding_fails_alike(clifford2):
    spec = clifford2.spec
    entries = dict(spec.braiding.entries)
    entries[(0, 1)] = entries[(0, 1)] + Element.from_word((0, 1), alphabet=spec)
    table = BraidingTable(spec.dim, entries, alphabet=spec)
    reference = reference_yang_baxter(table)
    assert not reference
    assert_same(check_yang_baxter(table), reference)


def test_the_presets_pass_alike(clifford2, uqg_a2):
    for spec in (braided_spec(clifford2.spec), braided_spec(uqg_a2.spec),
                 braided_spec(clifford2.spec).with_unit()):
        assert_same(check_yang_baxter(spec.braiding), PASS)
        assert_same(check_braided_algebra(spec), PASS)
        assert reference_braided_algebra(spec)


@pytest.mark.parametrize("batch", [checks._BATCH, 5])
@pytest.mark.parametrize("seed", range(24))
def test_random_tables_fail_or_pass_alike(seed, batch, monkeypatch):
    monkeypatch.setattr(checks, "_BATCH", batch)  # 5: a failure past the first batch
    spec = _random_spec(seed)
    assert_same(check_yang_baxter(spec.braiding), reference_yang_baxter(spec.braiding))
    assert_same(check_braided_algebra(spec), reference_braided_algebra(spec))


def test_random_tables_reach_every_law():
    laws = {check_braided_algebra(_random_spec(seed)).law for seed in range(24)}
    assert laws >= {"", "associativity", "braided-compatibility-left",
                    "braided-compatibility-right"}
    assert {check_yang_baxter(_random_spec(seed).braiding).ok for seed in range(24)} \
        == {True, False}


# CI's override.cfg and override3.cfg: a rank-1 override with a product, and a
# dense rank-0 override on three letters
CI_OVERRIDES = (
    "[group]\nrank = 1\n\n[basis]\na = 1\nb = 1\n\n[action]\ng1 = q, q^-1\n\n[mult]\n"
    "a b -> b\n\n[braiding]\na a -> q a@a\na b -> a@b + b@a\nb a -> a@b\nb b -> 2 b@b\n",
    "[group]\nrank = 0\n\n[basis]\na = \nb = \nc = \n\n[braiding]\n"
    "a a -> 3 a@b + q a@c + q^2 c@c\na b -> q^-1 b@c + 3 c@b + q^2 c@c\n"
    "a c -> 3 a@a + q^2 a@b + 3 c@b\nb a -> 1/2 a@a + q^-1 a@c + q^2 c@b\n"
    "b b -> 1/2 a@a + q a@b + q b@c\nb c -> q^-1 a@a + 3 b@a + 1/2 c@c\n"
    "c a -> 3 a@a + 3 b@a + (1 + q) c@a\nc b -> q^2 a@b + 1/2 b@a + q^-1 b@c\n"
    "c c -> (1 + q) a@a + q^2 b@b + 3 c@b\n",
)


def _unital_text(spec, names: bool) -> str:
    """The unit letter, the names when asked, then every braiding entry and
    every product of ``spec``, one line each, letters written x<index>."""
    lines = [f"unit {spec.unit}", *([f"names {spec.names}"] if names else [])]
    for kind, table in (("s", spec.braiding.entries), ("m", spec.mult)):
        lines += [f"{kind} {a} {b} -> " + render_element(value, lambda letter: f"x{ord(letter)}")
                  for (a, b), value in sorted(table.items())]
    return "\n".join(lines)


def test_with_unit_extends_a_given_table_by_the_unit_flips():
    # The texts were frozen from the unit extension the package had before
    # YDSpec.with_unit extended a given table: its unit, names, braiding
    # entries and product table.  The random tables were unnamed then.
    first, second = (_unital_text(parse_config(text).braided().with_unit(), True)
                     for text in CI_OVERRIDES)
    assert first == "\n".join([
        "unit 2", "names ('a', 'b', 'one')",
        "s 0 0 -> q x0@x0", "s 0 1 -> x0@x1 + x1@x0", "s 0 2 -> x2@x0", "s 1 0 -> x0@x1",
        "s 1 1 -> 2 x1@x1", "s 1 2 -> x2@x1", "s 2 0 -> x0@x2", "s 2 1 -> x1@x2",
        "s 2 2 -> x2@x2",
        "m 0 0 -> 0", "m 0 1 -> x1", "m 0 2 -> x0", "m 1 0 -> 0", "m 1 1 -> 0",
        "m 1 2 -> x1", "m 2 0 -> x0", "m 2 1 -> x1", "m 2 2 -> x2"])
    assert hashlib.md5(second.encode()).hexdigest() == "f03ae0904104b0c4d671d842d87f25fb"
    random_texts = "\n\n".join(_unital_text(_random_spec(seed).with_unit(), False)
                               for seed in range(24))
    assert hashlib.md5(random_texts.encode()).hexdigest() == "798e4c2f49a833cfd522192cb9f8295e"

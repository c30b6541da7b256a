"""The whole-space axiom checkers against per-word reference loops.

``check_yang_baxter`` and ``check_braided_algebra`` evaluate each law once
on a sum of basis words of V^3, each tagged by its index.  The loops below
push each word through the laws on its own, in the same order; both must
report the same PASS, or the same law, witness, lhs and rhs.
"""

from __future__ import annotations

import itertools
import random
from functools import partial

import pytest

from cofreehopf import checks
from cofreehopf.braid import BraidingTable, check_yang_baxter
from cofreehopf.checks import PASS, fail
from cofreehopf.config import parse_config
from cofreehopf.elements import Element, apply_local
from cofreehopf.errors import StructuralError
from cofreehopf.grouphopf import braided_spec
from cofreehopf.qalg import BraidedAlgebraSpec, adjoin_unit, check_braided_algebra
from cofreehopf.scalars import Scalar

from conftest import diagonal_braiding
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


def _random_spec(seed: int) -> BraidedAlgebraSpec:
    """A diagonal braiding, which satisfies Yang-Baxter, with one entry given
    extra terms half the time, and a sparse random multiplication: most
    pairs multiply to zero, some to one letter, some to two."""
    rnd = random.Random(seed)
    dim = rnd.choice([2, 3])
    alphabet = ("random", seed)
    exponents = [[rnd.randint(-2, 2) for _ in range(dim)] for _ in range(dim)]
    entries = dict(diagonal_braiding(dim, exponents, alphabet).entries)
    if rnd.random() < 0.5:
        pair = (rnd.randrange(dim), rnd.randrange(dim))
        for _ in range(rnd.randint(1, 2)):
            word = (rnd.randrange(dim), rnd.randrange(dim))
            entries[pair] = entries[pair] + Element.from_word(word, _random_scalar(rnd), alphabet)
    mult = {}
    for pair in itertools.product(range(dim), repeat=2):
        if rnd.random() < 0.3:
            letters = rnd.sample(range(dim), rnd.randint(1, 2))
            mult[pair] = sum((Element.from_word((a,), _random_scalar(rnd), alphabet)
                              for a in letters), Element.zero(alphabet))
    try:
        braiding = BraidingTable(dim, entries, alphabet)
    except StructuralError:  # the extra terms made the table singular
        braiding = diagonal_braiding(dim, exponents, alphabet)
    return BraidedAlgebraSpec(dim, braiding, mult, alphabet=alphabet)


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
                 adjoin_unit(braided_spec(clifford2.spec))):
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


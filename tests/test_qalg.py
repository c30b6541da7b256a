from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from cofreehopf.braid import BraidingTable, block_braiding, diagonal_braiding, flip_braiding
from cofreehopf.config import parse_config
from cofreehopf.elements import Element
from cofreehopf.errors import StructuralError
from cofreehopf.grouphopf import braided_spec
from cofreehopf.qalg import (
    BraidedAlgebraSpec,
    adjoin_unit,
    check_braided_algebra,
    check_quasi_shuffle_bialgebra,
    crossing,
    deconcat,
    deconcat_reduced,
    extend_letter_morphism,
    filtration_degree,
    _pack,
    _unpack,
    quasi_shuffle,
    quasi_shuffle_general_clause,
)
from cofreehopf.scalars import Scalar

from conftest import hoffman_spec


def _word(spec, *letters, coeff=1):
    return Element.from_word(tuple(letters), coeff, spec.alphabet)


# -- braided algebra checker ---------------------------------------------------


def test_flip_with_commutative_mult_passes(hoffman4):
    assert check_braided_algebra(hoffman4)


def test_clifford_and_uqg_specs_pass(clifford2, uqg_a2):
    assert check_braided_algebra(braided_spec(clifford2.spec))
    assert check_braided_algebra(braided_spec(uqg_a2.spec))


def test_corrupted_braiding_entry_is_caught():
    alphabet = object()
    mult = {(0, 0): Element.from_word((1,), alphabet=alphabet)}
    entries = dict(flip_braiding(2, alphabet).entries)
    entries[(1, 0)] = Element.from_word((0, 1), 2, alphabet)
    from cofreehopf.braid import BraidingTable
    spec = BraidedAlgebraSpec(2, BraidingTable(2, entries, alphabet), mult,
                              alphabet=alphabet)
    result = check_braided_algebra(spec)
    assert not result
    assert result.law.startswith("braided-compatibility")


def test_nonassociative_mult_is_caught():
    alphabet = object()
    # x0 * x0 = x1 and x0 * x1 = x0 break associativity on (x0, x0, x0)
    mult = {
        (0, 0): Element.from_word((1,), alphabet=alphabet),
        (0, 1): Element.from_word((0,), alphabet=alphabet),
    }
    spec = BraidedAlgebraSpec(2, flip_braiding(2, alphabet), mult, alphabet=alphabet)
    result = check_braided_algebra(spec)
    assert not result
    assert result.law == "associativity"


# -- adjoin_unit -----------------------------------------------------------------


def test_adjoin_unit_smallest_instance():
    alphabet = object()
    spec = BraidedAlgebraSpec(1, flip_braiding(1, alphabet), {}, alphabet=alphabet)
    unital = adjoin_unit(spec)
    assert unital.dim == 2
    assert unital.unit == 1
    assert check_braided_algebra(unital)
    with pytest.raises(StructuralError):
        adjoin_unit(unital)


def test_adjoin_unit_clifford_passes_checker(clifford2):
    unital = adjoin_unit(braided_spec(clifford2.spec))
    assert check_braided_algebra(unital)
    # the braiding flips the new unit across every letter
    u = unital.unit
    assert unital.braiding.entries[(u, 0)] == Element.from_word(
        (0, u), alphabet=unital.alphabet)
    assert unital.braiding.entries[(0, u)] == Element.from_word(
        (u, 0), alphabet=unital.alphabet)


# -- quasi-shuffle product --------------------------------------------------------


def test_hoffman_base_case(hoffman4):
    x1 = _word(hoffman4, 0)
    out = quasi_shuffle(hoffman4, x1, x1)
    assert out == _word(hoffman4, 0, 0, coeff=2) + _word(hoffman4, 1)


def test_clifford_base_case(clifford2):
    spec = braided_spec(clifford2.spec)
    out = quasi_shuffle(spec, _word(spec, 0), _word(spec, 1))
    expected = _word(spec, 0, 1) + _word(spec, 1, 0, coeff=-1) + _word(spec, 3)
    assert out == expected


def test_uqg_base_case(uqg_a1):
    spec = braided_spec(uqg_a1.spec)
    e, f, xi = 0, 1, 2
    out = quasi_shuffle(spec, _word(spec, e), _word(spec, f))
    expected = _word(spec, e, f) \
        + _word(spec, f, e, coeff=Scalar.q_power(-2)) + _word(spec, xi)
    assert out == expected


def test_scalars_multiply_through():
    spec = hoffman_spec(3)
    lam = Element.from_word((), Scalar.q_power(2), spec.alphabet)
    x = _word(spec, 0, 1)
    assert quasi_shuffle(spec, lam, x) == x.scale(Scalar.q_power(2))
    assert quasi_shuffle(spec, x, lam) == x.scale(Scalar.q_power(2))
    one = Element.unit(spec.alphabet)
    assert quasi_shuffle(spec, one, x) == x
    assert quasi_shuffle(spec, x, one) == x


def _shuffles(u, v):
    if not u:
        yield v
        return
    if not v:
        yield u
        return
    for rest in _shuffles(u[1:], v):
        yield (u[0],) + rest
    for rest in _shuffles(u, v[1:]):
        yield (v[0],) + rest


def test_zero_mult_flip_degenerates_to_shuffle_counts():
    # Independent oracle: plain interleaving enumeration with multiplicity.
    alphabet = object()
    spec = BraidedAlgebraSpec(2, flip_braiding(2, alphabet), {}, alphabet=alphabet)
    for total_u in (1, 2, 3):
        for total_v in (1, 2, 3):
            for u in itertools.product(range(2), repeat=total_u):
                for v in itertools.product(range(2), repeat=total_v):
                    counts: dict[tuple, int] = {}
                    for w in _shuffles(u, v):
                        counts[w] = counts.get(w, 0) + 1
                    expected = Element(
                        {w: Scalar.rational(c) for w, c in counts.items()}, alphabet)
                    got = quasi_shuffle(spec, Element.from_word(u, alphabet=alphabet),
                                        Element.from_word(v, alphabet=alphabet))
                    assert got == expected


def _gaussian_binomial(n: int, k: int, t: Scalar) -> Scalar:
    """[n choose k]_t by the q-Pascal rule [n, k] = [n-1, k-1] + t^k [n-1, k]."""
    if k == 0 or k == n:
        return Scalar.one()
    t_k = Scalar.one()
    for _ in range(k):
        t_k = t_k * t
    return _gaussian_binomial(n - 1, k - 1, t) + t_k * _gaussian_binomial(n - 1, k, t)


def test_powers_of_one_letter_multiply_by_gaussian_binomials():
    # Rosso's quantum shuffle (Invent. Math. 133, 1998): with zero
    # multiplication and sigma(a, a) = t a@a, a^n times a^m is
    # [n+m choose n]_t a^(n+m).
    for c in (-2, -1, 0, 1, 3):
        spec = BraidedAlgebraSpec(1, diagonal_braiding(1, [[c]]), {})
        for n in range(6):
            for m in range(6):
                x, y = _word(spec, *(0,) * n), _word(spec, *(0,) * m)
                expected = _word(spec, *(0,) * (n + m),
                                 coeff=_gaussian_binomial(n + m, n, Scalar.q_power(c)))
                assert quasi_shuffle(spec, x, y) == expected
                assert quasi_shuffle_general_clause(spec, x, y) == expected


def test_one_sided_clauses_match_general_clause(clifford2, uqg_a2, hoffman4):
    specs = [braided_spec(clifford2.spec), braided_spec(uqg_a2.spec), hoffman4]
    for spec in specs:
        words = [(0,), (1,), (0, 1), (1, 0), (0, 1, 0)]
        pairs = list(itertools.product(words, words))
        for n in (2, 7, 40):
            long = tuple((3 * k + 1) % spec.dim for k in range(n))
            for letter in ((0,), (spec.dim - 1,)):
                pairs += [(long, letter), (letter, long)]
        for u, v in pairs:
            x = Element.from_word(u, alphabet=spec.alphabet)
            y = Element.from_word(v, alphabet=spec.alphabet)
            assert quasi_shuffle(spec, x, y) \
                == quasi_shuffle_general_clause(spec, x, y)


# Invertible, non-monomial and not Yang-Baxter: the crossing is compared
# with the block sweep where the order of the braidings matters.
NON_MONOMIAL_OVERRIDE = """
[group]
rank = 1

[basis]
a = 1
b = 1

[action]
g1 = q, q^-1

[braiding]
a a -> q a@a
a b -> a@b + b@a
b a -> a@b
b b -> 2 b@b
"""


def test_crossing_matches_the_block_sweep(clifford2, uqg_a2):
    override = parse_config(NON_MONOMIAL_OVERRIDE).braided()
    fresh = hoffman_spec(4)
    assert "crossing" not in override._cache and "crossing" not in fresh._cache
    for spec in (braided_spec(clifford2.spec), braided_spec(uqg_a2.spec), fresh, override):
        # longest words first, so that a miss extends a cold memo over several suffixes
        for length in range(4, -1, -1):
            for u in itertools.product(range(spec.dim), repeat=length):
                for b in range(spec.dim):
                    swept = block_braiding(spec.braiding, len(u), 1,
                                           Element.from_word(u + (b,), alphabet=spec.alphabet))
                    assert crossing(spec, u, b) == swept
        assert spec._cache["crossing"][((1, 0, 1), 0)] is crossing(spec, (1, 0, 1), 0)


def test_a_word_packs_into_one_code_point_per_letter_and_back():
    for letter in (0, 255, 256, 0xD800, 65535, 65536, 0x10FFFF):
        for word in ((letter,), (letter, 0, letter), (1, letter, 300), ()):
            packed = _pack(word)
            assert len(packed) == len(word)
            assert _unpack(packed) == word


def test_words_over_more_than_256_letters_match_the_general_clause():
    # Letters from 256 up widen a packed word past one byte a letter.
    # Checking a total table over 258 letters takes longer than this test
    # may, and the clause reads only the pairs of letters the words use, so
    # the table holds just those.
    dim, used = 258, (0, 255, 256, 257)
    alphabet = ("wide", dim)
    braiding = BraidingTable.__new__(BraidingTable)
    braiding.dim, braiding.alphabet = dim, alphabet
    braiding.entries = {(a, b): Element.from_word((b, a), Scalar.q_power((a > b) - (a < b)), alphabet)
                        for a in used for b in used}
    mult = {(256, 257): Element.from_word((0,), 2, alphabet),
            (0, 256): Element.from_word((257,), alphabet=alphabet),
            (257, 255): Element.from_word((256,), Scalar.q_power(1), alphabet)}
    spec = BraidedAlgebraSpec(dim, braiding, mult, alphabet=alphabet)
    x = Element.from_word((256, 0, 257, 255, 256), alphabet=alphabet)
    y = Element.from_word((257, 256, 0), 3, alphabet) \
        + Element.from_word((255, 257), alphabet=alphabet)
    product = quasi_shuffle(spec, x, y)
    assert product == quasi_shuffle_general_clause(spec, x, y)
    assert {len(word) for word in product.support()} == {5, 6, 7, 8}
    assert {letter for word in product.support() for letter in word} == set(used)


def test_associativity_samples(clifford2, hoffman4):
    for spec in (braided_spec(clifford2.spec), hoffman4):
        words = [(0,), (1,), (0, 1)]
        for u, v, w in itertools.product(words, repeat=3):
            x, y, z = (Element.from_word(t, alphabet=spec.alphabet)
                       for t in (u, v, w))
            assert quasi_shuffle(spec, quasi_shuffle(spec, x, y), z) \
                == quasi_shuffle(spec, x, quasi_shuffle(spec, y, z))


def test_grading_conservation(uqg_a2):
    # words in a product of G-graded letters keep the total group degree
    spec = uqg_a2.spec
    bspec = braided_spec(spec)

    def word_degree(word):
        out = spec.group.identity()
        for letter in word:
            out = spec.group.multiply(out, spec.degrees[letter])
        return out

    for u in [(0, 2), (1,), (3, 0)]:
        for v in [(1,), (2, 4)]:
            total = spec.group.multiply(word_degree(u), word_degree(v))
            out = quasi_shuffle(bspec, Element.from_word(u, alphabet=spec),
                                Element.from_word(v, alphabet=spec))
            for word in out.support():
                assert word_degree(word) == total


def _compositions(n: int):
    """The compositions of n as tuples of block lengths; () for n = 0."""
    if n == 0:
        yield ()
    for k in range(n):
        for cuts in itertools.combinations(range(1, n), k):
            bounds = (0, *cuts, n)
            yield tuple(end - start for start, end in zip(bounds, bounds[1:]))


def _hoffman_exp(spec: BraidedAlgebraSpec, word: tuple) -> Element:
    """exp(w) = sum over compositions I of |w| of I[w] / I!, where I[w]
    multiplies the letters of each block of w together (Hoffman, 2000)."""
    out = Element.zero(spec.alphabet)
    for blocks in _compositions(len(word)):
        term, start = Element.from_word((), alphabet=spec.alphabet), 0
        for size in blocks:
            merged = Element.from_word(word[start:start + 1], alphabet=spec.alphabet)
            for b in word[start + 1:start + size]:
                merged = merged.map_words(lambda w, b=b: spec.mult_entry(w[0], b))
            term, start = term.tensor(merged), start + size
        weight = Fraction(1, math.prod(map(math.factorial, blocks)))
        out = out + term.scale(Scalar.rational(weight))
    return out


def test_hoffman_exponential_takes_the_shuffle_to_the_quasi_shuffle(hoffman4):
    """exp(u sh v) = exp(u) * exp(v): sh is the quasi-shuffle under the flip
    braiding with zero multiplication, * the quasi-shuffle of hoffman4."""
    shuffle = _zero_mult_spec(4, hoffman4.alphabet)
    words = [w for n in range(5) for w in itertools.product(range(4), repeat=n)]
    exp = {w: _hoffman_exp(hoffman4, w) for w in words}
    pairs = [(u, v) for u in words for v in words if len(u) + len(v) <= 4]
    for u, v in pairs:
        shuffled = quasi_shuffle(shuffle, _word(shuffle, *u), _word(shuffle, *v))
        lhs = shuffled.map_words(exp.__getitem__)
        assert lhs == quasi_shuffle(hoffman4, exp[u], exp[v]), (u, v)
    assert len(pairs) == 1593
    half, sixth = Fraction(1, 2), Fraction(1, 6)
    assert exp[(0, 0, 1)] == _word(hoffman4, 0, 0, 1) + _word(hoffman4, 1, 1, coeff=half) \
        + _word(hoffman4, 0, 2, coeff=half) + _word(hoffman4, 3, coeff=sixth)


def test_bialgebra_compatibility_small(clifford2, hoffman4):
    for spec in (braided_spec(clifford2.spec), hoffman4):
        pairs = [(u, v) for u in [(0,), (1,), (0, 1)] for v in [(0,), (1,)]]
        assert check_quasi_shuffle_bialgebra(spec, pairs)


def test_bialgebra_check_over_no_samples_is_an_error(hoffman4):
    with pytest.raises(StructuralError, match="no samples"):
        check_quasi_shuffle_bialgebra(hoffman4, [])


# -- deconcatenation and the filtration --------------------------------------------


def test_deconcat_examples():
    x = Element.from_word((0,))
    assert deconcat(x) == Element({((), (0,)): 1, ((0,), ()): 1}, deconcat(x).alphabet)
    assert deconcat_reduced(x).is_zero()
    y = Element.from_word((0, 1))
    assert deconcat_reduced(y) == Element({((0,), (1,)): 1}, deconcat_reduced(y).alphabet)
    empty = Element.unit()
    assert deconcat_reduced(empty) == Element(
        {((), ()): Fraction(-1)}, deconcat_reduced(empty).alphabet)


def test_double_reduced_deconcat_of_three_letters():
    # iterate the reduced coproduct on the left factor: only the full cut survives
    y = Element.from_word((0, 1, 2))
    once = deconcat_reduced(y)
    split: dict[tuple, Scalar] = {}
    for (u, v), c in once._terms.items():
        if len(u) < 2:
            continue
        for k in range(1, len(u)):
            key = (u[:k], u[k:], v)
            split[key] = split.get(key, Scalar.zero()) + c
    assert split == {((0,), (1,), (2,)): Scalar.one()}


def test_filtration_degree_examples():
    assert filtration_degree(Element.from_word((), 5)) == 0
    assert filtration_degree(Element.zero()) == 0
    assert filtration_degree(Element.from_word((0,))) == 1
    x = Element.from_word((0, 1)) + Element.from_word((2,))
    assert filtration_degree(x) == 2
    y = Element.from_word((), 3) + Element.from_word((0,))
    assert filtration_degree(y) == 1


def test_filtration_degree_equals_max_length_up_to_5():
    for length in range(6):
        word = tuple(i % 2 for i in range(length))
        assert filtration_degree(Element.from_word(word)) == length
    mixed = Element.from_word((), 2) + Element.from_word((0,)) \
        + Element.from_word((1, 0, 1, 0, 0), 3)
    assert filtration_degree(mixed) == 5


@lru_cache(maxsize=None)
def _in_filtration_step(word: tuple, r: int) -> bool:
    """The reduced-coproduct definition of the connectedness filtration: the
    empty word lies in every step, a nonempty one in step r >= 1 when both
    legs of every term of its reduced coproduct lie in step r - 1."""
    if not word:
        return True
    if r <= 0:
        return False
    return all(_in_filtration_step(u, r - 1) and _in_filtration_step(v, r - 1)
               for u, v in deconcat_reduced(Element.from_word(word))._terms)


def test_filtration_degree_matches_the_reduced_coproduct_definition():
    words = [word for length in range(7) for word in itertools.product(range(2), repeat=length)]
    for word in words:
        expected = next(r for r in itertools.count() if _in_filtration_step(word, r))
        assert filtration_degree(Element.from_word(word, 2)) == expected
    for u, v in itertools.combinations(words[::9], 2):
        x = Element.from_word(u) + Element.from_word(v, 3)
        assert filtration_degree(x) == max(filtration_degree(Element.from_word(u)),
                                           filtration_degree(Element.from_word(v)))
    _in_filtration_step.cache_clear()


# -- degree-one extension -----------------------------------------------------------


def _zero_mult_spec(dim, alphabet=None):
    alphabet = alphabet or object()
    return BraidedAlgebraSpec(dim, flip_braiding(dim, alphabet), {}, alphabet=alphabet)


def test_extension_of_identity_map_is_identity():
    spec = _zero_mult_spec(2)
    f = {0: Element.from_word((0,), alphabet=spec.alphabet),
         1: Element.from_word((1,), alphabet=spec.alphabet)}
    for length in range(5):
        for word in itertools.product(range(2), repeat=length):
            x = Element.from_word(word, alphabet=spec.alphabet)
            assert extend_letter_morphism(spec, spec, f, x) == x


def test_extension_of_zero_map_is_counit():
    spec = _zero_mult_spec(2)
    x = Element.from_word((), 7) + Element.from_word((0, 1))
    out = extend_letter_morphism(spec, spec, {}, x)
    assert out == Element.from_word((), 7, spec.alphabet)


def test_extension_relabels_letters():
    b = _zero_mult_spec(1)
    a = _zero_mult_spec(2)
    f = {0: Element.from_word((1,), alphabet=a.alphabet)}
    x = Element.from_word((0, 0), alphabet=b.alphabet)
    assert extend_letter_morphism(b, a, f, x) \
        == Element.from_word((1, 1), alphabet=a.alphabet)


def test_extension_of_a_group_action_is_the_diagonal_action_and_multiplicative(clifford2, uqg_a2):
    # universal property of the quasi-shuffle algebra (Jian-Rosso, J. reine
    # angew. Math. 667, 2012): a generator acting on the letters intertwines
    # the braiding and the multiplication, so its extension is an algebra map,
    # and on words it must be the diagonal action
    for preset in (clifford2, uqg_a2):
        spec = preset.spec
        bspec = braided_spec(spec)
        g = spec.group.generator(0)
        f = {a: spec.act_letter(g, a) for a in range(spec.dim)}

        def ext(x):
            return extend_letter_morphism(bspec, bspec, f, x)

        words = [w for n in range(3) for w in itertools.product(range(spec.dim), repeat=n)]
        for word in words:
            assert ext(_word(bspec, *word)) == spec.act_word(g, word)
        sample = {w: _word(bspec, *w) for w in random.Random(16).sample(words, 20)}
        image = {w: ext(x) for w, x in sample.items()}
        for u, v in itertools.product(sample, sample):
            assert ext(quasi_shuffle(bspec, sample[u], sample[v])) \
                == quasi_shuffle(bspec, image[u], image[v])


def test_extension_checks_braiding_compatibility():
    b = BraidedAlgebraSpec(1, diagonal_braiding(1, [[1]], "B"), {}, alphabet="B")
    a = _zero_mult_spec(1, "A")
    f = {0: Element.from_word((0,), alphabet="A")}
    with pytest.raises(StructuralError):
        extend_letter_morphism(b, a, f, Element.from_word((0,), alphabet="B"))


def test_extension_checks_multiplicativity():
    alphabet = object()
    mult = {(0, 0): Element.from_word((1,), alphabet=alphabet)}
    b = BraidedAlgebraSpec(2, flip_braiding(2, alphabet), mult, alphabet=alphabet)
    a = _zero_mult_spec(2, "A2")
    f = {0: Element.from_word((0,), alphabet="A2"),
         1: Element.from_word((1,), alphabet="A2")}
    with pytest.raises(StructuralError):
        extend_letter_morphism(b, a, f, Element.from_word((0,), alphabet=alphabet))


def test_extension_rejects_nonzero_unit_image():
    spec = _zero_mult_spec(1)
    unital = adjoin_unit(spec)
    f = {unital.unit: Element.from_word((0,), alphabet=unital.alphabet)}
    with pytest.raises(StructuralError):
        extend_letter_morphism(unital, unital, f,
                               Element.from_word((0,), alphabet=unital.alphabet))

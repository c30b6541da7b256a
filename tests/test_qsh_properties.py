"""Property test: the quasi-shuffle against the cotensor star route.

On right coinvariants the cotensor product is the quasi-shuffle product:
``star`` of two chain lifts flattens back to the quasi-shuffle of the
plain words.  The star route (the prefix table of ``cotensor``) reads the
action and the multiplication letter by letter and shares no code with
``block_braiding`` or the quasi-shuffle clauses, so it checks both the
one-sided dispatch and the general-clause oracle independently.  The
presets include ``hoffman4``, the flip braiding with a commutative
product, written as YD data over the trivial group.

On the same data, ``star`` is checked against the smash route on
multi-term elements with group tags, and for associativity.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from cofreehopf.braid import flip_braiding
from cofreehopf.cotensor import (
    CotensorElement,
    chain_lift,
    chain_lift_word,
    flatten_coinvariant,
    from_smash,
    right_translate,
    smash_product,
    star,
    to_smash,
)
from cofreehopf.elements import Element
from cofreehopf.grouphopf import AbelianGroup, YDSpec, braided_spec, diagonal_matrix
from cofreehopf.presets import build_clifford, build_uqg
from cofreehopf.qalg import quasi_shuffle, quasi_shuffle_general_clause
from cofreehopf.scalars import Scalar

BOUNDED = settings(max_examples=60, derandomize=True, deadline=None, database=None)


def _hoffman4() -> YDSpec:
    """Hoffman's algebra as YD data over the trivial group: identity
    degrees, no action matrices, x_a x_b = x_{a+b} truncated above x4."""
    group = AbelianGroup(0)
    mult = {(i, j): Element.from_word((i + j + 1,))
            for i in range(4) for j in range(4) if i + j + 1 < 4}
    return YDSpec(group, ("x1", "x2", "x3", "x4"), (group.identity(),) * 4, (), mult)


HOFFMAN4 = _hoffman4()
PRESETS = (build_clifford(2).spec, build_uqg([[2, -1], [-1, 2]]).spec, HOFFMAN4)


@st.composite
def diagonal_yd_specs(draw):
    """Z or Z^2, random degrees, q-power diagonal actions, zero multiplication."""
    rank = draw(st.integers(1, 2))
    dim = draw(st.integers(1, 3))
    group = AbelianGroup(rank)
    exponents = st.integers(-2, 2)
    degrees = tuple(group.element([draw(exponents) for _ in range(rank)])
                    for _ in range(dim))
    action = tuple(diagonal_matrix([Scalar.q_power(draw(exponents)) for _ in range(dim)])
                   for _ in range(rank))
    names = tuple(f"v{k}" for k in range(dim))
    return YDSpec(group, names, degrees, action, mult={})


@st.composite
def element_pairs(draw, spec, max_length):
    """Two combinations of at most two words each, small integer coefficients."""
    def element():
        words = draw(st.lists(
            st.lists(st.integers(0, spec.dim - 1), max_size=max_length).map(tuple),
            min_size=1, max_size=2))
        coeffs = st.integers(-2, 2).filter(bool)
        out = Element.zero(spec)
        for word in words:
            out = out + Element.from_word(word, draw(coeffs), spec)
        return out
    return element(), element()


def _assert_three_routes_agree(spec, x, y):
    bspec = braided_spec(spec)
    product = quasi_shuffle(bspec, x, y)
    assert product == quasi_shuffle_general_clause(bspec, x, y)
    assert product == flatten_coinvariant(star(chain_lift(spec, x), chain_lift(spec, y)))


@BOUNDED
@given(st.data())
def test_quasi_shuffle_matches_star_route_on_random_diagonal_data(data):
    spec = data.draw(diagonal_yd_specs())
    x, y = data.draw(element_pairs(spec, 5))
    _assert_three_routes_agree(spec, x, y)


@BOUNDED
@given(st.data())
def test_quasi_shuffle_matches_star_route_on_preset_words(data):
    spec = data.draw(st.sampled_from(PRESETS))
    x, y = data.draw(element_pairs(spec, 4))
    _assert_three_routes_agree(spec, x, y)


def test_hoffman4_yd_data_is_the_flip_braided_hoffman_algebra(hoffman4):
    bspec = braided_spec(HOFFMAN4)
    flip = flip_braiding(4)
    assert {pair: entry._terms for pair, entry in bspec.braiding.entries.items()} \
        == {pair: entry._terms for pair, entry in flip.entries.items()}
    for u, v in (((0,), (0,)), ((0, 1), (2,)), ((1, 0), (0, 3))):
        x, y = (Element.from_word(w, alphabet=bspec.alphabet) for w in (u, v))
        hx, hy = (Element.from_word(w, alphabet=hoffman4.alphabet) for w in (u, v))
        assert quasi_shuffle(bspec, x, y)._terms == quasi_shuffle(hoffman4, hx, hy)._terms


@st.composite
def tagged_elements(draw, spec, lengths):
    """One term per word length: the chain lift right-translated by a random
    group tag (a group element for the empty word), q-power coefficients."""
    terms = {}
    for length in lengths:
        word = tuple(draw(st.lists(st.integers(0, spec.dim - 1),
                                   min_size=length, max_size=length)))
        tag = spec.group.element([draw(st.integers(-1, 1))
                                  for _ in range(spec.group.n_generators)])
        key = right_translate(spec, chain_lift_word(spec, word), tag)
        coeff = Scalar.q_power(draw(st.integers(-2, 2)), draw(st.sampled_from((1, -1, 2))))
        terms[key] = terms.get(key, Scalar.zero()) + coeff
    return CotensorElement(spec, terms)


def _assert_star_matches_smash_route(data, spec):
    x, y = (data.draw(tagged_elements(spec, data.draw(st.lists(
        st.integers(0, 3), min_size=1, max_size=3)))) for _ in range(2))
    assert star(x, y) == from_smash(smash_product(to_smash(x), to_smash(y)))


def _assert_star_is_associative(data, spec):
    first = data.draw(st.integers(0, 4))
    second = data.draw(st.integers(0, 4 - first))
    third = data.draw(st.integers(0, 4 - first - second))
    x, y, z = (data.draw(tagged_elements(spec, [n])) for n in (first, second, third))
    assert star(star(x, y), z) == star(x, star(y, z))


@BOUNDED
@given(st.data())
def test_star_matches_smash_route_on_random_diagonal_data(data):
    _assert_star_matches_smash_route(data, data.draw(diagonal_yd_specs()))


@BOUNDED
@given(st.data())
def test_star_matches_smash_route_on_presets(data):
    _assert_star_matches_smash_route(data, data.draw(st.sampled_from(PRESETS)))


@BOUNDED
@given(st.data())
def test_star_is_associative_on_random_diagonal_data(data):
    _assert_star_is_associative(data, data.draw(diagonal_yd_specs()))


@BOUNDED
@given(st.data())
def test_star_is_associative_on_presets(data):
    _assert_star_is_associative(data, data.draw(st.sampled_from(PRESETS)))

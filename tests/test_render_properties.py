"""Property test: what the command line prints reads back as input.

The text the command line prints for a tensor, a cotensor or a smash
element parses (``parse_element_text``) and binds (``bind_plain_element``,
``bind_cotensor_element``, ``bind_smash_element``) to the element it was
printed from.  The elements have several terms, among them the empty
word and degree-0 keys, with q-power coefficients (negative non-unit ones
such as ``-2*q^k`` and ``-1/2*q^k`` among them), multi-term Laurent and
fractional coefficients.  The specs are those of ``diagonal_yd_specs``,
and the same data over a group of rank 0 or with one torsion generator.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cofreehopf.cli import _render_any
from cofreehopf.config import bind_cotensor_element, bind_plain_element, bind_smash_element
from cofreehopf.cotensor import CotensorElement, SmashElement, chain_lift_word, right_translate
from cofreehopf.elements import Element, pack_word
from cofreehopf.expr import parse_element_text
from cofreehopf.grouphopf import AbelianGroup, YDSpec, diagonal_images
from cofreehopf.scalars import Scalar
from test_qsh_properties import diagonal_yd_specs

READ_BACK = settings(max_examples=100, derandomize=True, deadline=None, database=None)


@st.composite
def _specs(draw):
    """A spec of ``diagonal_yd_specs``, or one over a group of rank 0, or over
    one free and one order-2 torsion generator (which acts by signs)."""
    kind = draw(st.sampled_from(("free", "rank 0", "torsion")))
    if kind == "free":
        return draw(diagonal_yd_specs())
    group = AbelianGroup(1, (2,)) if kind == "torsion" else AbelianGroup(0)
    dim = draw(st.integers(1, 3))
    degrees = tuple(group.element([draw(st.integers(-2, 2))
                                   for _ in range(group.n_generators)])
                    for _ in range(dim))
    action = tuple(diagonal_images([Scalar.q_power(draw(st.integers(-2, 2))) if k < group.rank
                                    else Scalar.rational(draw(st.sampled_from((1, -1))))
                                    for _ in range(dim)])
                   for k in range(group.n_generators))
    return YDSpec(group, tuple(f"v{k}" for k in range(dim)), degrees, action, mult={})


_fractions = st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 4))
_coefficients = st.one_of(
    st.builds(Scalar.q_power, st.integers(-3, 3),
              st.sampled_from((1, -1, 2, -2, Fraction(-1, 2)))),
    _fractions.map(Scalar.rational),
    st.dictionaries(st.integers(-2, 2), _fractions, min_size=2, max_size=3).map(Scalar),
)


@st.composite
def _tensor_elements(draw, spec):
    words = draw(st.lists(st.lists(st.integers(0, spec.dim - 1), max_size=3).map(tuple),
                          min_size=1, max_size=4))
    out = Element.zero(spec)
    for word in words:
        out = out + Element.from_word(word, draw(_coefficients), spec)
    return out


@st.composite
def _cotensor_elements(draw, spec):
    """Chain lifts right-translated by a group tag; the empty word gives a degree-0 key."""
    out = CotensorElement.zero(spec)
    for word in draw(st.lists(st.lists(st.integers(0, spec.dim - 1), max_size=3).map(tuple),
                              min_size=1, max_size=4)):
        tag = spec.group.element([draw(st.integers(-2, 2))
                                  for _ in range(spec.group.n_generators)])
        key = right_translate(spec, chain_lift_word(spec, word), tag)
        out = out + CotensorElement(spec, {key: draw(_coefficients)})
    return out


def _tags(spec):
    return st.lists(st.integers(-2, 2), min_size=spec.group.n_generators,
                    max_size=spec.group.n_generators).map(spec.group.element)


@st.composite
def _smash_elements(draw, spec):
    """Words of length 0-3, each with a group tag (``1#K{...}`` for the empty word)."""
    out = SmashElement.zero(spec)
    for word in draw(st.lists(st.lists(st.integers(0, spec.dim - 1), max_size=3).map(tuple),
                              min_size=1, max_size=4)):
        out = out + SmashElement(spec, {(pack_word(word), draw(_tags(spec))): draw(_coefficients)})
    return out


@READ_BACK
@given(st.data())
def test_printed_tensor_element_reads_back(data):
    spec = data.draw(_specs())
    x = data.draw(_tensor_elements(spec))
    text = _render_any(spec)(x)
    assert bind_plain_element(spec, parse_element_text(text)) == x, text


@READ_BACK
@given(st.data())
def test_printed_cotensor_element_reads_back(data):
    spec = data.draw(_specs())
    x = data.draw(_cotensor_elements(spec))
    text = _render_any(spec)(x)
    assert bind_cotensor_element(spec, parse_element_text(text)) == x, text


@READ_BACK
@given(st.data())
def test_printed_smash_element_reads_back(data):
    spec = data.draw(_specs())
    x = data.draw(_smash_elements(spec))
    text = _render_any(spec)(x)
    assert bind_smash_element(spec, parse_element_text(text)) == x, text


def test_smash_text_covers_the_empty_word_rank_0_and_torsion():
    rank0 = YDSpec(AbelianGroup(0), ("v0",), (AbelianGroup(0).identity(),), (), mult={})
    torsion = AbelianGroup(1, (2,))
    signs = YDSpec(torsion, ("v0", "v1"), (torsion.element([1, 1]), torsion.element([0, 1])),
                   (diagonal_images([Scalar.q_power(1), Scalar.q_power(-1)]),
                    diagonal_images([Scalar.rational(-1), Scalar.rational(1)])), mult={})
    for spec, keys, expected in (
            (rank0, [((), ()), ((0, 0), ())], "q 1#K{} + q v0@v0#K{}"),
            (signs, [((), (1, 1)), ((1, 0), (-2, 1))], "q 1#K{1,1} + q v1@v0#K{-2,1}")):
        x = SmashElement(spec, {(pack_word(word), spec.group.element(g)): Scalar.q_power(1)
                                for word, g in keys})
        text = _render_any(spec)(x)
        assert text == expected
        assert bind_smash_element(spec, parse_element_text(text)) == x, text

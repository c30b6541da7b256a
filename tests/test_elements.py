from __future__ import annotations

import itertools

import pytest

from cofreehopf.braid import flip_braiding
from cofreehopf.elements import Element, apply_local, render_element
from cofreehopf.errors import StructuralError
from cofreehopf.grouphopf import AbelianGroup, YDSpec, diagonal_matrix
from cofreehopf.qalg import BraidedAlgebraSpec
from cofreehopf.scalars import Scalar


def _flip_table(dim):
    return {(a, b): Element.from_word((b, a)) for a in range(dim) for b in range(dim)}


def test_additive_identity_and_like_terms():
    x = Element.from_word((0, 1), 2)
    assert x + Element.zero() == x
    assert Element.from_word((0, 1), 2) + Element.from_word((0, 1), 3) \
        == Element.from_word((0, 1), 5)


def test_cancellation_leaves_empty_mapping():
    q = Scalar.q_power(1)
    x = Element.from_word((0,), q) + Element.from_word((0,), -q)
    assert x.is_zero()
    assert len(x) == 0


def test_alphabet_mismatch_is_structural():
    x = Element.from_word((0,), alphabet="A")
    y = Element.from_word((0,), alphabet="B")
    with pytest.raises(StructuralError):
        _ = x + y
    assert x != y


def test_apply_local_flip_at_position_one():
    x = Element.from_word((0, 1))
    assert apply_local(_flip_table(2), 1, x) == Element.from_word((1, 0))


def test_apply_local_diagonal_inner_position():
    # sigma(a, b) = q * (b, a) applied at position 2 of (c, a, b)
    table = {(a, b): Element.from_word((b, a), Scalar.q_power(1))
             for a in range(3) for b in range(3)}
    x = Element.from_word((2, 0, 1))
    assert apply_local(table, 2, x) == Element.from_word((2, 1, 0), Scalar.q_power(1))


def test_apply_local_merge_shortens_word():
    table = {(0, 1): Element.from_word((2,))}
    x = Element.from_word((0, 1, 3))
    assert apply_local(table, 1, x) == Element.from_word((2, 3))


def test_apply_local_errors():
    with pytest.raises(StructuralError):
        apply_local(_flip_table(2), 2, Element.from_word((0, 1)))
    with pytest.raises(StructuralError):
        apply_local({}, 1, Element.from_word((0, 1)))


@pytest.mark.parametrize("key", [(0, 5), (0, 99), (-1, 0), (0,), (0, 0, 0), ("a", 0)])
def test_mult_keys_must_be_pairs_of_letters(key):
    g = AbelianGroup(rank=1)
    letter = Element.from_word((0,))
    assert BraidedAlgebraSpec(1, flip_braiding(1), {(0, 0): letter}).mult[(0, 0)] == letter
    with pytest.raises(StructuralError, match="not a pair of letters"):
        BraidedAlgebraSpec(1, flip_braiding(1), {(0, 0): letter, key: letter})
    with pytest.raises(StructuralError, match="not a pair of letters"):
        YDSpec(g, ("a",), (g.identity(),), (diagonal_matrix([Scalar.one()]),),
               {(0, 0): letter, key: letter})


def test_disjoint_positions_commute():
    dim = 2
    q_table = {(a, b): Element.from_word((b, a), Scalar.q_power(a - b))
               for a in range(dim) for b in range(dim)}
    for word in itertools.product(range(dim), repeat=5):
        x = Element.from_word(word)
        for i in range(1, 3):
            for j in range(i + 2, 5):
                one = apply_local(q_table, j, apply_local(q_table, i, x))
                other = apply_local(q_table, i, apply_local(q_table, j, x))
                assert one == other


def test_tensor_and_map_words():
    x = Element.from_word((0,)) + Element.from_word((1,), 2)
    y = Element.from_word((2,))
    assert x.tensor(y) == Element.from_word((0, 2)) + Element.from_word((1, 2), 2)
    doubled = x.map_words(lambda w: Element.from_word(w + w))
    assert doubled == Element.from_word((0, 0)) + Element.from_word((1, 1), 2)


def test_canonical_order_is_lexicographic():
    x = Element.from_word((1,)) + Element.from_word((0, 1), 2) + Element.from_word(())
    assert [w for w, _ in x.terms()] == [(), (0, 1), (1,)]


def test_rendering():
    x = Element.from_word((0, 0), 2) + Element.from_word((1,))
    names = {0: "x1", 1: "x2"}
    assert render_element(x, lambda l: names[l]) == "2 x1@x1 + x2"
    y = Element.from_word((0,), -1) + Element.from_word((1,), Scalar.q_power(-2))
    assert render_element(y, lambda l: names[l]) == "−x1 + q^-2 x2"
    assert render_element(Element.zero()) == "0"
    z = Element.from_word((), Scalar.one() - Scalar.q_power(1))
    assert render_element(z, str) == "(1 - q)"

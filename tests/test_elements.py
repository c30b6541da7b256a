from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from cofreehopf.braid import flip_braiding
from cofreehopf.elements import Element, apply_local, canonical_key, pack_word, render_element
from cofreehopf.errors import StructuralError
from cofreehopf.grouphopf import AbelianGroup, GroupElement, YDSpec, diagonal_images
from cofreehopf.qalg import BraidedAlgebraSpec
from cofreehopf.scalars import Scalar

from conftest import letter_key, letters


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
    with pytest.raises(StructuralError,
                       match=r"^position 2 out of range for word of length 2$"):
        apply_local(_flip_table(2), 2, Element.from_word((0, 1)))
    with pytest.raises(StructuralError, match=r"^no table entry for letter pair \(0, 1\)$"):
        apply_local({}, 1, Element.from_word((0, 1)))
    with pytest.raises(StructuralError, match=r"^no table entry for letter pair \(1, 0\)$"):
        apply_local({(0, 1): Element.from_word((1, 0))}, 1, Element.from_word((1, 0, 1)))
    with pytest.raises(StructuralError, match=r"^position must be >= 1, got 0$"):
        apply_local(_flip_table(2), 0, Element.from_word((0, 1)))


@pytest.mark.parametrize("key", [(0, 5), (0, 99), (-1, 0), (0,), (0, 0, 0), ("a", 0)])
def test_mult_keys_must_be_pairs_of_letters(key):
    g = AbelianGroup(rank=1)
    letter = Element.from_word((0,))
    assert BraidedAlgebraSpec(1, flip_braiding(1), {(0, 0): letter}).mult[(0, 0)] == letter
    with pytest.raises(StructuralError, match="not a pair of letters"):
        BraidedAlgebraSpec(1, flip_braiding(1), {(0, 0): letter, key: letter})
    with pytest.raises(StructuralError, match="not a pair of letters"):
        YDSpec(g, ("a",), (g.identity(),), (diagonal_images([Scalar.one()]),),
               {(0, 0): letter, key: letter})


def test_mult_values_must_be_elements():
    g = AbelianGroup(rank=1)
    with pytest.raises(StructuralError, match=r"mult entry for \(0, 0\) must be a combination"):
        BraidedAlgebraSpec(1, flip_braiding(1), {(0, 0): 1})
    with pytest.raises(StructuralError, match=r"mult entry for \(0, 0\) must be a combination"):
        YDSpec(g, ("a",), (g.identity(),), (diagonal_images([Scalar.one()]),), {(0, 0): 1})


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
    assert [letters(w) for w, _ in x.terms()] == [(), (0, 1), (1,)]


def test_rendering():
    x = Element.from_word((0, 0), 2) + Element.from_word((1,))
    names = {0: "x1", 1: "x2"}
    assert render_element(x, lambda l: names[ord(l)]) == "2 x1@x1 + x2"
    y = Element.from_word((0,), -1) + Element.from_word((1,), Scalar.q_power(-2))
    assert render_element(y, lambda l: names[ord(l)]) == "−x1 + q^-2 x2"
    assert render_element(Element.zero()) == "0"
    z = Element.from_word((), Scalar.one() - Scalar.q_power(1))
    assert render_element(z, str) == "(1 - q)"


# -- the linear-extension core against a reference loop over + and scale ------

_COEFFS = [Scalar.one(), Scalar.rational(-1), Scalar.rational(2), Scalar.rational(Fraction(1, 2)),
           Scalar.q_power(1), Scalar.q_power(-1, -3), Scalar.one() + Scalar.q_power(1)]
_WORDS = [w for n in range(4) for w in itertools.product(range(2), repeat=n)]


class _Tagged(Element):
    __slots__ = ()


def _cancelling_element(rnd, alphabet) -> Element:
    """Random terms plus (0, 1) and (1, 0) with opposite coefficients, which
    every rule below sends to one common key."""
    terms = {w: rnd.choice(_COEFFS) for w in rnd.sample(_WORDS, 5)}
    c = rnd.choice(_COEFFS)
    terms[(0, 1)], terms[(1, 0)] = c, -c
    return Element(terms, alphabet)


def _image(w) -> Element:
    return Element({tuple(sorted(w)): 1, w[:1]: Scalar.q_power(len(w))}, "B")


def _product(u, v) -> Element:
    return Element({tuple(sorted(u + v)): 1, (len(u), len(v)): -1}, "B")


def _keys_of(w) -> tuple:
    return (tuple(sorted(w)), w[:1])


def _reference(pairs) -> Element:
    out = Element.zero("B")
    for c, image in pairs:
        out = out + image.scale(c)
    return out


def _assert_result(out, expected):
    assert type(out) is _Tagged and out.alphabet == "B"
    assert out._terms == expected._terms
    assert all(not c.is_zero() for c in out._terms.values())


@pytest.mark.parametrize("seed", range(10))
def test_core_matches_reference_loop(seed):
    rnd = random.Random(seed)
    x = _cancelling_element(rnd, "A")
    y = _cancelling_element(rnd, "A") + Element({(): rnd.choice(_COEFFS)}, "A")
    one = Scalar.one()

    expected = _reference((c, _image(w)) for w, c in x._terms.items())
    _assert_result(x.map_words(_image, cls=_Tagged, alphabet="B"), expected)

    expected = _reference((cu * cv, _product(u, v))
                          for u, cu in x._terms.items() for v, cv in y._terms.items())
    _assert_result(x.bilinear(y, _product, cls=_Tagged, alphabet="B"), expected)

    expected = _reference((c, Element({k: one}, "B")) for w, c in x._terms.items()
                          for k in _keys_of(w))
    out = x.rekey(_keys_of, cls=_Tagged, alphabet="B")
    _assert_result(out, expected)
    assert (0, 1) not in out._terms  # the opposite coefficients cancelled

    expected = _reference((c, Element({(7,) + w: one}, "B")) for w, c in x._terms.items())
    _assert_result(x.relabel(lambda w: (7,) + w, cls=_Tagged, alphabet="B"), expected)


def test_core_defaults_to_the_class_and_alphabet_of_the_element():
    x = _Tagged({(0,): 2}, "A")
    for out in (x.map_words(lambda w: Element.from_word(w + w)),
                x.bilinear(_Tagged({(1,): 3}, "A"), lambda u, v: Element.from_word(u + v)),
                x.rekey(lambda w: (w, w + w)), x.relabel(lambda w: w + w)):
        assert type(out) is _Tagged and out.alphabet == "A"
    with pytest.raises(StructuralError):
        x.bilinear(_Tagged({(1,): 3}, "B"), lambda u, v: Element.from_word(u + v))


@pytest.mark.parametrize("group", [AbelianGroup(1, (2,)), AbelianGroup(2)],
                         ids=["rank1-torsion2", "rank2"])
def test_canonical_key_orders_every_key_kind_as_the_recursive_key(group):
    r = random.Random(7)

    def g():
        return group.element([r.randint(-1, 1) for _ in range(group.n_generators)])

    def word():
        return tuple(r.randrange(3) for _ in range(r.randint(0, 3)))

    def chain_word():
        return tuple((r.randrange(3), g()) for _ in range(r.randint(1, 3)))

    def cotensor_key():
        return g() if r.random() < 0.3 else chain_word()

    kinds = {
        "tensor words": word,
        "chain words": chain_word,
        "cotensor keys": cotensor_key,
        "smash keys": lambda: (word(), g()),
        "group elements": g,
        "word pairs": lambda: (word(), word()),
    }
    for kind, draw in kinds.items():
        keys = [draw() for _ in range(60)]
        for a, b in itertools.product(keys, repeat=2):
            assert (canonical_key(a) < canonical_key(b)) == (letter_key(a) < letter_key(b)), \
                (kind, a, b)
        assert sorted(keys, key=canonical_key) == sorted(keys, key=letter_key), kind


@pytest.mark.parametrize("group", [AbelianGroup(1, (2,)), AbelianGroup(2)],
                         ids=["rank1-torsion2", "rank2"])
def test_canonical_key_orders_packed_words_as_their_letters(group):
    # code-point order is the letters' lexicographic order: the empty word
    # first, a word before its extensions, letters of 256 and more included
    r = random.Random(36)
    alphabet = (0, 1, 2, 255, 256, 257, 0xD7FF, 0x10FFFF)
    words = [tuple(r.choice(alphabet) for _ in range(r.randint(0, 4))) for _ in range(40)]
    words += [w[:k] for w in words[:10] for k in range(len(w))] + [()]
    tags = [group.element([r.randint(-1, 1) for _ in range(group.n_generators)])
            for _ in range(len(words))]
    kinds = {
        "tensor words": (words, pack_word),
        "smash keys": (list(zip(words, tags)), lambda key: (pack_word(key[0]), key[1])),
        "word pairs": (list(zip(words, reversed(words))),
                       lambda key: (pack_word(key[0]), pack_word(key[1]))),
    }
    for kind, (keys, pack) in kinds.items():
        for a, b in itertools.product(keys, repeat=2):
            assert (canonical_key(pack(a)) < canonical_key(pack(b))) \
                == (canonical_key(a) < canonical_key(b)), (kind, a, b)
        assert sorted(map(pack, keys), key=canonical_key) \
            == list(map(pack, sorted(keys, key=canonical_key))), kind

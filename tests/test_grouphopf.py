from __future__ import annotations

import copy
import dataclasses
import itertools
import pickle
import random

import pytest

from cofreehopf.braid import check_yang_baxter
from cofreehopf.config import document_from_spec, emit_config, parse_config
from cofreehopf.cotensor import chain_lift, render_cotensor, star
from cofreehopf.elements import Element, canonical_key
from cofreehopf.errors import StructuralError
from cofreehopf.grouphopf import (
    AbelianGroup,
    GroupElement,
    HElement,
    YDSpec,
    antipode,
    braided_spec,
    check_yd_module_algebra,
    check_yetter_drinfeld,
    coproduct,
    counit,
    diagonal_matrix,
)
from cofreehopf.scalars import Scalar


def test_group_normalization_and_inverse():
    g = AbelianGroup(rank=1, torsion=(2, 3))
    a = g.element([5, 3, -1])
    assert a.exponents() == (5, 1, 2)
    assert g.multiply(a, g.inverse(a)) == g.identity()
    assert g.element([0, 2, 3]).is_identity()
    assert g.element([0, 2, 3]).exponents() == (0, 0, 0)


def test_group_element_rendering():
    g = AbelianGroup(rank=2)
    assert g.element([1, -3]).render() == "K{1,-3}"
    assert AbelianGroup(0, (2,)).element([1]).render() == "K{1}"


def test_hopf_operations_on_group_likes():
    g = AbelianGroup(rank=2)
    k1 = g.generator(0)
    k2 = g.generator(1)
    h = HElement.of(g, k1)
    assert coproduct(h) == Element({(k1, k1): 1}, g)
    word = g.multiply(k1, g.element([0, -3]))
    assert antipode(HElement.of(g, word)) == HElement.of(g, g.element([-1, 3]))
    mixed = HElement.of(g, k1, 2) + HElement.of(g, k2, 3)
    assert counit(mixed) == Scalar.rational(5)


def test_antipode_is_convolution_inverse():
    g = AbelianGroup(rank=1, torsion=(4,))
    for exps in itertools.product(range(-2, 3), range(4)):
        h = g.element(exps)
        assert g.multiply(h, g.inverse(h)) == g.identity()


def test_group_algebra_product():
    g = AbelianGroup(rank=1)
    x = HElement.of(g, g.element([1]), 2)
    y = HElement.of(g, g.element([-1])) + HElement.of(g, g.identity())
    assert x * y == HElement.of(g, g.identity(), 2) + HElement.of(g, g.element([1]), 2)


def test_check_yd_presets(clifford2, uqg_a2):
    assert check_yetter_drinfeld(clifford2.spec)
    assert check_yetter_drinfeld(uqg_a2.spec)


def test_check_yd_rejects_degree_mixing_action():
    g = AbelianGroup(rank=1)
    k = g.generator(0)
    one, zero = Scalar.one(), Scalar.zero()
    # two letters of different degree, action mixes them
    spec = YDSpec(g, ("a", "b"), (k, g.element([2])),
                  (((one, one), (zero, one)),))
    result = check_yetter_drinfeld(spec)
    assert not result
    assert result.law == "yetter-drinfeld"


def test_check_yd_rejects_wrong_torsion_order():
    g = AbelianGroup(rank=0, torsion=(2,))
    spec = YDSpec(g, ("a",), (g.identity(),),
                  (diagonal_matrix([Scalar.rational(2)]),))
    result = check_yetter_drinfeld(spec)
    assert not result
    assert result.law == "torsion-order"


def test_check_yd_rejects_noncommuting_matrices():
    g = AbelianGroup(rank=2)
    one, zero = Scalar.one(), Scalar.zero()
    m1 = ((one, one), (zero, one))
    m2 = ((one, zero), (one, one))
    spec = YDSpec(g, ("a", "b"), (g.identity(), g.identity()), (m1, m2))
    result = check_yetter_drinfeld(spec)
    assert not result
    assert result.law == "action-matrices-commute"


def test_induced_braiding_clifford_sign(clifford2):
    spec = clifford2.spec
    table = spec.induced_braiding()
    assert table.entries[(0, 1)] == Element.from_word((1, 0), -1, spec)
    assert table.entries[(2, 0)] == Element.from_word((0, 2), alphabet=spec)


def test_induced_braiding_uqg_powers(uqg_a2):
    spec = uqg_a2.spec
    table = spec.induced_braiding()
    e1, f2 = 0, 3
    # degree(E1) acts on F2 by q^{-c_12}
    assert table.entries[(e1, f2)] == Element.from_word(
        (f2, e1), Scalar.q_power(1), spec)


def test_trivial_degrees_give_flip():
    g = AbelianGroup(rank=1)
    spec = YDSpec(g, ("a", "b"), (g.identity(), g.identity()),
                  (diagonal_matrix([Scalar.one(), Scalar.one()]),))
    table = spec.induced_braiding()
    for a in range(2):
        for b in range(2):
            assert table.entries[(a, b)] == Element.from_word((b, a), alphabet=spec)


def test_induced_braiding_satisfies_yang_baxter_randomized():
    rnd = random.Random(20240818)
    for _ in range(10):
        dim = rnd.randint(1, 4)
        g = AbelianGroup(rank=dim)
        degrees = tuple(
            g.element([rnd.randint(-2, 2) for _ in range(dim)]) for _ in range(dim))
        action = tuple(
            diagonal_matrix([Scalar.q_power(rnd.randint(-2, 2)) for _ in range(dim)])
            for _ in range(dim))
        spec = YDSpec(g, tuple(f"a{i}" for i in range(dim)), degrees, action)
        assert check_yetter_drinfeld(spec)
        assert check_yang_baxter(spec.induced_braiding())


def test_diagonal_braiding_is_bicharacter_valued():
    # for diagonal actions the entry at (a, b) is chi(degree a, b) * flip
    g = AbelianGroup(rank=2)
    degrees = (g.element([1, 0]), g.element([0, 2]))
    action = (diagonal_matrix([Scalar.q_power(1), Scalar.q_power(-1)]),
              diagonal_matrix([Scalar.q_power(2), Scalar.q_power(0)]))
    spec = YDSpec(g, ("a", "b"), degrees, action)
    table = spec.induced_braiding()
    for a in range(2):
        for b in range(2):
            chi = spec.act_letter(degrees[a], b).coefficient((b,))
            assert table.entries[(a, b)] == Element.from_word((b, a), chi, spec)


def test_yd_module_algebra_presets(clifford2, uqg_a2):
    assert check_yd_module_algebra(clifford2.spec)
    assert check_yd_module_algebra(uqg_a2.spec)


def test_yd_module_algebra_degree_check(uqg_a2):
    spec = uqg_a2.spec
    # xi1 has degree K_1^2 = product of the degrees of E1 and F1
    assert spec.degrees[uqg_a2.xi(1)] == spec.group.multiply(
        spec.degrees[uqg_a2.e(1)], spec.degrees[uqg_a2.f(1)])


def test_yd_module_algebra_rejects_corrupted_degree(uqg_a2):
    base = uqg_a2.spec
    degrees = list(base.degrees)
    degrees[uqg_a2.xi(1)] = base.group.generator(0)  # should be K_1^2
    spec = YDSpec(base.group, base.names, tuple(degrees), base.action, base.mult)
    result = check_yd_module_algebra(spec)
    assert not result
    assert result.law == "mult-degree"


def test_negative_exponent_action_goes_through_matrix_inverse():
    g = AbelianGroup(rank=1)
    k = g.generator(0)
    one, zero = Scalar.one(), Scalar.zero()
    spec = YDSpec(g, ("a", "b"), (k, k), (((one, one), (zero, one)),))
    for e in (-2, -3001, 3001):  # g^e sends b to e a + b
        image = spec.act_letter(g.element([e]), 1)
        assert image == Element({(0,): Scalar.rational(e), (1,): one}, spec)


def test_composed_actions_match_their_closed_forms():
    q = Scalar.q_power(1)
    shear = ((1, 1), (0, 1))  # A: x -> x, y -> x + y
    exponents = range(-3, 4)
    # rank 2 by A and qA: K{n,m} sends x to q^m x and y to q^m ((n + m) x + y)
    group = AbelianGroup(rank=2)
    spec = YDSpec(group, ("x", "y"), (group.identity(),) * 2, (shear, ((q, q), (0, q))))
    for n, m in itertools.product(exponents, repeat=2):
        g, c = group.element([n, m]), Scalar.q_power(m)
        assert spec.act_letter(g, 0) == Element({(0,): c}, spec)
        assert spec.act_letter(g, 1) == Element({(0,): c * Scalar.rational(n + m), (1,): c}, spec)
    # torsion 3 by the cyclic permutation: K{e} sends letter j to letter j + e
    group = AbelianGroup(rank=0, torsion=(3,))
    cycle = ((0, 0, 1), (1, 0, 0), (0, 1, 0))
    spec = YDSpec(group, ("a", "b", "c"), (group.identity(),) * 3, (cycle,))
    for e in exponents:
        for j in range(3):
            assert spec.act_letter(group.element([e]), j) == Element({((j + e) % 3,): 1}, spec)
    # rank 1 by A plus torsion 2 by -I: K{n,t} sends x to (-1)^t x and y to (-1)^t (n x + y)
    group = AbelianGroup(rank=1, torsion=(2,))
    spec = YDSpec(group, ("x", "y"), (group.identity(),) * 2, (shear, ((-1, 0), (0, -1))))
    for n, t in itertools.product(exponents, repeat=2):
        g, sign = group.element([n, t]), -1 if t % 2 else 1
        assert spec.act_letter(g, 0) == Element({(0,): sign}, spec)
        assert spec.act_letter(g, 1) == Element({(0,): sign * n, (1,): sign}, spec)


@pytest.mark.parametrize("entries", [(0, 1), (1, Scalar.one() + Scalar.q_power(1))])
def test_action_without_laurent_inverse_is_rejected(entries):
    g = AbelianGroup(rank=2)
    fine = diagonal_matrix([Scalar.one(), Scalar.q_power(-1)])
    with pytest.raises(StructuralError, match="generator g2 has no Laurent inverse"):
        YDSpec(g, ("a", "b"), (g.identity(), g.identity()), (fine, diagonal_matrix(entries)))


def test_large_exponents_act_without_recursion(uqg_a2):
    spec = uqg_a2.spec
    e1 = spec.letter("E1")
    for e in (3000, -3000):
        image = spec.act_letter(spec.group.element([e, 0]), e1)
        assert image == Element.from_word((e1,), Scalar.q_power(2 * e), spec)


def test_with_unit_extends_structure(clifford2):
    spec = clifford2.spec.with_unit()
    assert spec.unit == spec.dim - 1
    assert spec.names[-1] == "one"
    assert spec.degrees[-1].is_identity()
    assert check_yetter_drinfeld(spec)
    assert check_yd_module_algebra(spec)
    unital = braided_spec(spec)
    assert unital.unit == spec.unit


def test_a_spec_without_products_multiplies_by_zero():
    # letters a, b of degree K{1}, acted on by q and q^-1, with no mult given:
    # the zero multiplication, the same one its emitted config reads back with
    g = AbelianGroup(rank=1)
    k = g.generator(0)
    spec = YDSpec(g, ("a", "b"), (k, k),
                  (diagonal_matrix([Scalar.q_power(1), Scalar.q_power(-1)]),))
    assert spec.with_unit().unit == 2
    assert braided_spec(spec).mult_entry(0, 1).is_zero()
    assert check_yd_module_algebra(spec)
    text = emit_config(document_from_spec(spec))
    assert "[mult]" not in text
    read_back = parse_config(text).spec
    words = [w for n in range(5) for w in itertools.product(range(2), repeat=n)]
    for u, v in itertools.product(words, repeat=2):
        if len(u) + len(v) > 4:
            continue
        products = [star(*(chain_lift(s, Element.from_word(w, alphabet=s)) for w in (u, v)))
                    for s in (spec, read_back)]
        assert render_cotensor(products[0]) == render_cotensor(products[1]), (u, v)


def test_specs_are_frozen_and_own_their_products(clifford2):
    spec = clifford2.spec.with_unit()
    bspec = braided_spec(spec)
    for built in (clifford2, spec, bspec):
        for f in dataclasses.fields(built):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(built, f.name, getattr(built, f.name))
    assert all(value.alphabet is spec for value in spec.mult.values())
    assert all(value.alphabet is spec for value in bspec.mult.values())


# -- the group element representation --------------------------------------------


def test_group_element_equals_only_group_elements():
    group = AbelianGroup(rank=1)
    g = GroupElement((1,), ())
    plain = ((1,), ())
    assert g == group.element([1]) and not g != group.element([1])
    assert hash(g) == hash(group.element([1]))
    assert g != plain and plain != g
    assert not g == plain and not plain == g
    assert len({g: 1, plain: 2}) == 2  # same hash, still two keys
    identity = AbelianGroup(rank=0).identity()
    assert identity != ((), ()) and len({identity, ((), ())}) == 2


def test_group_element_never_equals_a_chain_word_or_a_smash_key(clifford2):
    spec = clifford2.spec
    g = spec.group.generator(0)
    keys = [g, ((0, g),), ((0, g), (1, spec.group.identity())), ((), g), ((0,), g),
            tuple(g), g.exponents()]
    for a, b in itertools.combinations(keys, 2):
        assert a != b and b != a and not a == b and not b == a
    assert len(dict.fromkeys(keys)) == len(keys)


def test_letter_key_puts_group_elements_between_letters_and_words():
    """``canonical_key`` sorts group elements before the tuple keys they can
    share an element with: words, with the empty word first, smash keys and
    chain words."""
    group = AbelianGroup(rank=1, torsion=(2,))
    g, h = group.element([-5, 0]), group.element([3, 1])
    for words in ([(), (0,), (0, 2), (1, 0)],
                  [((), g), ((), h), ((0,), g)],
                  [((0, g),), ((0, h), (1, g)), ((1, g),)]):
        ordered = sorted([h, *reversed(words), g], key=canonical_key)
        assert ordered == [g, h, *words]  # the empty word sorts after every group element


def test_group_element_survives_pickle_and_deepcopy():
    group = AbelianGroup(rank=2, torsion=(3,))
    g = group.element([4, -1, 2])
    for copied in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g), copy.copy(g)):
        assert type(copied) is GroupElement
        assert copied == g and hash(copied) == hash(g)
        assert copied.free == (4, -1) and copied.torsion == (2,)
    assert repr(g) == "GroupElement(free=(4, -1), torsion=(2,))"


def test_multiply_rejects_elements_of_another_group():
    small, large = AbelianGroup(rank=1), AbelianGroup(rank=2)
    g, h = small.generator(0), large.generator(1)
    for group in (small, large):
        with pytest.raises(StructuralError):
            group.multiply(g, h)
        with pytest.raises(StructuralError):
            group.multiply(h, g)
    with pytest.raises(StructuralError):
        small.multiply(h, h)
    torsion = AbelianGroup(rank=1, torsion=(2,))
    with pytest.raises(StructuralError):
        torsion.multiply(torsion.generator(1), g)


def test_multiply_and_inverse_normalize_like_element():
    group = AbelianGroup(rank=2, torsion=(2, 5))
    rng = random.Random(13)
    for _ in range(200):
        a = [rng.randrange(-9, 10) for _ in range(4)]
        b = [rng.randrange(-9, 10) for _ in range(4)]
        g, h = group.element(a), group.element(b)
        product = group.multiply(g, h)
        assert product == group.element([x + y for x, y in zip(a, b)])
        assert type(product) is GroupElement
        assert group.inverse(g) == group.element([-x for x in a])
        assert type(group.inverse(g)) is GroupElement

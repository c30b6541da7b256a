from __future__ import annotations

import copy
import itertools
import pickle
import random
import time

import pytest

from cofreehopf import linalg
from cofreehopf.braid import check_yang_baxter, flip_braiding
from cofreehopf.config import ConfigDocument, emit_config, parse_config
from cofreehopf.cotensor import chain_lift, render_cotensor, star
from cofreehopf.elements import Element, accumulate
from cofreehopf.errors import StructuralError
from cofreehopf.grouphopf import (
    AbelianGroup,
    GroupElement,
    YDSpec,
    _compose,
    braided_spec,
    check_yd_module_algebra,
    check_yetter_drinfeld,
    diagonal_images,
)
from cofreehopf.presets import build_clifford, build_uqg
from cofreehopf.scalars import Scalar

from conftest import CARTAN_A2, assert_frozen, column_images, given_spec, graded_yd_config


def test_group_normalization_and_inverse():
    g = AbelianGroup(rank=1, torsion=(2, 3))
    a = g.element([5, 3, -1])
    assert a.exponents() == (5, 1, 2)
    assert g.multiply(a, g.inverse(a)) == g.identity()
    assert g.element([0, 2, 3]).is_identity()
    assert g.element([0, 2, 3]).exponents() == (0, 0, 0)


@pytest.mark.parametrize("build", [
    lambda: AbelianGroup(1, (3,)).element([2.7, 4.5]),
    lambda: AbelianGroup(1, (3,)).element(["3", "1"]),
    lambda: AbelianGroup(1.5),
    lambda: AbelianGroup(1, (3.0,)),
    lambda: build_clifford(2.5),
], ids=["float-exponents", "string-exponents", "float-rank", "float-torsion", "float-clifford"])
def test_integral_arguments_refuse_what_is_not_an_integer(build):
    # read through operator.index: neither truncated nor parsed
    with pytest.raises(StructuralError):
        build()


def test_group_element_rendering():
    g = AbelianGroup(rank=2)
    assert g.element([1, -3]).render() == "K{1,-3}"
    assert AbelianGroup(0, (2,)).element([1]).render() == "K{1}"


def test_group_algebra_product():
    # the product of the group algebra is the bilinear extension of the group's
    g = AbelianGroup(rank=1)
    x = Element({g.element([1]): 2}, g)
    y = Element({g.element([-1]): 1, g.identity(): 1}, g)
    assert x.bilinear(y, lambda a, b: Element({g.multiply(a, b): 1}, g)) \
        == Element({g.identity(): 2, g.element([1]): 2}, g)


def test_inverse_of_a_product_is_the_product_of_the_inverses():
    g = AbelianGroup(rank=2, torsion=(4,))
    k1 = g.generator(0)
    word = g.multiply(k1, g.element([0, -3, 1]))
    assert g.inverse(word) == g.element([-1, 3, 3])
    for a, b in itertools.product([g.element(e) for e in ((1, 0, 1), (0, -2, 3), (2, 1, 2))],
                                  repeat=2):
        assert g.inverse(g.multiply(a, b)) == g.multiply(g.inverse(b), g.inverse(a))
        assert g.inverse(g.inverse(a)) is a


def test_a_torsion_generator_acts_with_its_order():
    # K of order 3 cycles the letters: its cube fixes every word, no lower power does
    group = AbelianGroup(rank=0, torsion=(3,))
    cycle = column_images((0, 1, 0), (0, 0, 1), (1, 0, 0))
    spec = YDSpec(group, ("a", "b", "c"), (group.identity(),) * 3, (cycle,))
    k, word = group.generator(0), (0, 0, 1)
    x, images = Element.from_word(word, alphabet=spec), []
    for _ in range(3):
        x = x.map_words(lambda w: spec.act_word(k, w))
        images.append(x)
    assert images == [Element.from_word(w, alphabet=spec) for w in ((1, 1, 2), (2, 2, 0), word)]
    assert spec.act_word(group.element([3]), word) == Element.from_word(word, alphabet=spec)


def test_antipode_is_convolution_inverse():
    g = AbelianGroup(rank=1, torsion=(4,))
    for exps in itertools.product(range(-2, 3), range(4)):
        h = g.element(exps)
        assert g.multiply(h, g.inverse(h)) == g.identity()


def test_check_yd_presets(clifford2, uqg_a2):
    assert check_yetter_drinfeld(clifford2.spec)
    assert check_yetter_drinfeld(uqg_a2.spec)


def test_check_yd_rejects_degree_mixing_action():
    g = AbelianGroup(rank=1)
    k = g.generator(0)
    # two letters of different degree, action mixes them
    spec = YDSpec(g, ("a", "b"), (k, g.element([2])), (column_images((1, 0), (1, 1)),))
    result = check_yetter_drinfeld(spec)
    assert not result
    assert result.law == "yetter-drinfeld"


def test_check_yd_rejects_wrong_torsion_order():
    g = AbelianGroup(rank=0, torsion=(2,))
    spec = YDSpec(g, ("a",), (g.identity(),),
                  (diagonal_images([Scalar.rational(2)]),))
    result = check_yetter_drinfeld(spec)
    assert not result
    assert result.law == "torsion-order"


def test_check_yd_rejects_noncommuting_matrices():
    g = AbelianGroup(rank=2)
    m1 = column_images((1, 0), (1, 1))
    m2 = column_images((1, 1), (0, 1))
    spec = YDSpec(g, ("a", "b"), (g.identity(), g.identity()), (m1, m2))
    result = check_yetter_drinfeld(spec)
    assert not result
    assert result.law == "action-matrices-commute"


def test_induced_braiding_clifford_sign(clifford2):
    spec = clifford2.spec
    table = spec.braiding
    assert table.entries[(0, 1)] == Element.from_word((1, 0), -1, spec)
    assert table.entries[(2, 0)] == Element.from_word((0, 2), alphabet=spec)


def test_induced_braiding_uqg_powers(uqg_a2):
    spec = uqg_a2.spec
    table = spec.braiding
    e1, f2 = 0, 3
    # degree(E1) acts on F2 by q^{-c_12}
    assert table.entries[(e1, f2)] == Element.from_word(
        (f2, e1), Scalar.q_power(1), spec)


def test_trivial_degrees_give_flip():
    g = AbelianGroup(rank=1)
    spec = YDSpec(g, ("a", "b"), (g.identity(), g.identity()),
                  (diagonal_images([Scalar.one(), Scalar.one()]),))
    table = spec.braiding
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
            diagonal_images([Scalar.q_power(rnd.randint(-2, 2)) for _ in range(dim)])
            for _ in range(dim))
        spec = YDSpec(g, tuple(f"a{i}" for i in range(dim)), degrees, action)
        assert check_yetter_drinfeld(spec)
        assert check_yang_baxter(spec.braiding)


JORDAN = "[group]\nrank = 1\n\n[basis]\nx1 = 1\nx2 = 1\n\n[action]\ng1.x1 = 1, 0\ng1.x2 = 1, 1\n"


def test_the_induced_braiding_is_built_unchecked_and_inverted_by_inverse_degrees(
        clifford2, uqg_a2, monkeypatch):
    # sigma^-1(w (x) v) = v (x) degree(v)^-1.w: the induced table is invertible
    # by construction, so building it runs no elimination; nor do the flip, its
    # own inverse, and sigma plus the flip on a unit letter, induced on the
    # spec with the unit adjoined or extended from sigma given as a table
    texts = [emit_config(ConfigDocument(p.spec)) for p in (clifford2, uqg_a2)]
    texts += [JORDAN] + [graded_yd_config(seed) for seed in range(8)]

    def refuse(rows):
        raise AssertionError("a braiding built by the package was checked for invertibility")
    monkeypatch.setattr(linalg, "is_invertible", refuse)

    def flipped(w, v):
        return {chr(v) + chr(w): Scalar.one()}

    def induced_inverse(spec):
        def inverse(w, v):
            moved = spec.act_letter(spec.group.inverse(spec.degrees[v]), w)
            return {chr(v) + x: d for x, d in moved.terms()}
        return inverse

    def extended_inverse(spec):
        inverse = induced_inverse(spec)
        return lambda w, v: flipped(w, v) if spec.dim in (w, v) else inverse(w, v)

    cases = [(flip_braiding(dim), flipped) for dim in (1, 3)]
    for text in texts:
        spec = parse_config(text).spec  # a fresh spec builds its braiding here
        cases += [(spec.braiding, induced_inverse(spec)),
                  (spec.with_unit().braiding, extended_inverse(spec)),
                  (given_spec(spec.braiding, over=spec).with_unit().braiding,
                   extended_inverse(spec))]
    for table, inverse in cases:
        for a, b in itertools.product(range(table.dim), repeat=2):
            back: dict = {}
            for word, c in table.entries[(a, b)].terms():
                for x, d in inverse(*map(ord, word)).items():
                    accumulate(back, x, c * d)
            assert Element(back, table.alphabet) \
                == Element.from_word((a, b), alphabet=table.alphabet), (table, a, b)


def test_diagonal_braiding_is_bicharacter_valued():
    # for diagonal actions the entry at (a, b) is chi(degree a, b) * flip
    g = AbelianGroup(rank=2)
    degrees = (g.element([1, 0]), g.element([0, 2]))
    action = (diagonal_images([Scalar.q_power(1), Scalar.q_power(-1)]),
              diagonal_images([Scalar.q_power(2), Scalar.q_power(0)]))
    spec = YDSpec(g, ("a", "b"), degrees, action)
    table = spec.braiding
    for a in range(2):
        for b in range(2):
            [(word, chi)] = spec.act_letter(degrees[a], b).terms()
            assert word == chr(b)
            assert table.entries[(a, b)] == Element.from_word((b, a), chi, spec)


def test_yd_module_algebra_presets(clifford2, uqg_a2):
    assert check_yd_module_algebra(clifford2.spec)
    assert check_yd_module_algebra(uqg_a2.spec)


def test_yd_module_algebra_degree_check(uqg_a2):
    spec = uqg_a2.spec
    # xi1 has degree K_1^2 = product of the degrees of E1 and F1
    e1, f1, xi1 = map(spec.letter, ("E1", "F1", "xi1"))
    assert spec.degrees[xi1] == spec.group.multiply(spec.degrees[e1], spec.degrees[f1])


def test_yd_module_algebra_rejects_corrupted_degree(uqg_a2):
    base = uqg_a2.spec
    degrees = list(base.degrees)
    degrees[base.letter("xi1")] = base.group.generator(0)  # should be K_1^2
    spec = YDSpec(base.group, base.names, tuple(degrees), base.action, base.mult)
    result = check_yd_module_algebra(spec)
    assert not result
    assert result.law == "mult-degree"


def test_negative_exponent_action_goes_through_matrix_inverse():
    g = AbelianGroup(rank=1)
    k = g.generator(0)
    one = Scalar.one()
    spec = YDSpec(g, ("a", "b"), (k, k), (column_images((1, 0), (1, 1)),))
    for e in (-2, -3001, 3001):  # g^e sends b to e a + b
        image = spec.act_letter(g.element([e]), 1)
        assert image == Element({"\0": Scalar.rational(e), "\1": one}, spec)


def test_composed_actions_match_their_closed_forms():
    q = Scalar.q_power(1)
    shear = column_images((1, 0), (1, 1))  # A: x -> x, y -> x + y
    exponents = range(-3, 4)
    # rank 2 by A and qA: K{n,m} sends x to q^m x and y to q^m ((n + m) x + y)
    group = AbelianGroup(rank=2)
    spec = YDSpec(group, ("x", "y"), (group.identity(),) * 2, (shear, column_images((q, 0), (q, q))))
    for n, m in itertools.product(exponents, repeat=2):
        g, c = group.element([n, m]), Scalar.q_power(m)
        assert spec.act_letter(g, 0) == Element({"\0": c}, spec)
        assert spec.act_letter(g, 1) == Element({"\0": c * Scalar.rational(n + m), "\1": c}, spec)
    # torsion 3 by the cyclic permutation: K{e} sends letter j to letter j + e
    group = AbelianGroup(rank=0, torsion=(3,))
    cycle = column_images((0, 1, 0), (0, 0, 1), (1, 0, 0))
    spec = YDSpec(group, ("a", "b", "c"), (group.identity(),) * 3, (cycle,))
    for e in exponents:
        for j in range(3):
            assert spec.act_letter(group.element([e]), j) == Element({chr((j + e) % 3): 1}, spec)
    # rank 1 by A plus torsion 2 by -I: K{n,t} sends x to (-1)^t x and y to (-1)^t (n x + y)
    group = AbelianGroup(rank=1, torsion=(2,))
    spec = YDSpec(group, ("x", "y"), (group.identity(),) * 2, (shear, diagonal_images([-1, -1])))
    for n, t in itertools.product(exponents, repeat=2):
        g, sign = group.element([n, t]), -1 if t % 2 else 1
        assert spec.act_letter(g, 0) == Element({"\0": sign}, spec)
        assert spec.act_letter(g, 1) == Element({"\0": sign * n, "\1": sign}, spec)


@pytest.mark.parametrize("entries", [(0, 1), (1, Scalar.one() + Scalar.q_power(1))])
def test_action_without_laurent_inverse_is_rejected(entries):
    g = AbelianGroup(rank=2)
    fine = diagonal_images([Scalar.one(), Scalar.q_power(-1)])
    with pytest.raises(StructuralError, match="generator g2 has no Laurent inverse"):
        YDSpec(g, ("a", "b"), (g.identity(), g.identity()), (fine, diagonal_images(entries)))


_IMAGES = diagonal_images([Scalar.q_power(1), 1])  # two letters a, b


@pytest.mark.parametrize("action, message", [
    ((), "one action matrix per group generator"),  # too few generators
    ((_IMAGES, _IMAGES), "one action matrix per group generator"),  # too many
    ((_IMAGES[:1],), "wrong shape"),  # too few images
    ((_IMAGES * 2,), "wrong shape"),  # too many
    (((_IMAGES[0], Element.from_word((2,))),), "image of 'b' under g1"),  # no letter 2
    (((Element.from_word((0, 1)), _IMAGES[1]),), "image of 'a' under g1"),  # a two-letter word
    ((((1, 1), (0, 1)),), "image of 'a' under g1 must be"),  # a row matrix
    (((_IMAGES[0], Scalar.one()),), "image of 'b' under g1 must be"),  # a scalar
])
def test_the_constructor_refuses_a_malformed_action(action, message):
    group = AbelianGroup(rank=1)
    with pytest.raises(StructuralError, match=message):
        YDSpec(group, ("a", "b"), (group.identity(),) * 2, action)


def test_a_spec_holds_each_generators_images_once():
    group = AbelianGroup(rank=1, torsion=(2,))
    action = (column_images((1, 0), (Scalar.q_power(1), 1)), diagonal_images([-1, -1]))
    spec = YDSpec(group, ("a", "b"), (group.identity(),) * 2, action)
    unital = spec.with_unit()
    for k, given in enumerate(action):
        g = group.generator(k)
        assert spec.action[k] is spec.action_matrix(g)
        assert unital.action[k] is unital.action_matrix(g)
        assert all(image.alphabet is spec for image in spec.action[k])
        assert [image._terms for image in spec.action[k]] == [image._terms for image in given]
        assert [image._terms for image in unital.action[k]] \
            == [image._terms for image in given] + [{"\2": Scalar.one()}]


def test_large_exponents_act_without_recursion(uqg_a2):
    spec = uqg_a2.spec
    e1 = spec.letter("E1")
    for e in (3000, -3000):
        image = spec.act_letter(spec.group.element([e, 0]), e1)
        assert image == Element.from_word((e1,), Scalar.q_power(2 * e), spec)


def test_each_squaring_is_composed_once_per_generator_and_sign(monkeypatch):
    # K{e1,e2} on a fresh uqg_a2, |e| <= 7 and the multiples of 8 up to 64:
    # A^2, ..., A^64 of each generator and of its inverse are composed once,
    # then read from the memo
    from cofreehopf import grouphopf
    spec = build_uqg(CARTAN_A2).spec
    squarings = []
    multiplies = 0

    def counting(a, b):
        nonlocal multiplies
        if a is b:
            squarings.append(a)
        else:
            multiplies += 1
        return _compose(a, b)

    monkeypatch.setattr(grouphopf, "_compose", counting)
    span = sorted({*range(-7, 8), *range(-64, 65, 8)})
    for e in itertools.product(span, repeat=2):
        spec.action_matrix(spec.group.element(e))
    assert len(squarings) == 2 * 2 * 6 == len(set(map(id, squarings)))
    # each product starts from its first factor: one composition per further set bit
    assert multiplies == sum(max(0, sum(bin(abs(x)).count("1") for x in e) - 1)
                             for e in itertools.product(span, repeat=2))


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
                  (diagonal_images([Scalar.q_power(1), Scalar.q_power(-1)]),))
    assert spec.with_unit().unit == 2
    assert braided_spec(spec).mult[(0, 1)].is_zero()
    assert check_yd_module_algebra(spec)
    text = emit_config(ConfigDocument(spec))
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
    assert_frozen(clifford2, ("spec",))
    assert_frozen(spec, ("group", "names", "degrees", "action", "mult", "unit"))
    assert_frozen(bspec, ("dim", "braiding", "mult", "unit", "names", "alphabet"))
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


def test_group_element_survives_pickle_and_deepcopy():
    group = AbelianGroup(rank=2, torsion=(3,))
    g = group.element([4, -1, 2])
    for copied in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g), copy.copy(g)):
        assert type(copied) is GroupElement
        assert copied == g and hash(copied) == hash(g)
        assert copied.free == (4, -1) and copied.torsion == (2,)
    assert repr(g) == "GroupElement(free=(4, -1), torsion=(2,))"


def test_a_group_builds_one_object_per_element():
    group = AbelianGroup(rank=2, torsion=(3,))
    g, h = group.element([1, -1, 2]), group.element([4, 0, 1])
    assert group.element([1, -1, 5]) is g  # the torsion exponent reduces to the same element
    assert group.multiply(g, h) is group.multiply(h, g) is group.element([5, -1, 0])
    assert group.inverse(group.inverse(g)) is g
    assert group.multiply(g, group.inverse(g)) is group.identity() is group.identity()
    assert group.generator(1) is group.element([0, 1, 0])
    free = AbelianGroup(rank=1)  # no torsion part to reduce
    k = free.generator(0)
    assert free.multiply(k, free.inverse(k)) is free.identity()
    assert free.inverse(free.inverse(k)) is k
    twin = AbelianGroup(rank=2, torsion=(3,))  # an equal group interns its own, equal elements
    assert twin == group and twin.element([1, -1, 2]) == g


def test_a_hand_built_element_equals_and_hashes_like_the_groups_own():
    group = AbelianGroup(rank=1, torsion=(2,))
    own, hand = group.element([3, 1]), GroupElement((3,), (1,))
    assert hand is not own
    assert hand == own and own == hand and not hand != own and not own != hand
    assert hash(hand) == hash(own) and len({hand, own}) == 1 and {own: 1}[hand] == 1
    assert repr(hand) == repr(own) == "GroupElement(free=(3,), torsion=(1,))"
    assert group.multiply(hand, group.identity()) is own
    assert group.inverse(group.inverse(hand)) is own


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


# -- the product memo ------------------------------------------------------------------


def test_a_hand_built_element_gets_the_groups_memoised_product():
    group = AbelianGroup(rank=1, torsion=(3,))
    g, h = group.element([2, 1]), group.element([-1, 2])
    hand_g, hand_h = GroupElement((2,), (1,)), GroupElement((-1,), (2,))
    first = group.multiply(hand_g, hand_h)  # computed, stored under the hand-built pair
    assert first is group.element([1, 0])
    assert group.multiply(g, h) is first is group.multiply(hand_g, h)
    assert group.multiply(h, hand_g) is group.multiply(hand_h, g) is first


def test_a_mismatched_pair_raises_alike_and_is_never_stored():
    group, other = AbelianGroup(rank=1), AbelianGroup(rank=2)
    g, h = group.generator(0), other.generator(1)
    before = dict(group._products)
    errors = []
    for _ in range(2):
        with pytest.raises(StructuralError) as info:
            group.multiply(g, h)
        errors.append(str(info.value))
    assert errors[0] == errors[1] == f"{g!r} and {h!r} are not both elements of {group!r}"
    assert group._products == before and (g, h) not in group._products


def test_equal_groups_keep_their_own_products():
    group, twin = AbelianGroup(rank=1, torsion=(2,)), AbelianGroup(rank=1, torsion=(2,))
    assert twin == group and hash(twin) == hash(group)
    assert twin._products is not group._products
    g = group.element([1, 1])
    product = group.multiply(g, g)
    assert twin.multiply(g, g) == product and twin.multiply(g, g) is not product
    assert twin.multiply(g, g) is twin.element([2, 0])
    assert repr(group) == repr(twin) == "AbelianGroup(rank=1, torsion=(2,))"


def test_a_unital_spec_reuses_its_groups_products(clifford2):
    spec = clifford2.spec
    unital = spec.with_unit()
    assert unital.group is spec.group and unital.group._products is spec.group._products
    eps = spec.group.element([1])
    assert unital.group.multiply(eps, eps) is spec.group.multiply(eps, eps)


def test_a_unit_letter_of_nonzero_degree_fails_check_alg():
    g = AbelianGroup(1)
    spec = YDSpec(g, ("a", "u"), (g.identity(), g.generator(0)), (diagonal_images([1, 1]),),
                  unit=1)
    result = check_yd_module_algebra(spec)
    assert (result.ok, result.law, result.witness) == (False, "unit-degree", "u")


def test_a_dense_unipotent_action_interns_few_monomials():
    # the inverse's entries are polynomials: only their monomial pieces enter the table
    from cofreehopf import scalars

    names = [f"x{i}" for i in range(1, 25)]
    coeffs = ("q", "2", "(1 + q)", "q^-1", "-1")
    lines = ["[group]", "rank = 1", "", "[basis]", *(f"{x} = 1" for x in names), "", "[action]"]
    lines += [f"g1.{x} = " + ", ".join("1" if i == j else coeffs[(i + j) % 5] if i < j else "0"
                                       for i in range(24)) for j, x in enumerate(names)]
    monomials, products, sums = len(scalars._MONOMIALS), len(scalars._PRODUCTS), len(scalars._SUMS)
    parse_config("\n".join(lines) + "\n")
    assert len(scalars._MONOMIALS) - monomials < 2000
    assert len(scalars._PRODUCTS) - products < 2000
    assert len(scalars._SUMS) - sums < 2000


def test_a_dense_unipotent_action_on_24_letters_loads_at_once():
    # g1 fixes each letter up to every earlier one: the inverse has no zero entry to skip
    names = [f"x{i}" for i in range(1, 25)]
    coeffs = ("q", "2", "(1 + q)", "q^-1", "-1")
    lines = ["[group]", "rank = 1", "", "[basis]", *(f"{x} = 1" for x in names), "", "[action]"]
    lines += [f"g1.{x} = " + ", ".join("1" if i == j else coeffs[(i + j) % 5] if i < j else "0"
                                       for i in range(24)) for j, x in enumerate(names)]
    start = time.perf_counter()
    spec = parse_config("\n".join(lines) + "\n").spec
    assert time.perf_counter() - start < 1.0
    g = spec.group.generator(0)
    assert _compose(spec.action_matrix(g), spec.action_matrix(spec.group.inverse(g))) \
        == spec.action_matrix(spec.group.identity())

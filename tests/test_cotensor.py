from __future__ import annotations

import gc
import itertools
import random
import tracemalloc
import weakref
from functools import reduce

import pytest

from cofreehopf.config import parse_config
from cofreehopf.cotensor import (
    ChainWalk,
    CotensorElement,
    SmashElement,
    chain_lift,
    chain_lift_word,
    check_chain_condition,
    coinvariant_projection,
    coinvariant_projection_direct,
    coproduct,
    coproduct_pairs,
    flatten_coinvariant,
    from_smash,
    right_translate,
    smash_product,
    star,
    to_smash,
)
from cofreehopf.elements import Element, accumulate, pack_word
from cofreehopf.errors import StructuralError
from cofreehopf.grouphopf import AbelianGroup, GroupElement, YDSpec, braided_spec, diagonal_images
from cofreehopf.presets import build_uqg
from cofreehopf.qalg import quasi_shuffle
from cofreehopf.scalars import Scalar

from conftest import (CARTAN_A2, chain_word, hoffman_spec, letter_key, letters, packed_key,
                      reference_module_projection, words_up_to)
from test_qalg import _gaussian_binomial


def _keys_up_to(preset, max_degree, tags=None):
    spec = preset.spec
    g = spec.group
    tags = tags or [g.identity(), g.generator(0)]
    keys = [("", tag) for tag in tags]
    for length in range(1, max_degree + 1):
        for word in itertools.product(range(spec.dim), repeat=length):
            for tag in tags:
                keys.append(right_translate(spec, chain_lift_word(spec, word), tag))
    return keys


# -- chain condition -----------------------------------------------------------


def test_chain_lift_images_satisfy_chain_condition(clifford2, uqg_a2):
    for preset in (clifford2, uqg_a2):
        spec = preset.spec
        for word in itertools.product(range(spec.dim), repeat=3):
            key = chain_lift_word(spec, word)
            assert check_chain_condition(spec, [key, chain_word(spec, key)])
            assert key[1].is_identity()


def test_chain_condition_failure_at_first_cut(clifford2):
    spec = clifford2.spec
    e = spec.group.identity()
    # (v1, 1) then (v2, 1): the cut requires 1 = degree(v2) * 1 = eps
    word = ((0, e), (1, e))
    result = check_chain_condition(spec, {word: Scalar.one()})
    assert not result
    assert result.witness == (word, 1)
    with pytest.raises(StructuralError):
        CotensorElement.from_word(spec, word)


def test_single_letter_always_passes(clifford2):
    spec = clifford2.spec
    eps = spec.group.element([1])
    for v in range(spec.dim):
        assert check_chain_condition(spec, [((v, eps),)])


def test_chain_condition_matches_kernel_condition(clifford2, uqg_a2):
    # independent oracle: evaluate id (x) delta_L - delta_R (x) id on m (x) n
    for preset in (clifford2, uqg_a2):
        spec = preset.spec
        g = spec.group
        tags = [g.identity(), g.generator(0)]
        letters = [(v, t) for v in range(spec.dim) for t in tags]
        for m in letters[: spec.dim + 2]:
            for n in letters[: spec.dim + 2]:
                middle_left = g.multiply(spec.degrees[n[0]], n[1])
                middle_right = m[1]
                kernel_zero = middle_left == middle_right
                assert kernel_zero == bool(check_chain_condition(spec, [(m, n)]))


# -- the key contract ----------------------------------------------------------------


def test_a_key_is_one_pair_in_every_degree_and_in_both_views(clifford2, uqg_a2):
    # degree 0 included: the key of g is ("", g), read so from g at the
    # constructors, kept by to_smash and from_smash, and split by the
    # coproduct as the n + 1 deconcatenations of the word
    for preset in (clifford2, uqg_a2):
        spec, group = preset.spec, preset.spec.group
        tags = [group.identity(), group.generator(0), group.inverse(group.generator(0))]
        assert chain_lift_word(spec, ()) == ("", group.identity())
        c, half = Scalar.q_power(2, 4), Scalar.q_power(2, 2)
        for g in tags:
            for built in (CotensorElement(spec, {g: c}), CotensorElement(spec, {("", g): c}),
                          CotensorElement.from_word(spec, g).scale(c), SmashElement(spec, {g: c}),
                          CotensorElement(spec, {g: half, ("", g): half})):  # one key, summed
                assert built._terms == {("", g): c}
        keys = _keys_up_to(preset, 3, tags)
        x = CotensorElement(spec, {key: Scalar.rational(k + 1) for k, key in enumerate(keys)})
        s = to_smash(x)
        assert type(s) is SmashElement and list(s._terms.items()) == list(x._terms.items())
        back = from_smash(s)
        assert type(back) is CotensorElement and list(back._terms.items()) == list(x._terms.items())
        for key in keys:
            (word, g), chain = key, chain_word(spec, key)
            left = reduce(group.multiply, (spec.degrees[v] for v in letters(word)), g)
            assert coproduct_pairs(spec, key) == [
                ((word[:k], chain[k - 1][1] if k else left), (word[k:], g))
                for k in range(len(word) + 1)], key


# -- coproduct ---------------------------------------------------------------------


def test_coproduct_of_group_element_is_grouplike(clifford2):
    spec = clifford2.spec
    eps = spec.group.element([1])
    assert coproduct_pairs(spec, ("", eps)) == [(("", eps), ("", eps))]


def test_coproduct_of_degree_one_letter(clifford2):
    spec = clifford2.spec
    e = spec.group.identity()
    eps = spec.group.element([1])
    key = ("\0", e)  # v1 with trivial tag; left degree is eps
    pairs = coproduct_pairs(spec, key)
    assert pairs == [(("", eps), key), (key, ("", e))]


def test_coproduct_of_degree_two_word_has_three_terms(clifford2):
    spec = clifford2.spec
    e, eps = spec.group.identity(), spec.group.element([1])
    key = chain_lift_word(spec, (0, 1))
    pairs = coproduct_pairs(spec, key)
    assert len(pairs) == 3
    assert pairs[0][0] == ("", e)  # degree(v1) * degree(v2) * 1
    assert pairs[1] == (("\0", eps), ("\1", e))
    assert pairs[2][1] == ("", key[1]) == ("", e)


def test_component_accessors(clifford2):
    spec = clifford2.spec
    eps = spec.group.element([1])
    word1 = chain_lift_word(spec, (0,))
    word2 = chain_lift_word(spec, (0, 1))
    x = CotensorElement(spec, {eps: 2}) \
        + CotensorElement.from_word(spec, word1).scale(3) \
        + CotensorElement.from_word(spec, word2)
    assert {key: len(key[0]) for key in x.support()} == {("", eps): 0, word1: 1, word2: 2}


def test_chain_lifted_words_carry_their_degrees(clifford2, uqg_a2):
    # a chain-lifted word is right-coinvariant and its left degree is the
    # product of its letters' degrees; a right translate moves both by g
    for preset in (clifford2, uqg_a2):
        spec, group = preset.spec, preset.spec.group
        g = group.generator(0)
        for word in words_up_to(spec.dim, 3)[1:]:
            key = chain_lift_word(spec, word)
            total = reduce(group.multiply, (spec.degrees[v] for v in word))
            assert len(key[0]) == len(word)
            assert key[1] == group.identity()
            assert coproduct_pairs(spec, key)[0][0] == ("", total)  # the left degree
            moved = right_translate(spec, key, g)
            assert moved[1] == g
            assert coproduct_pairs(spec, moved)[0][0] == ("", group.multiply(total, g))
            assert check_chain_condition(spec, [chain_word(spec, moved)])


def test_degree_zero_keys_and_chain_words_stay_apart(clifford2):
    spec = clifford2.spec
    g = spec.group.element([1])
    word = chain_lift_word(spec, (0,))
    x = CotensorElement(spec, {g: 2, word: 3})
    assert list(x.terms()) == [(("", g), Scalar.rational(2)), (word, Scalar.rational(3))]
    assert [len(key[0]) for key, _ in x.terms()] == [0, 1]
    assert star(x, CotensorElement.unit(spec)) == x
    # the plain tuple of g's fields is no key, and not a second copy of g
    plain = tuple(g)
    with pytest.raises(StructuralError, match="not a cotensor key"):
        CotensorElement.from_word(spec, plain)
    y = CotensorElement(spec, {g: 2, plain: 5})
    assert len(y) == 2 and y != CotensorElement(spec, {g: 7})
    assert CotensorElement(spec, {plain: 1}) != CotensorElement(spec, {g: 1})


def test_coassociativity_and_counit_laws(clifford2, uqg_a2):
    for preset in (clifford2, uqg_a2):
        spec = preset.spec
        for key in _keys_up_to(preset, 2)[:30]:
            pairs = coproduct_pairs(spec, key)
            lhs: dict[tuple, int] = {}
            rhs: dict[tuple, int] = {}
            left_counit: dict[object, int] = {}
            right_counit: dict[object, int] = {}
            for a, b in pairs:
                for a1, a2 in coproduct_pairs(spec, a):
                    lhs[(a1, a2, b)] = lhs.get((a1, a2, b), 0) + 1
                for b1, b2 in coproduct_pairs(spec, b):
                    rhs[(a, b1, b2)] = rhs.get((a, b1, b2), 0) + 1
                if not a[0]:
                    left_counit[b] = left_counit.get(b, 0) + 1
                if not b[0]:
                    right_counit[a] = right_counit.get(a, 0) + 1
            assert lhs == rhs
            assert left_counit == {key: 1}
            assert right_counit == {key: 1}


# -- the star product ------------------------------------------------------------


def test_star_of_group_elements_is_group_product(uqg_a2):
    spec = uqg_a2.spec
    g = spec.group
    k1, k2 = g.generator(0), g.generator(1)
    out = star(CotensorElement(spec, {k1: 1}),
               CotensorElement(spec, {g.multiply(k2, k2): 1}))
    assert out == CotensorElement(spec, {g.element([1, 2]): 1})


def test_star_with_group_on_the_left_is_the_left_action(clifford2):
    spec = clifford2.spec
    eps = spec.group.element([1])
    e = spec.group.identity()
    m = CotensorElement.from_word(spec, ("\0", e))
    out = star(CotensorElement(spec, {eps: 1}), m)
    assert out == CotensorElement.from_word(spec, ("\0", eps)).scale(-1)


def test_star_with_group_on_the_right_is_the_right_action(clifford2):
    spec = clifford2.spec
    eps = spec.group.element([1])
    word = chain_lift_word(spec, (0, 1))
    out = star(CotensorElement.from_word(spec, word),
               CotensorElement(spec, {eps: 1}))
    assert out == CotensorElement.from_word(
        spec, right_translate(spec, word, eps))


def test_star_clifford_anticommutator(clifford2):
    spec = clifford2.spec
    v1 = CotensorElement.from_word(spec, chain_lift_word(spec, (0,)))
    v2 = CotensorElement.from_word(spec, chain_lift_word(spec, (1,)))
    xi12 = CotensorElement.from_word(spec, chain_lift_word(spec, (3,)))
    assert star(v1, v2) + star(v2, v1) == xi12


def test_star_outputs_satisfy_chain_condition(clifford2, uqg_a2):
    for preset in (clifford2, uqg_a2):
        spec = preset.spec
        keys = _keys_up_to(preset, 2)[:14]
        for kx in keys:
            for ky in keys[:7]:
                out = star(CotensorElement(spec, {kx: Scalar.one()}),
                           CotensorElement(spec, {ky: Scalar.one()}))
                assert check_chain_condition(spec, out)


def test_star_associativity_small_degrees(clifford2, uqg_a2):
    for preset in (clifford2, uqg_a2):
        spec = preset.spec
        keys = _keys_up_to(preset, 2)
        sample = keys[1:4] + keys[-3:]
        for ka, kb, kc in itertools.islice(itertools.product(sample, repeat=3), 40):
            a = CotensorElement(spec, {ka: Scalar.one()})
            b = CotensorElement(spec, {kb: Scalar.one()})
            c = CotensorElement(spec, {kc: Scalar.one()})
            assert star(star(a, b), c) == star(a, star(b, c))


def test_star_bialgebra_compatibility(clifford2):
    spec = clifford2.spec
    keys = _keys_up_to(clifford2, 1) + [chain_lift_word(spec, (0, 1))]
    for ka, kb in itertools.islice(itertools.product(keys, repeat=2), 30):
        a = CotensorElement(spec, {ka: Scalar.one()})
        b = CotensorElement(spec, {kb: Scalar.one()})
        lhs = coproduct(star(a, b))
        rhs: dict[tuple, Scalar] = {}
        for a1, a2 in coproduct_pairs(spec, ka):
            for b1, b2 in coproduct_pairs(spec, kb):
                left = star(CotensorElement(spec, {a1: Scalar.one()}),
                            CotensorElement(spec, {b1: Scalar.one()}))
                right = star(CotensorElement(spec, {a2: Scalar.one()}),
                             CotensorElement(spec, {b2: Scalar.one()}))
                for kl, cl in left._terms.items():
                    for kr, cr in right._terms.items():
                        key = (kl, kr)
                        s = rhs.get(key, Scalar.zero()) + cl * cr
                        if s.is_zero():
                            rhs.pop(key, None)
                        else:
                            rhs[key] = s
        assert lhs == Element(rhs, lhs.alphabet)


def test_powers_of_one_letter_star_by_gaussian_binomials():
    # Rosso's quantum shuffle (Invent. Math. 133, 1998) on the cotensor side:
    # one letter a of degree K{1} acted on by q^c, and no products, so
    # sigma(a, a) = q^c a@a and lift(a^n) * lift(a^m) = [n+m choose n]_{q^c} lift(a^(n+m))
    group = AbelianGroup(1)
    for c in (-2, -1, 0, 1, 3):
        t = Scalar.q_power(c)
        spec = YDSpec(group, ("a",), (group.generator(0),), (diagonal_images([t]),))

        def power(n, coeff=1):
            return chain_lift(spec, Element.from_word((0,) * n, coeff, spec))

        for n, m in itertools.product(range(6), repeat=2):
            assert star(power(n), power(m)) \
                == power(n + m, _gaussian_binomial(n + m, n, t)), (c, n, m)


def test_star_with_group_acts_diagonally_on_higher_degrees(clifford2, uqg_a2):
    # the left action of a group-like on a degree-2 chain word multiplies
    # through both pairs; the product recovers this without a dedicated
    # left-action code path
    for preset in (clifford2, uqg_a2):
        spec = preset.spec
        g = spec.group
        h = g.generator(0)
        for word in itertools.islice(itertools.product(range(spec.dim), repeat=2), 8):
            key = chain_lift_word(spec, word)
            got = star(CotensorElement(spec, {h: 1}),
                       CotensorElement.from_word(spec, key))
            combos = [((), Scalar.one())]
            for v, t in chain_word(spec, key):
                img = spec.act_letter(h, v)
                combos = [
                    (w + ((ord(i), g.multiply(h, t)),), c * c2)
                    for w, c in combos
                    for i, c2 in img._terms.items()
                ]
            expected: dict = {}
            for w, c in combos:
                expected[packed_key(w)] = expected.get(packed_key(w), Scalar.zero()) + c
            assert got == CotensorElement(spec, expected)


# -- coinvariant projection --------------------------------------------------------


def test_projection_of_group_element_is_unit(clifford2):
    spec = clifford2.spec
    eps = spec.group.element([1])
    out = coinvariant_projection(CotensorElement(spec, {eps: 1}))
    assert out == CotensorElement.unit(spec)


def test_projection_strips_the_trailing_group_part(uqg_a2):
    spec = uqg_a2.spec
    k1 = spec.group.generator(0)
    key = right_translate(spec, chain_lift_word(spec, (0,)), k1)
    out = coinvariant_projection(CotensorElement.from_word(spec, key))
    assert out == CotensorElement.from_word(spec, chain_lift_word(spec, (0,)))


def test_projection_idempotent_and_matches_direct_form(clifford2, uqg_a2):
    for preset in (clifford2, uqg_a2):
        spec = preset.spec
        for key in _keys_up_to(preset, 2)[:20]:
            x = CotensorElement(spec, {key: Scalar.q_power(1)})
            once = coinvariant_projection(x)
            assert once == coinvariant_projection_direct(x)
            assert coinvariant_projection(once) == once


# -- flatten / chain lift -----------------------------------------------------------


def test_flatten_single_letter(clifford2):
    spec = clifford2.spec
    e = spec.group.identity()
    x = CotensorElement.from_word(spec, ("\0", e))
    assert flatten_coinvariant(x) == Element.from_word((0,), alphabet=spec)


def test_flatten_requires_coinvariance(clifford2):
    spec = clifford2.spec
    eps = spec.group.element([1])
    x = CotensorElement.from_word(spec, ("\0", eps))
    with pytest.raises(StructuralError):
        flatten_coinvariant(x)
    with pytest.raises(StructuralError):
        flatten_coinvariant(CotensorElement(spec, {eps: 1}))


def test_round_trips_on_words_up_to_degree_three(clifford2, uqg_a2):
    for preset in (clifford2, uqg_a2):
        spec = preset.spec
        for length in range(4):
            for word in itertools.islice(
                    itertools.product(range(spec.dim), repeat=length), 30):
                x = Element.from_word(word, alphabet=spec)
                assert flatten_coinvariant(chain_lift(spec, x)) == x
        for key in _keys_up_to(preset, 3, tags=[spec.group.identity()])[:40]:
            x = CotensorElement(spec, {key: Scalar.one()})
            assert chain_lift(spec, flatten_coinvariant(x)) == x


def test_chain_lift_two_letters(clifford2):
    spec = clifford2.spec
    e = spec.group.identity()
    eps = spec.group.element([1])
    # second letter has degree eps, so the first group part is eps
    key = chain_lift_word(spec, (0, 1))
    assert key == ("\0\1", e)
    assert chain_word(spec, key) == ((0, eps), (1, e))


# -- smash product -----------------------------------------------------------------


def test_smash_with_unit_word_legs(clifford2):
    spec = clifford2.spec
    eps = spec.group.element([1])
    y = SmashElement.of(spec, (1,))
    left = smash_product(SmashElement.of(spec, (), eps), y)
    assert left == SmashElement.of(spec, (1,), eps).scale(-1)
    x = SmashElement.of(spec, (0, 1))
    right = smash_product(x, SmashElement.of(spec, (), eps))
    assert right == SmashElement.of(spec, (0, 1), eps)


def test_smash_clifford_expansion(clifford2):
    spec = clifford2.spec
    out = smash_product(SmashElement.of(spec, (0,)), SmashElement.of(spec, (1,)))
    e = spec.group.identity()
    expected = SmashElement.of(spec, (0, 1)) - SmashElement.of(spec, (1, 0)) \
        + SmashElement.of(spec, (3,))
    assert out == expected
    assert expected._terms[("\0\1", e)] == Scalar.one()


def _smash_by_definition(x, y):
    """Sum of c d (u qsh g.w) # gg' over the term pairs, from quasi_shuffle and act_word."""
    spec = x.spec
    bspec = braided_spec(spec)
    out = SmashElement.zero(spec)
    for (u, g), c in x._terms.items():
        for (w, g2), d in y._terms.items():
            word = quasi_shuffle(bspec, Element.from_word(u, alphabet=spec), spec.act_word(g, w))
            tag = spec.group.multiply(g, g2)
            out = out + SmashElement(spec, {(v, tag): c * d * e for v, e in word._terms.items()})
    return out


def _random_smash(spec, rnd, tags, n_terms):
    return SmashElement(spec, {
        (pack_word([rnd.randrange(spec.dim) for _ in range(rnd.randrange(4))]), rnd.choice(tags)):
            Scalar.q_power(rnd.randrange(-2, 3), rnd.choice([1, -1, 2]))
        for _ in range(n_terms)})


def test_smash_product_of_multi_term_elements(clifford2, uqg_a2):
    rnd = random.Random(14)
    spec = clifford2.spec
    v1, v2 = SmashElement.of(spec, (0,)), SmashElement.of(spec, (1,))
    # v1 v2 + v2 v1 = xi12: the two-letter words of the cross terms cancel
    cancelling = (v1 + v2, v1 + v2)
    assert smash_product(*cancelling) == smash_product(v1, v1) + smash_product(v2, v2) \
        + SmashElement.of(spec, (3,))
    pairs = [cancelling]
    for preset in (clifford2, uqg_a2):
        spec = preset.spec
        group = spec.group
        tags = [group.identity()] + [group.generator(k) for k in range(group.n_generators)]
        tags.append(group.inverse(tags[-1]))
        pairs.extend((_random_smash(spec, rnd, tags, 4), _random_smash(spec, rnd, tags, 3))
                     for _ in range(4))
    for x, y in pairs:
        assert len(x) > 1 and len(y) > 1
        out = smash_product(x, y)
        termwise = SmashElement.zero(x.spec)
        for k, c in x._terms.items():
            for l, d in y._terms.items():
                termwise = termwise + smash_product(SmashElement(x.spec, {k: c}),
                                                    SmashElement(x.spec, {l: d}))
        assert out == termwise == _smash_by_definition(x, y)


def test_to_smash_values(clifford2):
    spec = clifford2.spec
    eps = spec.group.element([1])
    assert to_smash(CotensorElement(spec, {eps: 1})) \
        == SmashElement.of(spec, (), eps)
    key = right_translate(spec, chain_lift_word(spec, (0, 1)), eps)
    assert to_smash(CotensorElement.from_word(spec, key)) \
        == SmashElement.of(spec, (0, 1), eps)


def test_the_letters_and_right_degree_of_a_key_fix_its_chain_word(clifford2):
    # v1 v2 with right degree 1 once had a second key off the chain,
    # ((0, 1), (1, 1)), which smash and flatten merged with the chain word
    # ((0, eps), (1, 1)); written letter by letter neither is a key now, and
    # the one key of those letters and right degree maps to one term
    spec = clifford2.spec
    e, eps = spec.group.identity(), spec.group.element([1])
    for written_out in (((0, e), (1, e)), ((0, eps), (1, e))):
        with pytest.raises(StructuralError, match="not a cotensor key"):
            CotensorElement.from_word(spec, written_out)
    x = CotensorElement.from_word(spec, ("\0\1", e))
    assert chain_word(spec, ("\0\1", e)) == ((0, eps), (1, e))
    assert to_smash(x) == SmashElement.of(spec, (0, 1), e)
    assert flatten_coinvariant(x) == Element.from_word((0, 1), alphabet=spec)
    assert from_smash(to_smash(x)) == x


@pytest.mark.parametrize("name", ["clifford2", "uqg_a2", "torsion"])
def test_the_walk_orders_keys_and_pairs_as_their_chain_words(name, request):
    # ChainWalk.order reads the chain words' order off the packed keys
    spec = parse_config("[group]\ntorsion = 2\n\n[basis]\nu = 1\nv = 1\n\n[action]\n"
                        "g1 = -1, -1\n").spec if name == "torsion" \
        else request.getfixturevalue(name).spec
    group = spec.group
    tags = [group.element(t) for t in itertools.product((-1, 0, 1), repeat=group.n_generators)]
    r = random.Random(name)

    def key():
        word = tuple(r.randrange(spec.dim) for _ in range(r.randint(0, 4)))
        return right_translate(spec, chain_lift_word(spec, word), r.choice(tags))

    def written_out(k):
        return chain_word(spec, k) if k[0] else k[1]

    keys = list(dict.fromkeys(key() for _ in range(80)))
    pairs = list(dict.fromkeys((key(), key()) for _ in range(80)))
    for sample, reference in ((keys, lambda k: letter_key(written_out(k))),
                              (pairs, lambda p: letter_key(tuple(map(written_out, p))))):
        order = ChainWalk(spec).order
        assert sorted(sample, key=order) == sorted(sample, key=reference)
        for a, b in itertools.combinations(sample, 2):
            assert (order(a) < order(b)) == (reference(a) < reference(b)), (a, b)


def _to_smash_through_the_coproduct(x: CotensorElement) -> SmashElement:
    """x -> sum of P(x1) # pi(x2): pi keeps the second legs in the group
    algebra, P projects the first onto the right coinvariants, flattened."""
    spec = x.spec
    out = SmashElement.zero(spec)
    for key, c in x.terms():
        for k1, k2 in coproduct_pairs(spec, key):
            if not k2[0]:
                leg = flatten_coinvariant(coinvariant_projection(CotensorElement(spec, {k1: c})))
                out = out + leg.relabel(lambda word: (word, k2[1]), cls=SmashElement,
                                        alphabet=spec)
    return out


def test_to_smash_is_the_coproduct_then_the_projection(clifford2, uqg_a2):
    for preset in (clifford2, uqg_a2):
        spec = preset.spec
        g = spec.group
        keys = _keys_up_to(preset, 3, [g.identity()]
                           + [g.generator(k) for k in range(g.n_generators)])
        for key in keys:
            x = CotensorElement(spec, {key: Scalar.q_power(1)})
            assert to_smash(x) == _to_smash_through_the_coproduct(x), key
        x = CotensorElement(spec, {key: Scalar.rational(k + 1) for k, key in enumerate(keys)})
        assert to_smash(x) == _to_smash_through_the_coproduct(x)
        assert "star" not in spec._cache  # the oracle multiplied through star; nothing kept


def test_from_smash_values(clifford2):
    spec = clifford2.spec
    eps = spec.group.element([1])
    assert from_smash(SmashElement.of(spec, (), eps)) \
        == CotensorElement(spec, {eps: 1})
    assert from_smash(SmashElement.of(spec, (0,))) \
        == CotensorElement.from_word(spec, chain_lift_word(spec, (0,)))


def test_smash_round_trips(clifford2, uqg_a2):
    for preset in (clifford2, uqg_a2):
        spec = preset.spec
        g = spec.group
        tags = [g.identity(), g.generator(0)]
        for length in range(3):
            for word in itertools.islice(
                    itertools.product(range(spec.dim), repeat=length), 12):
                for tag in tags:
                    s = SmashElement.of(spec, word, tag).scale(Scalar.q_power(1))
                    assert to_smash(from_smash(s)) == s
        for key in _keys_up_to(preset, 2)[:20]:
            x = CotensorElement(spec, {key: Scalar.one()})
            assert from_smash(to_smash(x)) == x


def test_cross_path_product_equality(clifford2, uqg_a2):
    # multiplying then splitting equals splitting then smash-multiplying
    for preset in (clifford2, uqg_a2):
        spec = preset.spec
        keys = _keys_up_to(preset, 2)[:12]
        for kx in keys:
            for ky in keys[:6]:
                x = CotensorElement(spec, {kx: Scalar.one()})
                y = CotensorElement(spec, {ky: Scalar.one()})
                assert to_smash(star(x, y)) == smash_product(to_smash(x), to_smash(y))


def _random_key(r: random.Random, spec, degree: int):
    """A chain word of the given degree with a random tag."""
    g = spec.group
    tag = g.element([r.randint(-1, 1) for _ in range(g.n_generators)])
    word = tuple(r.randrange(spec.dim) for _ in range(degree))
    return right_translate(spec, chain_lift_word(spec, word), tag)


def _assert_star_matches_smash_route(spec, kx, ky):
    x = CotensorElement(spec, {kx: Scalar.one()})
    y = CotensorElement(spec, {ky: Scalar.one()})
    assert to_smash(star(x, y)) == smash_product(to_smash(x), to_smash(y)), (kx, ky)


def test_star_matches_the_smash_route_on_random_pairs_up_to_6_plus_6(clifford2, uqg_a2):
    for seed, preset in enumerate((clifford2, uqg_a2)):
        r = random.Random(seed)
        degrees = [(6, 6)] + [(r.randint(0, 6), r.randint(0, 6)) for _ in range(24)]
        for n, m in degrees:
            _assert_star_matches_smash_route(
                preset.spec, _random_key(r, preset.spec, n), _random_key(r, preset.spec, m))


def test_star_matches_the_smash_route_at_5_plus_5(clifford2, clifford3, uqg_a1, uqg_a2):
    for seed, preset in enumerate((clifford2, clifford3, uqg_a1, uqg_a2)):
        r = random.Random(seed)
        _assert_star_matches_smash_route(
            preset.spec, _random_key(r, preset.spec, 5), _random_key(r, preset.spec, 5))


def test_star_matches_the_smash_route_on_a_long_times_short_pair(uqg_a2):
    r = random.Random(40)
    _assert_star_matches_smash_route(
        uqg_a2.spec, _random_key(r, uqg_a2.spec, 40), _random_key(r, uqg_a2.spec, 1))


# -- coinvariant coproduct -----------------------------------------------------------


def _coinvariant_coproduct(x: CotensorElement) -> Element:
    """The coproduct with both legs pushed into the right coinvariants."""
    spec = x.spec

    def project(key):
        return right_translate(spec, key, spec.group.inverse(key[1]))

    return x.rekey(lambda key: [(project(k1), project(k2))
                                for k1, k2 in coproduct_pairs(spec, key)], cls=Element)


def test_coinvariant_coproduct_of_letter(clifford2):
    spec = clifford2.spec
    e = spec.group.identity()
    key = ("\0", e)
    out = _coinvariant_coproduct(CotensorElement.from_word(spec, key))
    assert out == Element({(("", e), key): 1, (key, ("", e)): 1}, out.alphabet)


def test_coinvariant_coproduct_of_scalar(clifford2):
    spec = clifford2.spec
    eps = spec.group.element([1])
    out = _coinvariant_coproduct(CotensorElement(spec, {eps: 1}))
    e = spec.group.identity()
    assert out == Element({(("", e), ("", e)): 1}, out.alphabet)


def test_coinvariant_coproduct_flattens_to_deconcatenation(clifford2, uqg_a2):
    # both coproduct legs pushed into the coinvariants, then flattened
    from cofreehopf.qalg import deconcat
    for preset in (clifford2, uqg_a2):
        spec = preset.spec
        for word in itertools.islice(
                itertools.product(range(spec.dim), repeat=2), 12):
            x = CotensorElement.from_word(spec, chain_lift_word(spec, word))
            pairs = _coinvariant_coproduct(x)
            flattened: dict[tuple, Scalar] = {}
            for (k1, k2), c in pairs._terms.items():
                w1, w2 = letters(k1[0]), letters(k2[0])
                s = flattened.get((w1, w2), Scalar.zero()) + c
                flattened[(w1, w2)] = s
            flattened = {k: v for k, v in flattened.items() if not v.is_zero()}
            assert flattened == {(letters(u), letters(v)): c for (u, v), c in deconcat(
                Element.from_word(word, alphabet=spec))._terms.items()}


def test_smash_route_runs_without_the_prefix_table(clifford2, uqg_a2, monkeypatch):
    from cofreehopf import cotensor
    cases = []
    for preset in (clifford2, uqg_a2):
        spec = preset.spec
        g = spec.group.generator(0)
        for u, v in itertools.product([(0,), (0, 1), (1, 2, 0)], repeat=2):
            x = CotensorElement.from_word(spec, chain_lift_word(spec, u))
            y = CotensorElement.from_word(
                spec, right_translate(spec, chain_lift_word(spec, v), g))
            cases.append((x, y, star(x, y)))

    def refuse(*args):
        raise AssertionError("the smash route reached the prefix table")

    monkeypatch.setattr(cotensor, "_prefix_table", refuse)
    for x, y, expected in cases:
        assert from_smash(smash_product(to_smash(x), to_smash(y))) == expected


@pytest.mark.parametrize("action, mult, x, y, witness", [
    # a b -> b breaks the degree: the data of CI's degree.cfg, which check alg refuses
    ("q, q^-1", "a b -> b", (1, 0), (0, 1), "b.K{3}[]a.K{2}[]b.K{0} breaks at cut 2"),
    # b b -> a breaks it in cell (2, 2) on its diagonal source, cell (1, 1), whose
    # first word is the merge a a -> a: each cell appends its diagonal first
    ("1, 1", "a a -> a\nb b -> a", (0, 1), (0, 1), "a.K{2}[]a.K{0} breaks at cut 1"),
], ids=["degree-cfg", "diagonal-first"])
def test_star_raises_when_the_product_leaves_the_chain_words(action, mult, x, y, witness):
    spec = parse_config("[group]\nrank = 1\n\n[basis]\na = 1\nb = 1\n\n[action]\n"
                        f"g1 = {action}\n\n[mult]\n{mult}\n").spec
    x, y = (CotensorElement.from_word(spec, chain_lift_word(spec, word)) for word in [x, y])
    with pytest.raises(StructuralError) as info:
        star(x, y)
    assert str(info.value) == "product left the cotensor subspace: chain word " + witness


def test_star_checks_the_chain_in_the_table_not_on_its_output(monkeypatch):
    from cofreehopf import cotensor

    def refuse(*args):
        raise AssertionError("star re-checked its whole output")

    monkeypatch.setattr(cotensor, "check_chain_condition", refuse)
    spec = _two_letter_spec(1, -1, {})
    x = CotensorElement(spec, {chain_lift_word(spec, (0, 1)): Scalar.one()})
    assert star(x, x)


def _two_letter_spec(e1, e2, mult) -> YDSpec:
    """Letters a, b of degree K{1}, acted on by q^e1 and q^e2."""
    group = AbelianGroup(1)
    k = group.generator(0)
    return YDSpec(group, ("a", "b"), (k, k),
                  (diagonal_images([Scalar.q_power(e1), Scalar.q_power(e2)]),), mult)


def _plain_series(spec, kx, ky):
    """The prefix-table recursion of the module docstring written out with
    no memo and no guard, on chain words written letter by letter: what the
    product builds before any check.  Its words become keys only when every
    one of them is on the chain."""
    def prefixes(key):  # the left degree ("", g_0), then the chain word's prefixes
        chain = chain_word(spec, key)
        return [coproduct_pairs(spec, key)[0][0]] + [chain[:i] for i in range(1, len(chain) + 1)]

    def key(prefix):
        return prefix if type(prefix[0]) is str else packed_key(prefix)

    def last(prefix):
        return key(prefix if type(prefix[0]) is str else prefix[-1:])

    def rd(prefix):
        return "", key(prefix)[1]

    xs, ys = prefixes(kx), prefixes(ky)
    table = {}
    for (i, a), (j, b) in itertools.product(enumerate(xs), enumerate(ys)):
        sources = [({(): Scalar.one()}, key(a), key(b))]
        if j:
            sources.append((table[i, j - 1], rd(a), last(b)))
        if i:
            sources.append((table[i - 1, j], last(a), rd(b)))
        if i and j:
            sources.append((table[i - 1, j - 1], last(a), last(b)))
        cell = {}
        for words, x, y in sources:
            for (v, g), d in reference_module_projection(spec, x, y).items():
                for word, c in words.items():
                    accumulate(cell, word + ((ord(v), g),), c * d)
        table[i, j] = cell
    series = table[len(xs) - 1, len(ys) - 1]
    if not check_chain_condition(spec, series):
        return series
    return {packed_key(word): c for word, c in series.items()}


def test_star_raises_exactly_where_the_series_leaves_the_chain_words():
    # a b -> b breaks the degree, so some products build words off the chain
    spec = _two_letter_spec(1, -1, {(0, 1): Element.from_word((1,))})
    tags = [spec.group.identity(), spec.group.generator(0)]
    keys = [right_translate(spec, chain_lift_word(spec, word), tag)
            for n in range(6) for word in itertools.product(range(2), repeat=n) for tag in tags]
    raised = kept = 0
    for kx, ky in itertools.product(keys, repeat=2):
        if not 0 < len(kx[0]) + len(ky[0]) <= 5:
            continue
        series = _plain_series(spec, kx, ky)
        try:
            out = star(CotensorElement(spec, {kx: Scalar.one()}),
                       CotensorElement(spec, {ky: Scalar.one()}))
        except StructuralError as exc:
            assert "product left the cotensor subspace: chain word " in str(exc)
            assert not check_chain_condition(spec, series)
            raised += 1
        else:
            assert check_chain_condition(spec, [chain_word(spec, key) for key in out._terms])
            assert out._terms == series
            kept += 1
    assert raised and kept


def test_a_fresh_spec_has_no_projection_memo_until_a_product():
    spec = _two_letter_spec(1, -1, {})
    assert "pi1" not in spec._cache
    v = CotensorElement.from_word(spec, chain_lift_word(spec, (0,)))
    star(v, v)
    assert spec._cache["pi1"]


def test_projection_memo_belongs_to_its_spec():
    # same letters and degrees, so the same key pairs; only the action differs
    first, second = _two_letter_spec(1, -1, {}), _two_letter_spec(2, 1, {})
    words = [(0,), (1,), (0, 1), (1, 1, 0)]
    for u, v in itertools.product(words, repeat=2):
        for spec in (first, second):
            x = CotensorElement.from_word(spec, chain_lift_word(spec, u))
            y = CotensorElement.from_word(spec, right_translate(
                spec, chain_lift_word(spec, v), spec.group.generator(0)))
            assert star(x, y) == from_smash(smash_product(to_smash(x), to_smash(y)))
    assert first._cache["pi1"] is not second._cache["pi1"]
    for spec in (first, second):  # the groups are equal; each memo holds its own elements
        for (v, g, w), (terms, broken) in spec._cache["pi1"].items():
            assert v in (None, "\0", "\1") and w in ("\0", "\1") and broken is None
            assert g is spec.group.element(g.exponents())
            assert all(type(u) is str and (d is None or isinstance(d, Scalar)) for u, d in terms)


@pytest.mark.parametrize("long_first", [True, False], ids=["300x1", "1x300"])
def test_a_long_word_times_one_letter_matches_the_smash_route(clifford2, uqg_a2, long_first):
    r = random.Random(300)
    for preset in (clifford2, uqg_a2):
        spec = preset.spec
        long = chain_lift_word(spec, tuple(r.randrange(spec.dim) for _ in range(300)))
        short = right_translate(spec, chain_lift_word(spec, (r.randrange(spec.dim),)),
                                spec.group.generator(0))
        x, y = (CotensorElement.from_word(spec, key)
                for key in ((long, short) if long_first else (short, long)))
        assert to_smash(star(x, y)) == smash_product(to_smash(x), to_smash(y))


def test_one_letter_times_a_long_word_holds_one_row_of_the_prefix_table(clifford2, uqg_a2):
    # 1 x 600: the last row's 601 cells hold Theta(n^3) letters between them;
    # the table keeps none of them, only the row above (one word per cell)
    r = random.Random(600)
    for preset in (clifford2, uqg_a2):
        spec = preset.spec
        x = CotensorElement.from_word(spec, right_translate(
            spec, chain_lift_word(spec, (r.randrange(spec.dim),)), spec.group.generator(0)))
        y = CotensorElement.from_word(
            spec, chain_lift_word(spec, tuple(r.randrange(spec.dim) for _ in range(600))))
        tracemalloc.start()
        try:
            out = star(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out) > 400 and max(len(word) for word, _ in out._terms) == 601
        assert peak < 10_000_000, (preset, peak)


def test_a_long_word_of_changing_degree_times_one_letter_stays_small():
    # (E1 E2)^200 x F1 on a fresh uqg_a2: each of the 401 prefixes has its own
    # right degree, so the product reads the letter images of 401 group elements
    spec = build_uqg(CARTAN_A2).spec
    e1, e2, f1 = map(spec.letter, ("E1", "E2", "F1"))
    x = CotensorElement.from_word(spec, chain_lift_word(spec, (e1, e2) * 200))
    y = CotensorElement.from_word(spec, chain_lift_word(spec, (f1,)))
    tracemalloc.start()
    try:
        out = star(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out) == 601 and max(len(word) for word, _ in out._terms) == 401
    assert peak < 10_000_000, peak


def test_from_word_refuses_anything_but_a_basis_key(clifford2):
    spec = clifford2.spec
    e, eps = spec.group.identity(), spec.group.element([1])
    for key in (("", e), ("", eps), ("\0", e), ("\0\1" * 3, eps), (chr(spec.dim - 1), e)):
        assert CotensorElement.from_word(spec, key)._terms == {key: Scalar.one()}
    assert CotensorElement.from_word(spec, eps)._terms == {("", eps): Scalar.one()}
    refused = [((0, e), (1, e)),  # a chain word written letter by letter, off the chain
               ((0, eps), (1, e)),  # and on it
               ((0, e),), (chr(spec.dim), e), ("\0", tuple(e)), ("", tuple(e)), ("\0", e, e),
               ["\0", e], (b"\0", e), "\0", tuple(e), None]
    for key in refused:
        with pytest.raises(StructuralError) as info:
            CotensorElement.from_word(spec, key)
        assert str(info.value) == f"not a cotensor key: {key!r}"


def test_a_spec_is_freed_with_its_memos():
    # hand-built specs: the presets are cached on purpose
    bspec = hoffman_spec(3)
    word = Element.from_word((0, 1), alphabet=bspec.alphabet)
    quasi_shuffle(bspec, word, word)
    spec = _two_letter_spec(1, -1, {})
    x = SmashElement.of(spec, (0, 1), spec.group.generator(0))
    smash_product(x, x)
    y = CotensorElement.from_word(spec, chain_lift_word(spec, (0, 1)))
    star(y, y)
    refs = [weakref.ref(bspec), weakref.ref(spec)]
    del bspec, spec, word, x, y  # a word holds its spec as its alphabet
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def _by_hand(key):
    """The same basis key with every group element rebuilt outside its group."""
    def rebuild(g):
        return GroupElement(tuple(list(g.free)), tuple(list(g.torsion)))
    return key[0], rebuild(key[1])


def test_star_on_hand_built_group_elements_matches_the_groups_own(uqg_a2):
    spec = uqg_a2.spec
    r = random.Random(25)
    tags = [spec.group.identity(), spec.group.generator(1), spec.group.element([1, -1])]
    keys = [right_translate(spec, chain_lift_word(spec, word), r.choice(tags))
            for word in [(0,), (1, 2), (3, 0, 1), (2, 2, 3)]] + [("", tag) for tag in tags[1:]]
    for kx, ky in itertools.product(keys, repeat=2):
        hx, hy = _by_hand(kx), _by_hand(ky)
        assert hx == kx
        assert check_chain_condition(spec, [hx, hy])
        canonical = star(CotensorElement(spec, {kx: Scalar.one()}),
                         CotensorElement(spec, {ky: Scalar.one()}))
        built = star(CotensorElement.from_word(spec, hx), CotensorElement(spec, {hy: Scalar.one()}))
        assert list(built._terms.items()) == list(canonical._terms.items())


def test_the_chain_guard_compares_hand_built_group_elements_by_value():
    """The guard meets hand-built group elements in the keys and in the
    degrees of a spec: it still raises exactly where the series leaves the
    chain words."""
    # a b -> b breaks the degree: a times a@b and b@a times a@b leave the chain words
    mult = {(0, 1): Element.from_word((1,))}
    spec = _two_letter_spec(1, -1, mult)
    by_hand = YDSpec(spec.group, spec.names, tuple(GroupElement((1,), ()) for _ in "ab"),
                     spec.action, mult)
    assert by_hand.degrees[0] is not spec.group.generator(0)

    def products(spec):
        word = {u: chain_lift_word(spec, u) for u in [(0,), (1,), (0, 1), (1, 0)]}
        out = []
        for u, v in itertools.product(word, repeat=2):
            try:
                out.append(list(star(CotensorElement(spec, {_by_hand(word[u]): Scalar.one()}),
                                     CotensorElement(spec, {_by_hand(word[v]): Scalar.one()})
                                     )._terms.items()))
            except StructuralError as exc:
                out.append(str(exc))
        return out

    canonical = products(spec)
    assert "product left the cotensor subspace: chain word a.K{2}[]b.K{0} breaks at cut 1" \
        in canonical
    assert "product left the cotensor subspace: chain word b.K{3}[]a.K{2}[]b.K{0} " \
        "breaks at cut 2" in canonical
    assert products(by_hand) == canonical
    broken = ((0, GroupElement((0,), ())), (1, GroupElement((0,), ())))
    assert check_chain_condition(spec, [broken]).witness == (broken, 1)

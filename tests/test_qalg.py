from __future__ import annotations

import gc
import itertools
import math
import random
import tracemalloc
import weakref
from fractions import Fraction
from functools import reduce

import pytest

from cofreehopf import qalg
from cofreehopf.braid import BraidingTable, block_braiding, flip_braiding
from cofreehopf.checks import fail
from cofreehopf.config import ConfigDocument, emit_config, parse_config
from cofreehopf.cotensor import (SmashElement, chain_lift, flatten_coinvariant, smash_product,
                                 star)
from cofreehopf.elements import Element, pack_word
from cofreehopf.errors import StructuralError
from cofreehopf.grouphopf import YDSpec, _compose, _inverse, braided_spec
from cofreehopf.presets import build_clifford
from cofreehopf.qalg import (
    check_braided_algebra,
    check_quasi_shuffle_bialgebra,
    crossing,
    deconcat,
    quasi_shuffle,
    quasi_shuffle_general_clause,
)
from cofreehopf.rotabaxter import diamond_product
from cofreehopf.scalars import Scalar

from conftest import diagonal_braiding, given_spec, hoffman_spec, letters, words_up_to


def _word(spec, *letters, coeff=1):
    return Element.from_word(tuple(letters), coeff, spec.alphabet)


# -- braided algebra checker ---------------------------------------------------


def test_flip_with_commutative_mult_passes(hoffman4):
    assert check_braided_algebra(hoffman4)


def test_clifford_and_uqg_specs_pass(clifford2, uqg_a2):
    assert check_braided_algebra(braided_spec(clifford2.spec))
    assert check_braided_algebra(braided_spec(uqg_a2.spec))


def test_corrupted_braiding_entry_is_caught():
    mult = {(0, 0): Element.from_word((1,))}
    entries = dict(flip_braiding(2).entries)
    entries[(1, 0)] = Element.from_word((0, 1), 2)
    spec = given_spec(BraidingTable(2, entries), mult)
    result = check_braided_algebra(spec)
    assert not result
    assert result.law.startswith("braided-compatibility")


def test_nonassociative_mult_is_caught():
    # x0 * x0 = x1 and x0 * x1 = x0 break associativity on (x0, x0, x0)
    mult = {(0, 0): Element.from_word((1,)), (0, 1): Element.from_word((0,))}
    spec = given_spec(flip_braiding(2), mult)
    result = check_braided_algebra(spec)
    assert not result
    assert result.law == "associativity"



def _unit_last(mult: dict, scaled=None) -> YDSpec:
    """Letters a = 0 and a declared unit u = 1 under the flip, with the
    products ``mult`` (pair -> letter) and the ``scaled`` braiding entry doubled."""
    entries = dict(flip_braiding(2).entries)
    if scaled is not None:
        entries[scaled] = entries[scaled].scale(2)
    return given_spec(BraidingTable(2, entries), {
        pair: Element.from_word((c,)) for pair, c in mult.items()}, 1, ("a", "u"))


def test_a_unit_letter_that_is_no_unit_is_caught():
    # a zero product satisfies every law on V^3, then u a = 0 is not a
    assert check_braided_algebra(_unit_last({})) == fail("left-unit", (1, 0))
    assert check_braided_algebra(_unit_last({(1, 1): 1, (1, 0): 0})) \
        == fail("right-unit", (0, 1))
    assert check_braided_algebra(_unit_last({(1, 1): 1, (1, 0): 0, (0, 1): 0}))


def test_a_unit_the_braiding_does_not_flip_is_caught():
    # with the unit laws, the exchange laws on V^3 force the flip on the unit
    unital = {(1, 1): 1, (1, 0): 0, (0, 1): 0}
    for scaled, law, witness in (((0, 1), "braided-compatibility-right", (0, 0, 1)),
                                 ((1, 0), "braided-compatibility-left", (0, 1, 0))):
        result = check_braided_algebra(_unit_last(unital, scaled))
        assert (result.ok, result.law, result.witness) == (False, law, witness)
    assert check_braided_algebra(_unit_last(unital))


# -- with_unit --------------------------------------------------------------------


def test_with_unit_smallest_instance():
    unital = given_spec(flip_braiding(1)).with_unit()
    assert unital.dim == 2
    assert unital.unit == 1
    assert check_braided_algebra(unital)
    with pytest.raises(StructuralError, match="spec already has a unit letter"):
        unital.with_unit()


def test_with_unit_on_clifford_passes_checker(clifford2):
    unital = braided_spec(clifford2.spec).with_unit()
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
    one = Element.from_word((), alphabet=spec.alphabet)
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
    spec = given_spec(flip_braiding(2))
    alphabet = spec.alphabet
    for total_u in (1, 2, 3):
        for total_v in (1, 2, 3):
            for u in itertools.product(range(2), repeat=total_u):
                for v in itertools.product(range(2), repeat=total_v):
                    counts: dict[tuple, int] = {}
                    for w in _shuffles(u, v):
                        counts[w] = counts.get(w, 0) + 1
                    expected = Element(
                        {pack_word(w): Scalar.rational(c) for w, c in counts.items()}, alphabet)
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
        spec = given_spec(diagonal_braiding(1, [[c]]))
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
                    assert crossing(spec, pack_word(u), chr(b)) == swept
        assert spec._cache["crossing"][("\1\0\1", "\0")] is crossing(spec, "\1\0\1", "\0")


JORDAN = "[group]\nrank = 1\n\n[basis]\nx1 = 1\nx2 = 1\n\n[action]\ng1.x1 = 1, 0\ng1.x2 = 1, 1\n"


def test_crossing_has_the_closed_form_of_yd_data(uqg_a2):
    # On YD data sigma(v (x) w) = deg(v).w (x) v, so B(u, b) = (deg(u).b) (x) u,
    # deg(u) the product of the letters' degrees: one act_letter, no braiding.
    # Fresh specs, so the random words fill a cold crossing memo.
    r = random.Random(32)
    for text in (emit_config(ConfigDocument(uqg_a2.spec)), JORDAN):
        spec = parse_config(text).spec
        bspec = braided_spec(spec)
        for _ in range(150):
            u = tuple(r.randrange(spec.dim) for _ in range(r.randint(0, 6)))
            b = r.randrange(spec.dim)
            degree = reduce(spec.group.multiply, (spec.degrees[v] for v in u),
                            spec.group.identity())
            assert crossing(bspec, pack_word(u), chr(b)) \
                == spec.act_letter(degree, b).tensor(Element.from_word(u, alphabet=spec))


def test_the_crossing_memo_holds_every_suffix_of_each_word_it_holds(uqg_a2):
    # so a clause level reads B(u', b) from the memo after crossing(spec, u, b);
    # a word times one letter carries its crossing instead, so the 40-letter
    # word has a two-letter partner
    spec = parse_config(emit_config(ConfigDocument(uqg_a2.spec))).spec  # cold memos
    r = random.Random(12)
    for n, m in ((4, 4), (3, 2), (5, 1), (40, 2), (1, 5)):
        x, y = (Element.from_word(tuple(r.randrange(spec.dim) for _ in range(k)), alphabet=spec)
                for k in (n, m))
        assert quasi_shuffle(spec, x, y) == quasi_shuffle_general_clause(spec, x, y)
    memo = spec._cache["crossing"]
    assert len(memo) > 40
    assert all((u[k:], b) in memo for u, b in memo for k in range(1, len(u)))


@pytest.mark.parametrize("name", ["clifford2", "uqg_a2", "jordan"])
def test_a_word_times_one_letter_matches_the_star_route_at_any_length(name, request):
    # a one-letter factor on either side is a loop over the cuts: no length
    # meets the recursion limit, and the star route has no recursion either.
    # On the Jordan plane a letter times v holds deg(a).v, up to 2^|v| words,
    # so the letter goes on the left only of the short words there.
    spec = parse_config(JORDAN).spec if name == "jordan" else request.getfixturevalue(name).spec
    r = random.Random(39)
    for n in (1, 2, 5, 60, 460, 1000):
        x = Element.from_word(tuple(r.randrange(spec.dim) for _ in range(n)), alphabet=spec)
        y = Element.from_word((r.randrange(spec.dim),), alphabet=spec)
        for left, right in ((x, y), (y, x)) if name != "jordan" or n <= 5 else ((x, y),):
            assert quasi_shuffle(spec, left, right) \
                == flatten_coinvariant(star(chain_lift(spec, left), chain_lift(spec, right))), n


def test_a_word_times_one_letter_stores_its_pair_and_no_suffix_level():
    spec = parse_config(JORDAN).spec  # cold memos
    r = random.Random(300)
    u, b = pack_word(tuple(r.randrange(spec.dim) for _ in range(300))), "\1"
    quasi_shuffle(spec, Element.from_word(u, alphabet=spec), Element.from_word(b, alphabet=spec))
    assert list(spec._cache["qsh1"]) == [(u, b)]
    assert list(spec._cache["qsh"]) == [(u, b)]
    assert spec._cache["qsh_levels"].cache_info().currsize == 0


def test_a_word_times_one_letter_carries_its_crossing_and_keeps_no_crossing_memo():
    # each cut braids the crossing of the one after it, so the 1000x1 product
    # leaves its own pair behind and nothing else: about 0.9 MB, where a
    # crossing memo of every suffix of the word held about 1.4 MB more
    spec = build_clifford(2).spec  # cold memos
    r = random.Random(5)
    u, b = pack_word(tuple(r.randrange(spec.dim) for _ in range(1000))), "\0"
    x, y = (Element.from_word(w, alphabet=spec) for w in (u, b))
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        quasi_shuffle(spec, x, y)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert "crossing" not in spec._cache
    assert list(spec._cache["qsh1"]) == [(u, b)]
    assert retained < 1_200_000, retained
    moved = spec._cache["qsh1"][(u, b)][1]  # B(u, b), beside the product
    assert Element._wrap(moved, spec) == block_braiding(spec.braiding, 1000, 1, x.tensor(y))


def test_a_word_times_one_letter_carries_on_from_a_stored_suffix(monkeypatch):
    # a product whose u[1:] times the same letter is stored starts behind it
    # and carries on from its crossing: one cut, one braiding step.  Inside a
    # product with a longer right factor the clause asks for u[i+1:] just
    # before u[i:], so that is the one suffix looked for; u[7:] starts from
    # nothing though u[20:] is stored.  On the Jordan plane
    # B(u, x2) = (|u| x1 + x2) u has two terms.  Each oracle call starts
    # from nothing, so it seeds nothing.
    spec = parse_config(JORDAN).spec  # cold memos
    r = random.Random(47)
    u = pack_word(tuple(r.randrange(spec.dim) for _ in range(30)))
    step, cuts = qalg._braid_step, []
    monkeypatch.setattr(qalg, "_braid_step", lambda *args: cuts.append(args[2]) or step(*args))
    for b in ("\0", "\1"):
        for word, walked in ((u[20:], 10), (u[7:], 23), (u[6:], 1), (u[5:], 1), (u[1:], 29),
                             (u, 1)):
            x, y = (Element.from_word(w, alphabet=spec) for w in (word, b))
            cuts.clear()
            assert quasi_shuffle(spec, x, y) == quasi_shuffle_general_clause(spec, x, y)
            assert cuts == list(range(walked - 1, -1, -1)), word
    assert len(spec._cache["qsh1"]) == 12 and "crossing" not in spec._cache
    assert len(spec._cache["qsh1"][(u, "\1")][1]) == 2


def test_the_general_clause_multiplies_600_letters_by_one_under_the_recursion_limit(clifford2):
    spec = clifford2.spec
    x = Element.from_word(tuple((3 * k + 1) % spec.dim for k in range(600)), alphabet=spec)
    y = Element.from_word((0,), alphabet=spec)
    assert quasi_shuffle_general_clause(spec, x, y) == quasi_shuffle(spec, x, y)


def _frozen(terms: dict) -> dict:
    return {key: dict(c._terms) for key, c in terms.items()}


def _frozen_memo(spec) -> dict:
    return {pair: _frozen(terms) for pair, terms in spec._cache["qsh"].items()}


def _operate_on(z, q) -> list:
    """Every operation that makes a new element from z: none may write into z's dict."""
    return [z + z, z - z, -z, z.scale(q), z.scale(2), z.relabel(lambda key: (key,)),
            z.rekey(lambda key: (key, (key,))), z.tensor(z)]


def test_arithmetic_on_a_product_leaves_the_memo_unchanged(uqg_a2):
    # A product of two basis elements wraps the memo's dict, or star's
    # prefix table's, as it is, and memo terms hold shared scalars (the
    # unit among them): operating on a result must write only into dicts of
    # its own, and a second image copies the first before adding to it.
    q = Scalar.q_power(1)
    for spec in (braided_spec(uqg_a2.spec), hoffman_spec(3)):
        unital = spec.with_unit()
        g = spec.group.generator(0) if spec.group.n_generators else spec.group.identity()
        for u, v in (((0,), (1,)), ((0, 1), (1,)), ((1, 0, 1), (0, 1)), ((), (0, 1)), ((1,), ())):
            x, y = _word(spec, *u), _word(spec, *v)
            z = quasi_shuffle(spec, x, y)
            memo = spec._cache["qsh"][(pack_word(u), pack_word(v))]
            assert z._terms is memo
            products = [
                lambda: quasi_shuffle(spec, x, y),
                lambda: star(*(chain_lift(spec, w) for w in (x, y))),
                lambda: smash_product(SmashElement.of(spec, u, g), SmashElement.of(spec, v)),
                lambda: diamond_product(unital, _word(unital, spec.dim, *u),
                                        _word(unital, *v, spec.dim)),
                lambda: quasi_shuffle(spec, x + _word(spec, *v, coeff=q), y),  # a second image
            ]
            values = [_frozen(product()._terms) for product in products]
            memos = [_frozen_memo(spec), _frozen_memo(unital)]
            for product in products:
                z = product()
                doubled, zero, minus, scaled, *_ = _operate_on(z, q)
                assert doubled == z.scale(2) and scaled.scale(q.inverse()) == z
                assert not zero and minus == z.scale(-1)
            assert [_frozen(product()._terms) for product in products] == values
            assert [_frozen_memo(spec), _frozen_memo(unital)] == memos
            assert quasi_shuffle(spec, x, y) == quasi_shuffle_general_clause(spec, x, y)


def test_the_inverse_action_writes_only_into_dicts_of_its_own(uqg_a2):
    # Faddeev-LeVerrier adds cI in place, into the images _compose made
    spec = parse_config(JORDAN).spec
    for images in (spec.action[0], spec.action_matrix(spec.group.identity()),
                   uqg_a2.spec.action[1]):
        before = _frozen(dict(enumerate(images)))
        inverse = _inverse(images)
        assert _frozen(dict(enumerate(images))) == before
        assert not {id(image._terms) for image in inverse} & {id(image._terms) for image in images}
        assert _compose(inverse, images) \
            == tuple(Element.from_word((j,), alphabet=image.alphabet) for j, image in enumerate(images))


def _periodic(n: int) -> str:
    """The first n letters of the word CI repeats, (v1 v2 v2 v1 v2)*, packed."""
    return pack_word(tuple((0, 1, 1, 0, 1)[k % 5] for k in range(n)))


def _clause_tails(spec, u: str, v: str) -> set:
    """The pairs the clause for u qsh v reads directly: the keep tail, and the
    braid and merge tails of each term of B(u, v_0) and B(u[1:], v_0)."""
    merged = {(w[1:], v[1:]) for w in crossing(spec, u[1:], v[0])._terms
              if spec.mult[(ord(u[0]), ord(w[0]))]}
    return {(u[1:], v)} | {(w[1:], v[1:]) for w in crossing(spec, u, v[0])._terms} | merged


def _kept_levels(spec) -> set:
    """The memo's pairs with two letters or more on both sides."""
    return {(a, b) for a, b in spec._cache["qsh"] if len(a) > 1 and len(b) > 1}


def test_a_long_product_with_two_letters_leaves_its_pair_and_its_tails_behind():
    # the levels below the tails live in the level table, emptied when the
    # product is finished: about 1.3 MB stays, where every level of the 80
    # kept about 9.6 MB
    spec = build_clifford(2).spec  # cold memos
    u, v = _periodic(80), "\0\1"
    x, y = (Element.from_word(w, alphabet=spec) for w in (u, v))
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        quasi_shuffle(spec, x, y)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert retained < 2_500_000, retained
    assert _kept_levels(spec) == {(u, v), (u[1:], v)}
    assert spec._cache["qsh_levels"].cache_info().currsize == 0


def test_the_memo_keeps_the_asked_pair_its_clause_tails_and_one_letter_products(uqg_a2):
    # heads that merge (v1 v1 on clifford2, E1 F1 on uqg_a2), so all three
    # tails have two letters or more on both sides
    uqg = braided_spec(parse_config(emit_config(ConfigDocument(uqg_a2.spec))).spec)
    for spec, u, v in ((build_clifford(2).spec, "\0\1\1\0\1\0", "\0\1\0\1"),
                       (uqg, "\0\2\2\0\2\0", "\2\0\2\0")):  # cold memos
        quasi_shuffle(spec, *(Element.from_word(w, alphabet=spec) for w in (u, v)))
        tails = _clause_tails(spec, u, v)
        assert len(tails) == 3 and all(len(a) > 1 and len(b) > 1 for a, b in tails)
        assert _kept_levels(spec) == {(u, v)} | tails
        memo = spec._cache["qsh"]
        assert all(memo[pair] is kept for pair, (kept, _) in spec._cache["qsh1"].items())
        assert spec._cache["qsh_levels"].cache_info().currsize == 0


def test_the_rota_baxter_right_side_reads_the_tails_of_its_left_side(clifford2, monkeypatch):
    # with P prepending the unit, the tails of Px qsh Py are x qsh Py,
    # Px qsh y and x qsh y, so check rb finds its right side kept
    spec = clifford2.spec.with_unit()
    r, clause, ran = random.Random(48), qalg._qsh_general, []
    monkeypatch.setattr(qalg, "_qsh_general", lambda *args: ran.append(args[1:3]) or clause(*args))
    for _ in range(6):
        x, y = (tuple(r.randrange(spec.dim) for _ in range(r.randint(1, 4))) for _ in "xy")
        px, py = (spec.unit,) + x, (spec.unit,) + y
        quasi_shuffle(spec, _word(spec, *px), _word(spec, *py))
        assert ran
        ran.clear()
        pairs = [(_word(spec, *a), _word(spec, *b)) for a, b in ((x, py), (px, y), (x, y))]
        right = [quasi_shuffle(spec, a, b) for a, b in pairs]
        assert ran == [], ran
        assert right == [quasi_shuffle_general_clause(spec, a, b) for a, b in pairs]


def test_the_general_clause_keeps_no_spec_alive():
    # the oracle's memo lives for one call, so the spec it ran on can die
    spec = hoffman_spec(3)
    quasi_shuffle_general_clause(spec, _word(spec, 0, 1), _word(spec, 1))
    ref = weakref.ref(spec)
    del spec
    gc.collect()
    assert ref() is None


def test_a_word_packs_into_one_code_point_per_letter_and_back():
    for letter in (0, 255, 256, 0xD800, 65535, 65536, 0x10FFFF):
        for word in ((letter,), (letter, 0, letter), (1, letter, 300), ()):
            packed = pack_word(word)
            assert len(packed) == len(word)
            assert tuple(map(ord, packed)) == word
            assert pack_word(packed) is packed


def test_words_over_more_than_256_letters_match_the_general_clause():
    # Letters from 256 up widen a packed word past one byte a letter.
    # Checking a total table over 258 letters takes longer than this test
    # may, and the clause reads only the pairs of letters the words use, so
    # the table holds just those.
    dim, used = 258, (0, 255, 256, 257)
    braiding = BraidingTable._trusted(dim, {
        (a, b): Element.from_word((b, a), Scalar.q_power((a > b) - (a < b)))
        for a in used for b in used})
    mult = {(256, 257): Element.from_word((0,), 2),
            (0, 256): Element.from_word((257,)),
            (257, 255): Element.from_word((256,), Scalar.q_power(1))}
    spec = given_spec(braiding, mult)
    x = Element.from_word((256, 0, 257, 255, 256), alphabet=spec)
    y = Element.from_word((257, 256, 0), 3, spec) + Element.from_word((255, 257), alphabet=spec)
    product = quasi_shuffle(spec, x, y)
    assert product == quasi_shuffle_general_clause(spec, x, y)
    assert {len(word) for word in product.support()} == {5, 6, 7, 8}
    assert {ord(letter) for word in product.support() for letter in word} == set(used)


def test_a_rank_0_spec_past_256_letters_multiplies_and_renders_its_letters():
    # Letters from 256 up take the non-Latin-1 path of pack_word.  Rank 0 acts
    # trivially, so the braiding is the flip; its table holds just the pairs
    # of letters the words use, as in the test above.
    from cofreehopf.cli import _json_terms, _render_any
    from cofreehopf.config import bind_plain_element
    from cofreehopf.expr import parse_element_text

    dim, used = 258, (0, 1, 255, 256, 257)
    names = tuple(f"x{i}" for i in range(dim))
    mult = {(256, 257): Element.from_word((255,), 2), (257, 256): Element.from_word((1,), -1),
            (0, 256): Element.from_word((257,), Scalar.q_power(1))}
    braiding = BraidingTable._trusted(dim, {(a, b): Element.from_word((b, a))
                                            for a in used for b in used})
    spec = given_spec(braiding, mult, names=names)
    render = _render_any(spec)
    x256, x257 = (Element.from_word((a,), alphabet=spec) for a in (256, 257))
    product = quasi_shuffle(spec, x256, x257)
    assert render(product) == "2 x255 + x256@x257 + x257@x256"
    assert _json_terms("tensor", spec, product) == [
        {"coeff": "2", "word": ["x255"]}, {"coeff": "1", "word": ["x256", "x257"]},
        {"coeff": "1", "word": ["x257", "x256"]}]
    x = Element.from_word((256, 0, 257), alphabet=spec) + Element.from_word((255, 1), 3, spec)
    y = Element.from_word((257, 256), alphabet=spec) + Element.from_word((0,), alphabet=spec)
    product = quasi_shuffle(spec, x, y)
    assert product == quasi_shuffle_general_clause(spec, x, y)
    assert {ord(letter) for word in product.support() for letter in word} == set(used)
    text = render(product)
    assert bind_plain_element(spec, parse_element_text(text)) == product, text
    assert [term["word"] for term in _json_terms("tensor", spec, product)] \
        == [[f"x{a}" for a in letters(word)] for word in product.support()]


def test_unpacked_words_are_refused_with_a_structural_error(clifford2):
    # a dict given to Element keeps its keys as they are: a tuple word reaches
    # the products, which refuse it by name rather than fail on a concatenation
    spec = braided_spec(clifford2.spec)
    y = Element.from_word((1,), alphabet=spec.alphabet)
    for x in (Element({(0,): 1}, spec.alphabet), Element({(0, 1): 1}, spec.alphabet)):
        for product in (lambda: quasi_shuffle(spec, x, y), lambda: quasi_shuffle(spec, y, x),
                        lambda: quasi_shuffle_general_clause(spec, x, y)):
            with pytest.raises(StructuralError, match="pack_word"):
                product()
    spec = clifford2.spec
    leg = SmashElement(spec, {((0,), spec.group.identity()): 1})
    with pytest.raises(StructuralError, match="Element.from_word"):
        smash_product(leg, SmashElement.of(spec, (1,)))


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
        for letter in map(ord, pack_word(word)):
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


def _hoffman_exp(spec: YDSpec, word) -> Element:
    """exp(w) = sum over compositions I of |w| of I[w] / I!, where I[w]
    multiplies the letters of each block of w together (Hoffman, 2000)."""
    word, out = letters(pack_word(word)), Element.zero(spec.alphabet)
    for blocks in _compositions(len(word)):
        term, start = Element.from_word((), alphabet=spec.alphabet), 0
        for size in blocks:
            merged = Element.from_word(word[start:start + 1], alphabet=spec.alphabet)
            for b in word[start + 1:start + size]:
                merged = merged.map_words(lambda w, b=b: spec.mult[(ord(w), b)])
            term, start = term.tensor(merged), start + size
        weight = Fraction(1, math.prod(map(math.factorial, blocks)))
        out = out + term.scale(Scalar.rational(weight))
    return out


def test_hoffman_exponential_takes_the_shuffle_to_the_quasi_shuffle(hoffman4):
    """exp(u sh v) = exp(u) * exp(v): sh is the quasi-shuffle under the flip
    braiding with zero multiplication, * the quasi-shuffle of hoffman4."""
    shuffle = given_spec(flip_braiding(4))
    words = [w for n in range(5) for w in itertools.product(range(4), repeat=n)]
    exp = {pack_word(w): _hoffman_exp(hoffman4, w) for w in words}
    pairs = [(u, v) for u in words for v in words if len(u) + len(v) <= 4]
    for u, v in pairs:
        shuffled = quasi_shuffle(shuffle, _word(shuffle, *u), _word(shuffle, *v))
        lhs = shuffled.map_words(exp.__getitem__, alphabet=hoffman4.alphabet)
        assert lhs == quasi_shuffle(hoffman4, exp[pack_word(u)], exp[pack_word(v)]), (u, v)
    assert len(pairs) == 1593
    half, sixth = Fraction(1, 2), Fraction(1, 6)
    assert exp["\0\0\1"] == _word(hoffman4, 0, 0, 1) + _word(hoffman4, 1, 1, coeff=half) \
        + _word(hoffman4, 0, 2, coeff=half) + _word(hoffman4, 3, coeff=sixth)


def test_bialgebra_compatibility_small(clifford2, hoffman4):
    for spec in (braided_spec(clifford2.spec), hoffman4):
        pairs = [(u, v) for u in [(0,), (1,), (0, 1)] for v in [(0,), (1,)]]
        assert check_quasi_shuffle_bialgebra(spec, pairs)


def test_bialgebra_check_over_no_samples_is_an_error(hoffman4):
    with pytest.raises(StructuralError, match="no samples"):
        check_quasi_shuffle_bialgebra(hoffman4, [])


# -- deconcatenation ----------------------------------------------------------------


def test_deconcat_examples():
    x = Element.from_word((0,))
    assert deconcat(x) == Element({("", "\0"): 1, ("\0", ""): 1}, deconcat(x).alphabet)
    empty = deconcat(Element.from_word(()))
    assert empty == Element({("", ""): 1}, empty.alphabet)


def _deconcat_terms(word: tuple) -> dict:
    """The terms of the deconcatenation by pairs of words read back as letters."""
    return {(letters(u), letters(v)): c
            for (u, v), c in deconcat(Element.from_word(word))._terms.items()}


def _reduced_deconcat_terms(word: tuple) -> dict:
    """The reduced coproduct: deconcatenation less its two trivial cuts."""
    return {(u, v): c for (u, v), c in _deconcat_terms(word).items() if u and v}


def test_deconcat_of_three_letters_cuts_at_every_position():
    assert _deconcat_terms((0, 1, 2)) == {
        ((), (0, 1, 2)): Scalar.one(), ((0,), (1, 2)): Scalar.one(),
        ((0, 1), (2,)): Scalar.one(), ((0, 1, 2), ()): Scalar.one()}


def test_double_reduced_deconcat_of_three_letters():
    # iterate the reduced coproduct on the left factor: only the full cut survives
    split: dict[tuple, Scalar] = {}
    for (u, v), c in _reduced_deconcat_terms((0, 1, 2)).items():
        for (u1, u2), d in _reduced_deconcat_terms(u).items():
            split[(u1, u2, v)] = split.get((u1, u2, v), Scalar.zero()) + c * d
    assert split == {((0,), (1,), (2,)): Scalar.one()}
    assert _reduced_deconcat_terms((0,)) == {}


def test_deconcat_is_coassociative():
    for word in (w for n in range(5) for w in itertools.product(range(2), repeat=n)):
        left: dict[tuple, Scalar] = {}
        right: dict[tuple, Scalar] = {}
        for (u, v), c in _deconcat_terms(word).items():
            for (u1, u2), d in _deconcat_terms(u).items():
                left[(u1, u2, v)] = left.get((u1, u2, v), Scalar.zero()) + c * d
            for (v1, v2), d in _deconcat_terms(v).items():
                right[(u, v1, v2)] = right.get((u, v1, v2), Scalar.zero()) + c * d
        assert left == right, word
        assert len(left) == (len(word) + 1) * (len(word) + 2) // 2


def test_deconcat_counit_laws():
    # cutting off an empty leg on either side gives the element back
    x = Element.from_word((), 3) + Element.from_word((0, 1), Scalar.q_power(2)) \
        + Element.from_word((1, 1, 0), -1)
    pairs = deconcat(x)._terms
    assert {v: c for (u, v), c in pairs.items() if not u} == x._terms
    assert {u: c for (u, v), c in pairs.items() if not v} == x._terms


def test_deconcat_is_linear():
    u, v = Element.from_word((0, 1)), Element.from_word((1,))
    a, b = Scalar.q_power(-1), Scalar.rational(Fraction(3, 2))
    assert deconcat(u.scale(a) + v.scale(b)) == deconcat(u).scale(a) + deconcat(v).scale(b)
    assert deconcat(u - u).is_zero()


# -- the diagonal action ------------------------------------------------------------


def test_extension_of_a_group_action_is_the_diagonal_action_and_multiplicative(clifford2, uqg_a2):
    # universal property of the quasi-shuffle algebra (Jian-Rosso, J. reine
    # angew. Math. 667, 2012): a generator acting on the letters intertwines
    # the braiding and the multiplication, so its extension to words, the
    # diagonal action, is an algebra map
    for preset in (clifford2, uqg_a2):
        spec = preset.spec
        bspec = braided_spec(spec)
        g = spec.group.generator(0)

        def ext(x):
            return x.map_words(lambda w: spec.act_word(g, w))

        words = [w for n in range(3) for w in itertools.product(range(spec.dim), repeat=n)]
        sample = {w: _word(bspec, *w) for w in random.Random(16).sample(words, 20)}
        image = {w: ext(x) for w, x in sample.items()}
        for u, v in itertools.product(sample, sample):
            assert ext(quasi_shuffle(bspec, sample[u], sample[v])) \
                == quasi_shuffle(bspec, image[u], image[v])


def _act(spec, g, x: Element) -> Element:
    return x.map_words(lambda w: spec.act_word(g, w))


def test_diagonal_action_of_the_identity_fixes_every_word(clifford2, uqg_a2):
    for preset in (clifford2, uqg_a2):
        spec = preset.spec
        e = spec.group.identity()
        for word in words_up_to(spec.dim, 3):
            assert spec.act_word(e, word) == Element.from_word(word, alphabet=spec)


def test_diagonal_action_is_a_group_action(clifford2, uqg_a2):
    for preset in (clifford2, uqg_a2):
        spec, group = preset.spec, preset.spec.group
        elements = [group.generator(k) for k in range(group.n_generators)]
        elements += [group.inverse(g) for g in elements]
        for g, h in itertools.product(elements, repeat=2):
            gh = group.multiply(g, h)
            for word in words_up_to(spec.dim, 2):
                assert _act(spec, g, spec.act_word(h, word)) == spec.act_word(gh, word)


def test_diagonal_action_commutes_with_deconcat(clifford2, uqg_a2):
    # each group-like acts by a coalgebra map: cut, then act on both legs
    for preset in (clifford2, uqg_a2):
        spec = preset.spec
        g = spec.group.generator(0)
        for word in words_up_to(spec.dim, 3):
            legs: dict[tuple, Scalar] = {}
            for (u, v), c in deconcat(Element.from_word(word, alphabet=spec))._terms.items():
                for a, ca in spec.act_word(g, u).terms():
                    for b, cb in spec.act_word(g, v).terms():
                        legs[(a, b)] = legs.get((a, b), Scalar.zero()) + c * ca * cb
            legs = {key: c for key, c in legs.items() if not c.is_zero()}
            assert deconcat(spec.act_word(g, word))._terms == legs, word


def test_diagonal_action_commutes_with_the_braiding(clifford2, uqg_a2):
    # sigma(g.v (x) g.w) = g.sigma(v (x) w): the degree of g.v is that of v
    for preset in (clifford2, uqg_a2):
        spec, group = preset.spec, preset.spec.group
        table = spec.braiding
        for k in range(group.n_generators):
            g = group.generator(k)
            for word in words_up_to(spec.dim, 2)[1 + spec.dim:]:
                assert table.apply(spec.act_word(g, word)) \
                    == _act(spec, g, table.apply(Element.from_word(word, alphabet=spec)))


# -- hoffman4 as rank-0 config data -------------------------------------------------------


def _hoffman_config(scale: int = 1, mult: bool = True) -> str:
    """Rank-0 data: letters x1..x4 with x_a x_b -> scale x_{a+b} for a + b <= 4."""
    lines = ["[group]", "rank = 0", "", "[basis]", *(f"x{a} =" for a in range(1, 5))]
    if mult:
        lines += ["", "[mult]"] + [f"x{a} x{b} -> {scale} x{a + b}" for a in range(1, 5)
                                   for b in range(1, 5) if a + b <= 4]
    return "\n".join(lines) + "\n"


def test_hoffman_exponential_on_the_rank_0_config():
    """exp(u sh v) = exp(u) * exp(v) on 40 random pairs up to 3+3, hoffman4 read
    from config text; with every [mult] coefficient doubled, * no longer
    matches the exponential's merge and the identity fails."""
    shuffle, hoffman, doubled = (parse_config(text).braided() for text in (
        _hoffman_config(mult=False), _hoffman_config(), _hoffman_config(2)))
    assert all(entry == _word(hoffman, b, a)
               for (a, b), entry in hoffman.braiding.entries.items())  # the flip

    def retag(x):
        return Element(x._terms, doubled.alphabet)

    rnd = random.Random(2000)
    failures = 0
    for _ in range(40):
        u, v = (tuple(rnd.randrange(4) for _ in range(rnd.randint(1, 3))) for _ in range(2))
        shuffled = quasi_shuffle(shuffle, _word(shuffle, *u), _word(shuffle, *v))
        u, v = pack_word(u), pack_word(v)
        exp = {w: _hoffman_exp(hoffman, w) for w in [u, v, *shuffled._terms]}
        lhs = shuffled.map_words(exp.__getitem__, alphabet=hoffman.alphabet)
        assert lhs == quasi_shuffle(hoffman, exp[u], exp[v]), (u, v)
        failures += retag(lhs) != quasi_shuffle(doubled, retag(exp[u]), retag(exp[v]))
    assert failures > 20


def test_the_rank_0_hoffman_config_passes_every_check(tmp_path, capsys):
    from cofreehopf.cli import main

    path = tmp_path / "hoffman4.cfg"
    path.write_text(_hoffman_config(), encoding="utf-8")
    for law in ("yb", "alg", "yd", "bialg", "rb"):
        assert main(["--config", str(path), "check", law]) == 0
        assert capsys.readouterr().out == "PASS\n", law


# -- the Jordan and super Jordan planes: their Nichols-algebra relations ------------------

SUPER_JORDAN = JORDAN.replace("g1.x1 = 1, 0\ng1.x2 = 1, 1", "g1.x1 = -1, 0\ng1.x2 = 1, -1")


def _rank(vectors) -> int:
    """The rank over Q of Elements with constant coefficients, by elimination."""
    pivots: dict = {}
    for vector in vectors:
        row = {}
        for word, c in vector._terms.items():
            assert set(c._terms) == {0}
            row[word] = Fraction(c._terms[0])
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = row
                break
            factor = row[col] / pivot[col]
            for key, value in pivot.items():
                if (w := row.get(key, 0) - factor * value):
                    row[key] = w
                else:
                    row.pop(key, None)
    return len(pivots)


def test_the_jordan_planes_satisfy_their_nichols_relations():
    # N. Andruskiewitsch, I. Angiono, I. Heckenberger, On finite GK-dimensional
    # Nichols algebras over abelian groups, Mem. Amer. Math. Soc. 271 (2021)
    half = Fraction(1, 2)
    for text in (JORDAN, SUPER_JORDAN):
        bspec = parse_config(text).braided()
        x1, x2 = _word(bspec, 0), _word(bspec, 1)

        def m(a, b):
            return quasi_shuffle(bspec, a, b)

        if text is JORDAN:
            assert not m(x2, x1) - m(x1, x2) + m(x1, x1).scale(half)
            assert m(x2, x1) - m(x1, x2) - m(x1, x1).scale(half)
        else:
            assert not m(x1, x1)
            x21 = m(x2, x1) + m(x1, x2)
            assert not m(x2, x21) - m(x21, x2) - m(x1, x21)
            assert m(x2, x21) - m(x21, x2) + m(x1, x21)
        # GK-dimension 2: the products of d letters span d + 1 dimensions
        products = [Element.from_word((), alphabet=bspec.alphabet)]
        for d in range(1, 6):
            products = [m(p, x) for p in products for x in (x1, x2)]
            assert _rank(products) == d + 1, (text, d)

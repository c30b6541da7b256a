from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cofreehopf.checks import fail
from cofreehopf.cotensor import (CotensorElement, SmashElement, chain_lift_word, coproduct_pairs,
                                 right_translate)
from cofreehopf.elements import Element
from cofreehopf.errors import StructuralError
from cofreehopf.grouphopf import braided_spec
from cofreehopf.qalg import quasi_shuffle
from cofreehopf.rotabaxter import (
    RBInstance,
    check_double_product_isomorphism,
    check_rota_baxter,
    cotensor_rb_operator,
    diamond_product,
    diamond_rb_instance,
    head_shift,
    qsh_rb_instance,
    rb_double_product,
    smash_rb_instance,
    smash_rb_operator,
    star_rb_instance,
    unit_prepend,
)
from cofreehopf.scalars import Scalar
from test_qsh_properties import diagonal_yd_specs


@pytest.fixture(scope="module")
def unital_clifford(clifford2):
    return braided_spec(clifford2.spec).with_unit()


@pytest.fixture(scope="module")
def unital_yd(clifford2):
    return clifford2.spec.with_unit()


def _words(spec, total):
    out = []
    for length in range(total + 1):
        out.extend(itertools.product(range(spec.dim), repeat=length))
    return out


def _elem(spec, word, coeff=1):
    return Element.from_word(word, coeff, spec.alphabet)


# -- the basic operator -------------------------------------------------------


def test_operator_on_scalars_and_words(unital_clifford):
    spec = unital_clifford
    unit = spec.unit
    lam = Element.from_word((), Scalar.q_power(2), spec.alphabet)
    assert unit_prepend(spec, lam) == _elem(spec, (unit,), Scalar.q_power(2))
    assert unit_prepend(spec, _elem(spec, (0, 1))) == _elem(spec, (unit, 0, 1))
    twice = unit_prepend(spec, unit_prepend(spec, _elem(spec, (0,))))
    assert twice == _elem(spec, (unit, unit, 0))


def test_operator_requires_a_unit(clifford2):
    spec = braided_spec(clifford2.spec)
    with pytest.raises(StructuralError):
        unit_prepend(spec, _elem(spec, (0,)))


def test_rb_identity_on_scalar_pairs(unital_clifford):
    spec = unital_clifford
    inst = qsh_rb_instance(spec)
    pairs = [(Element.from_word((), 2, spec.alphabet),
              Element.from_word((), Scalar.q_power(-1), spec.alphabet))]
    assert check_rota_baxter(inst, pairs)


def test_rb_check_over_no_samples_is_an_error(unital_clifford):
    with pytest.raises(StructuralError, match="no samples"):
        check_rota_baxter(qsh_rb_instance(unital_clifford), [])


def test_rb_identity_on_basis_words(unital_clifford):
    spec = unital_clifford
    inst = qsh_rb_instance(spec)
    words = _words(spec, 2)
    pairs = [(_elem(spec, u), _elem(spec, v))
             for u in words for v in words if len(u) + len(v) <= 3]
    assert check_rota_baxter(inst, pairs)


def test_rb_identity_fails_with_corrupted_weight(unital_clifford):
    spec = unital_clifford
    inst = RBInstance(lambda x, y: quasi_shuffle(spec, x, y),
                      lambda x: unit_prepend(spec, x),
                      Scalar.rational(2))
    pairs = [(_elem(spec, (0,)), _elem(spec, (1,)))]
    result = check_rota_baxter(inst, pairs)
    assert not result
    assert result.law == "rota-baxter"


def test_scaled_operator_has_scaled_weight(unital_clifford):
    spec = unital_clifford
    inst = qsh_rb_instance(spec)
    pairs = [(_elem(spec, u), _elem(spec, v))
             for u in _words(spec, 1) for v in _words(spec, 1)]
    for factor in (Scalar.q_power(1), Scalar.rational(-1)):
        assert check_rota_baxter(inst.scaled(factor), pairs)


def _prepend_twice_to_two_letters(unit: str, word: str) -> str:
    return unit * (2 if len(word) == 2 else 1) + word


def _faulty_instances(qspec, sspec):
    """(name, instance, samples, first failing sample): a linear operator
    wrong on two-letter words, and instances scaled by q and by 2 that keep
    weight 1, on the quasi-shuffle and on the smash product."""
    qu, su = chr(qspec.unit), chr(sspec.unit)
    qsh, smash = qsh_rb_instance(qspec), smash_rb_instance(sspec)
    words = [_elem(qspec, w) for w in _words(qspec, 2) if w]
    qsh_pairs = [(a, b) for a in words[:qspec.dim] for b in words]
    tags = [sspec.group.identity(), sspec.group.generator(0)]
    elems = [SmashElement.of(sspec, w, t) for w in [(0,), (1,), (0, 1)] for t in tags]
    smash_pairs = [(a, b) for a in elems for b in elems]
    cases = [
        ("qsh-twice", RBInstance(qsh.product, lambda x: x.rekey(
            lambda w: (_prepend_twice_to_two_letters(qu, w),)), qsh.weight),
         [(_elem(qspec, ()), b) for b in words] + qsh_pairs, (_elem(qspec, ()), words[0])),
        ("smash-twice", RBInstance(smash.product, lambda s: s.rekey(
            lambda key: ((_prepend_twice_to_two_letters(su, key[0]), key[1]),)), smash.weight),
         [(SmashElement.of(sspec, ()), b) for b in elems] + smash_pairs,
         (SmashElement.of(sspec, ()), elems[0])),
    ]
    for factor in (Scalar.q_power(1), Scalar.rational(2)):
        cases += [
            (f"qsh-scaled-{factor}", RBInstance(qsh.product, qsh.scaled(factor).operator,
                                                qsh.weight), qsh_pairs, qsh_pairs[0]),
            (f"smash-scaled-{factor}", RBInstance(smash.product, smash.scaled(factor).operator,
                                                  smash.weight), smash_pairs, smash_pairs[0]),
        ]
    return cases


def test_the_rb_check_catches_a_faulty_operator_or_weight(unital_clifford, unital_yd):
    # each fails at the same sample whether P is applied once or three times,
    # with the sides P(x)P(y) and P(xP(y)) + P(P(x)y) + weight * P(xy)
    for name, inst, pairs, witness in _faulty_instances(unital_clifford, unital_yd):
        result = check_rota_baxter(inst, pairs)
        assert (result.ok, result.law, result.witness) == (False, "rota-baxter", witness), name
        (x, y), prod, op = witness, inst.product, inst.operator
        assert result.lhs == prod(op(x), op(y)) != result.rhs, name
        assert result.rhs == op(prod(x, op(y))) + op(prod(op(x), y)) \
            + op(prod(x, y)).scale(inst.weight), name


# -- the double product ----------------------------------------------------------


def test_double_product_with_zero_operator_is_weighted_product(unital_clifford):
    spec = unital_clifford
    lam = Scalar.q_power(3)
    inst = RBInstance(lambda x, y: quasi_shuffle(spec, x, y),
                      lambda x: Element.zero(spec.alphabet), lam)
    x, y = _elem(spec, (0,)), _elem(spec, (1,))
    assert rb_double_product(inst, x, y) == quasi_shuffle(spec, x, y).scale(lam)


def test_diamond_product_base_case(unital_clifford):
    spec = unital_clifford
    out = diamond_product(spec, _elem(spec, (0,)), _elem(spec, (1,)))
    assert out == _elem(spec, (3,))  # the heads multiply to xi12


def test_head_shift_formula(unital_clifford):
    spec = unital_clifford
    assert head_shift(spec, _elem(spec, (0, 1))) \
        == _elem(spec, (spec.unit, 0, 1))
    with pytest.raises(StructuralError):
        head_shift(spec, Element.from_word((), alphabet=spec.alphabet))


def test_diamond_product_associativity(unital_clifford):
    spec = unital_clifford
    heads = [(0,), (1,), (5,), (0, 1)]
    for u, v, w in itertools.islice(itertools.product(heads, repeat=3), 30):
        x, y, z = (_elem(spec, t) for t in (u, v, w))
        assert diamond_product(spec, diamond_product(spec, x, y), z) \
            == diamond_product(spec, x, diamond_product(spec, y, z))


def test_diamond_instance_is_rota_baxter(unital_clifford):
    spec = unital_clifford
    inst = diamond_rb_instance(spec)
    heads = [(0,), (1,), (0, 1)]
    pairs = [(_elem(spec, u), _elem(spec, v)) for u in heads for v in heads]
    assert check_rota_baxter(inst, pairs)


def test_double_product_transports_to_quasi_shuffle(unital_clifford):
    spec = unital_clifford
    pairs = []
    for u in [(0,), (1,), (0, 1)]:
        for v in [(0,), (1,), (1, 0)]:
            pairs.append((_elem(spec, u), _elem(spec, v)))
    assert check_double_product_isomorphism(spec, pairs)


def test_double_product_check_over_no_samples_is_an_error(unital_clifford):
    with pytest.raises(StructuralError, match="no samples"):
        check_double_product_isomorphism(unital_clifford, iter(()))


def test_double_product_detects_corrupted_operator(unital_clifford):
    spec = unital_clifford
    bad = RBInstance(lambda x, y: diamond_product(spec, x, y),
                     lambda x: Element(
                         {"\0" + w: c for w, c in x._terms.items()}, x.alphabet),
                     Scalar.one())
    x, y = _elem(spec, (1,)), _elem(spec, (1,))
    assert rb_double_product(bad, x, y) != quasi_shuffle(spec, x, y)


def test_double_product_check_reports_the_first_pair_that_differs(unital_clifford, monkeypatch):
    import cofreehopf.rotabaxter as rotabaxter

    # no known spec fails the real check: the fault prepends v1, not the unit
    spec = unital_clifford
    bad = RBInstance(lambda x, y: diamond_product(spec, x, y),
                     lambda x: Element({"\0" + w: c for w, c in x._terms.items()}, x.alphabet),
                     Scalar.one())
    monkeypatch.setattr(rotabaxter, "diamond_rb_instance", lambda spec: bad)
    pairs = [(_elem(spec, u), _elem(spec, v)) for u in [(0,), (1,)] for v in [(0,), (1,)]]
    result = check_double_product_isomorphism(spec, pairs)
    x, y = next((x, y) for x, y in pairs
                if rb_double_product(bad, x, y) != quasi_shuffle(spec, x, y))
    assert result == fail("double-product-vs-quasi-shuffle", (x, y),
                          rb_double_product(bad, x, y), quasi_shuffle(spec, x, y))


# -- smash and cotensor operators -------------------------------------------------


def test_smash_operator_formulas(unital_yd):
    spec = unital_yd
    eps = spec.group.element([1])
    s = SmashElement.of(spec, (0,), eps)
    assert smash_rb_operator(s) == SmashElement.of(spec, (spec.unit, 0), eps)
    lam = SmashElement.of(spec, (), eps).scale(Scalar.q_power(1))
    assert smash_rb_operator(lam) \
        == SmashElement.of(spec, (spec.unit,), eps).scale(Scalar.q_power(1))


def test_smash_operator_needs_unit(clifford2):
    s = SmashElement.of(clifford2.spec, (0,))
    with pytest.raises(StructuralError):
        smash_rb_operator(s)


def test_smash_instance_is_rota_baxter(unital_yd):
    spec = unital_yd
    inst = smash_rb_instance(spec)
    tags = [spec.group.identity(), spec.group.element([1])]
    elems = [SmashElement.of(spec, w, t)
             for w in [(), (0,), (1,), (0, 1)] for t in tags]
    pairs = [(a, b) for a in elems for b in elems[:4]]
    assert check_rota_baxter(inst, pairs)


def test_cotensor_operator_conjugates_the_smash_one(unital_yd):
    spec = unital_yd
    e = spec.group.identity()
    eps = spec.group.element([1])
    x = CotensorElement.from_word(spec, ("\0", eps))
    out = cotensor_rb_operator(x)
    # P(v1 # eps) = (one (x) v1) # eps; the chain word carries degree(v1)*eps
    # = 1 on the unit letter and eps on the trailing letter, its right degree
    expected = CotensorElement.from_word(spec, (chr(spec.unit) + "\0", eps))
    assert coproduct_pairs(spec, expected.support()[0])[1][0] == (chr(spec.unit), e)
    assert out == expected


def test_star_instance_is_rota_baxter(unital_yd):
    spec = unital_yd
    inst = star_rb_instance(spec)
    e = spec.group.identity()
    eps = spec.group.element([1])
    elems = [
        CotensorElement(spec, {eps: 1}),
        CotensorElement.from_word(spec, ("\0", e)),
        CotensorElement.from_word(spec, ("\1", eps)),
        CotensorElement.from_word(spec, chain_lift_word(spec, (0, 1))),
    ]
    pairs = [(a, b) for a in elems for b in elems]
    assert check_rota_baxter(inst, pairs)


# -- derandomized properties over diagonal Yetter-Drinfeld data ------------------

BOUNDED = settings(max_examples=100, derandomize=True, deadline=None, database=None)


def _degrees(data, total):
    """Two degree bounds summing to at most ``total``."""
    first = data.draw(st.integers(0, total))
    return first, data.draw(st.integers(0, total - first))


def _multi_term(data, max_length, dim, term):
    """The sum of one to three terms ``term(word, coeff)``, the unit letter
    among the letters, words of length at most ``max_length``."""
    words = data.draw(st.lists(st.lists(st.integers(0, dim - 1), max_size=max_length).map(tuple),
                               min_size=1, max_size=3))
    coeffs = st.builds(Scalar.q_power, st.integers(-2, 2), st.sampled_from((1, -1, 2)))
    terms = [term(word, data.draw(coeffs)) for word in words]
    return sum(terms[1:], terms[0])


@BOUNDED
@given(st.data())
def test_quasi_shuffle_instance_is_rota_baxter_on_diagonal_data(data):
    uspec = braided_spec(data.draw(diagonal_yd_specs())).with_unit()
    x, y = (_multi_term(data, n, uspec.dim,
                        lambda word, c: Element.from_word(word, c, uspec.alphabet))
            for n in _degrees(data, 4))
    assert check_rota_baxter(qsh_rb_instance(uspec), [(x, y)])


@BOUNDED
@given(st.data())
def test_star_instance_is_rota_baxter_on_diagonal_data(data):
    spec = data.draw(diagonal_yd_specs()).with_unit()
    tags = st.lists(st.integers(-1, 1), min_size=spec.group.n_generators,
                    max_size=spec.group.n_generators).map(spec.group.element)

    def term(word, c):
        key = right_translate(spec, chain_lift_word(spec, word), data.draw(tags))
        return CotensorElement(spec, {key: c})

    x, y = (_multi_term(data, n, spec.dim, term) for n in _degrees(data, 3))
    assert check_rota_baxter(star_rb_instance(spec), [(x, y)])

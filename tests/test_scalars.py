from __future__ import annotations

import copy
import pickle
import random
from fractions import Fraction

import pytest

from cofreehopf.errors import StructuralError
from cofreehopf.scalars import _MONOMIALS, Scalar, render_scalar, split_sign


def _random_scalar(rnd: random.Random) -> Scalar:
    terms = {}
    for _ in range(rnd.randint(0, 4)):
        terms[rnd.randint(-3, 3)] = Fraction(rnd.randint(-5, 5), rnd.randint(1, 4))
    return Scalar(terms)


def _random_int_scalar(rnd: random.Random) -> Scalar:
    terms = {}
    for _ in range(rnd.randint(0, 4)):
        terms[rnd.randint(-3, 3)] = rnd.randint(-5, 5)
    return Scalar(terms)


def _random_monomial(rnd: random.Random) -> Scalar:
    c = Fraction(rnd.choice([-3, -2, -1, 1, 2, 3]), rnd.randint(1, 3))
    return Scalar.q_power(rnd.randint(-3, 3), c)


def _assert_canonical_coefficients(s: Scalar) -> None:
    for c in s._terms.values():
        assert type(c) is (int if c.denominator == 1 else Fraction), repr(s)


def test_canonical_form_drops_zeros():
    s = Scalar({0: Fraction(0), 2: 1})
    assert s == Scalar.q_power(2)
    assert Scalar({1: 1}) - Scalar({1: 1}) == Scalar.zero()
    assert (Scalar({1: 1}) - Scalar({1: 1})).is_zero()


def test_canonicalization_is_idempotent():
    s = Scalar({-1: Fraction(1, 2), 3: -2})
    assert Scalar(dict(s.items())) == s


def test_ring_axioms_exact_on_random_triples():
    rnd = random.Random(20240817)
    for _ in range(200):
        a, b, c = (_random_scalar(rnd) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero()
        assert a * Scalar.one() == a


def test_monomial_inverse_and_powers():
    m = Scalar.q_power(3, Fraction(2))
    assert m * m.inverse() == Scalar.one()
    assert Scalar.q_power(1) ** 4 == Scalar.q_power(4)
    assert Scalar.q_power(1) ** -2 == Scalar.q_power(-2)
    with pytest.raises(StructuralError):
        (Scalar.one() + Scalar.q_power(1)).inverse()


def test_rendering_ascending_exponents():
    s = Scalar({2: 1, 0: 1, -1: Fraction(-1, 2)})
    assert render_scalar(s) == "-1/2*q^-1 + 1 + q^2"
    assert render_scalar(Scalar.zero()) == "0"
    assert render_scalar(Scalar.q_power(1)) == "q"
    assert render_scalar(Scalar.rational(Fraction(-3, 4))) == "-3/4"


def test_atom_rendering_and_sign_split():
    assert split_sign(Scalar.rational(5)) == (False, "5")
    assert split_sign(Scalar.q_power(-2)) == (False, "q^-2")
    assert split_sign(Scalar.q_power(3, 2)) == (False, "(2*q^3)")
    assert split_sign(Scalar.one() - Scalar.q_power(2)) == (False, "(1 - q^2)")
    assert split_sign(Scalar.rational(-2)) == (True, "2")
    assert split_sign(Scalar.q_power(2, -1)) == (True, "q^2")
    assert split_sign(Scalar.one() - Scalar.q_power(1))[0] is False


def test_coefficients_are_ints_when_integral_and_fractions_otherwise():
    half = Scalar.rational(2).inverse()
    assert type(half._terms[0]) is Fraction and half._terms[0] == Fraction(1, 2)
    one = Scalar.rational(Fraction(1, 2)) * 2
    assert type(one._terms[0]) is int and one._terms[0] == 1
    assert one == Scalar.one() and hash(one) == hash(Scalar.one())
    assert type(Scalar({0: Fraction(4, 2)})._terms[0]) is int
    assert Scalar({0: Fraction(4, 2)})._terms[0] == 2

    rnd = random.Random(4242)
    for draw in (_random_scalar, _random_int_scalar):
        for _ in range(150):
            a, b = draw(rnd), draw(rnd)
            m = _random_monomial(rnd)
            results = [a + b, a - b, a * b, 3 * a, a * Fraction(1, 2), -a,
                       a ** rnd.randint(0, 3), m ** rnd.randint(-3, 3), m.inverse()]
            for r in results:
                _assert_canonical_coefficients(r)


def _sympy_oracle():
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")

    def to_sympy(s: Scalar):
        return sum((sympy.Rational(c.numerator, c.denominator) * q ** k for k, c in s.items()),
                   sympy.Integer(0))

    def same(s: Scalar, expr) -> bool:
        return sympy.expand(to_sympy(s) - expr) == 0

    return sympy, q, to_sympy, same


def test_a_constant_hashes_as_the_number_it_equals():
    # equal objects must hash alike, or a set or dict holds both
    for scalar, number in ((Scalar.one(), 1), (Scalar.zero(), 0), (Scalar.rational(-3), -3),
                           (Scalar.rational(Fraction(1, 2)), Fraction(1, 2))):
        assert scalar == number and hash(scalar) == hash(number)
        assert len({scalar, number}) == 1
    assert len({Scalar.q_power(0, 2), Scalar.q_power(1, 2)}) == 2


def test_each_monomial_value_is_one_object():
    assert Scalar({0: 1}) is Scalar.one() is Scalar.coerce(1) is Scalar.rational(Fraction(4, 4))
    assert Scalar({}) is Scalar.zero() is Scalar.coerce(0) is Scalar({3: 0}) is Scalar.one() - 1
    q3 = Scalar.q_power(-3)
    assert Scalar({Fraction(-6, 2): Fraction(2, 2)}) is q3 is Scalar.q_power(3).inverse()
    assert -(-q3) is q3 and Scalar.q_power(-1) * Scalar.q_power(-2) is q3
    assert Scalar({-3: 1, 0: 1}) - 1 is q3 and q3 ** 2 is Scalar.q_power(-6) ** 1
    for copied in (pickle.loads(pickle.dumps(q3)), copy.copy(q3), copy.deepcopy(q3)):
        assert copied is q3
    # polynomials are values, not table entries: equal, hashed alike, never interned
    size = len(_MONOMIALS)
    p = Scalar({100: 1, 101: -1})
    for copied in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p), Scalar({101: -1, 100: 1})):
        assert copied == p and hash(copied) == hash(p)
    assert p * p == Scalar({200: 1, 201: -2, 202: 1}) and len(_MONOMIALS) == size


def test_ring_operations_match_sympy_laurent_arithmetic():
    sympy, q, to_sympy, same = _sympy_oracle()
    rnd = random.Random(20261018)
    for draw in (_random_scalar, _random_int_scalar):
        for _ in range(60):
            a, b = draw(rnd), draw(rnd)
            sa, sb = to_sympy(a), to_sympy(b)
            assert same(a + b, sa + sb)
            assert same(a - b, sa - sb)
            assert same(a * b, sa * sb)
            n = rnd.randint(0, 3)
            assert same(a ** n, sa ** n)
            m = _random_monomial(rnd)
            assert same(m.inverse(), 1 / to_sympy(m))
            n = rnd.randint(-3, 3)
            assert same(m ** n, to_sympy(m) ** n)


def test_exponents_are_integers_never_truncated():
    for bad in (2.9, 2.0, Fraction(3, 2)):
        with pytest.raises(TypeError):
            Scalar({bad: 1})
        with pytest.raises(TypeError):
            Scalar.q_power(bad)
    with pytest.raises(TypeError):
        Scalar.q_power(1.5, Fraction(1, 2))
    assert Scalar.q_power(Fraction(4, 2)) == Scalar.q_power(2)
    assert type(next(iter(Scalar({Fraction(-6, 3): 1})._terms))) is int
    assert Scalar({-2: 1, 3: 2}).items() == [(-2, 1), (3, 2)]


def test_shared_scalars_are_never_changed_by_arithmetic():
    """The zero and every monomial are shared objects and ``1 * x`` is ``x``
    itself: no operation may write into an operand or an interned monomial,
    and every result stays canonical, hashes by value and matches sympy."""
    from cofreehopf.elements import Element

    sympy, q, to_sympy, same = _sympy_oracle()
    rnd = random.Random(20261019)
    operands = [Scalar.one(), Scalar.coerce(1), Scalar.rational(Fraction(4, 4)),
                Scalar.zero(), Scalar.coerce(0), Scalar.coerce(-1)]
    operands += [_random_monomial(rnd) for _ in range(3)]
    operands += [s for s in (_random_scalar(rnd) for _ in range(8)) if len(s._terms) > 1][:3]
    assert len(operands) == 12
    before = [dict(s._terms) for s in operands]
    image = [to_sympy(s) for s in operands]
    x = Element({(0,): Scalar.one(), (1,): operands[-1], (0, 1): operands[6]})
    x_terms = dict(x._terms)
    results = []
    for i, a in enumerate(operands):
        sa = image[i]
        n = rnd.randint(0, 3)
        checks = [(a ** n, sa ** n)]
        if a.is_monomial():
            checks.append((a ** -2, sa ** -2))
        for j, b in enumerate(operands):
            sb = image[j]
            checks += [(a + b, sa + sb), (a - b, sa - sb), (a * b, sa * sb)]
        for r, expected in checks:
            assert same(r, expected), (a, r)
        results += [r for r, _ in checks]
        scaled = x.scale(a)
        for key, c in scaled._terms.items():
            assert same(c, to_sympy(x._terms[key]) * sa)
        assert len(scaled) == (len(x) if a else 0)
        results += scaled._terms.values()
    assert [s._terms for s in operands] == before
    assert x._terms == x_terms
    assert all(m._terms == {k: c} for (k, c), m in _MONOMIALS.items())
    assert all(r is Scalar(r._terms) for r in results if len(r._terms) < 2)
    assert (Scalar.one()._terms, Scalar.zero()._terms) == ({0: 1}, {})
    hashes = {}
    for r in results:
        _assert_canonical_coefficients(r)
        assert r == Scalar(r._terms) and hash(r) == hash(Scalar(r._terms))
        hashes.setdefault(tuple(r.items()), set()).add(hash(r))
    assert all(len(h) == 1 for h in hashes.values())
    assert len(hashes) > 20


def _monomial_grid() -> list[Scalar]:
    coeffs = (1, 3, Fraction(1, 2), Fraction(-2, 3))
    return [Scalar.q_power(k, sign * c) for k in (-3, 0, 2) for c in coeffs for sign in (1, -1)]


def test_sums_and_products_of_monomials_are_the_interned_objects():
    sympy, q, to_sympy, same = _sympy_oracle()
    grid = _monomial_grid() + [Scalar.zero()]
    cancelled = 0
    for a in grid:
        for b in grid:
            product, total = a * b, a + b
            assert product is Scalar(product._terms) is a * b
            assert same(product, to_sympy(a) * to_sympy(b))
            assert same(total, to_sympy(a) + to_sympy(b))
            if len(total._terms) < 2:
                assert total is Scalar(total._terms) is a + b
                cancelled += total is Scalar.zero()
            else:
                assert total is not a + b  # a polynomial: a new object each time
    assert cancelled == len(grid)  # each grid entry against its negative, and 0 + 0
    m = Scalar.q_power(-1, Fraction(-1, 2))
    assert 2 * m is Scalar.rational(2) * m is Scalar.q_power(-1, -1)
    assert Scalar.rational(-1) + 1 is 1 + Scalar.rational(-1) is Scalar.zero()
    p = Scalar({0: 1, 1: -1})
    assert Scalar.one() * p is p and p * 1 is p


def test_an_id_reused_by_a_new_polynomial_never_hits_a_table():
    # a polynomial's id is reused as soon as it is freed: were it ever a key,
    # a later polynomial at the same address would read the earlier result
    sympy, q, to_sympy, same = _sympy_oracle()
    m = Scalar.q_power(-2, -3)
    ids = set()
    for i in range(10_000):
        p = Scalar({-1: i + 1, 2: -1})
        ids.add(id(p))
        assert (m * p)._terms == {-3: -3 * (i + 1), 0: 3}
        assert (m + p)._terms == {-2: -3, -1: i + 1, 2: -1}
        assert (p + m)._terms == (m + p)._terms and (p * m)._terms == (m * p)._terms
        del p
    assert len(ids) < 10_000  # ids were in fact reused
    for i in range(20):
        p = Scalar({0: i - 10, 3: Fraction(1, i + 1)})
        assert same(m * p, to_sympy(m) * to_sympy(p)) and same(m + p, to_sympy(m) + to_sympy(p))


def test_a_sum_of_monomials_of_two_exponents_enters_no_table():
    from cofreehopf import scalars

    a, b = Scalar.q_power(700), Scalar.q_power(701, -2)
    sizes = len(scalars._MONOMIALS), len(scalars._PRODUCTS), len(scalars._SUMS)
    total = a + b
    assert total._terms == {700: 1, 701: -2} and total is not a + b
    assert (len(scalars._MONOMIALS), len(scalars._PRODUCTS), len(scalars._SUMS)) == sizes

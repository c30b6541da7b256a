from __future__ import annotations

import random
import time

import pytest

from cofreehopf import linalg
from cofreehopf.config import parse_config
from cofreehopf.errors import StructuralError
from cofreehopf.scalars import Scalar


def _s(v):
    return Scalar.coerce(v)


def test_invertibility_over_the_fraction_field():
    one, zero, q = Scalar.one(), Scalar.zero(), Scalar.q_power(1)
    assert linalg.is_invertible([[one, q], [zero, one]])
    assert linalg.is_invertible([[one + q, zero], [zero, one]])
    assert not linalg.is_invertible([[one, one], [one, one]])
    assert not linalg.is_invertible([[zero, zero], [zero, one]])


def test_inverse_with_laurent_entries():
    one, zero, q = Scalar.one(), Scalar.zero(), Scalar.q_power(1)
    inv = linalg.inverse([[one, q], [zero, one]])
    assert inv == [[one, -q], [zero, one]]
    inv = linalg.inverse([[q, zero], [zero, _s(2)]])
    assert inv[0][0] == Scalar.q_power(-1)
    assert inv[1][1] * _s(2) == one


def test_inverse_requires_monomial_determinant():
    one, zero, q = Scalar.one(), Scalar.zero(), Scalar.q_power(1)
    with pytest.raises(StructuralError):
        linalg.inverse([[one + q, zero], [zero, one]])
    with pytest.raises(StructuralError):
        linalg.inverse([[one, one], [one, one]])


def test_inverse_times_matrix_is_identity():
    one, zero, q = Scalar.one(), Scalar.zero(), Scalar.q_power(1)
    matrix = [[q, one, zero], [zero, one, q], [zero, zero, Scalar.q_power(-2)]]
    inv = linalg.inverse(matrix)
    n = 3
    for i in range(n):
        for j in range(n):
            entry = Scalar.zero()
            for k in range(n):
                entry = entry + matrix[i][k] * inv[k][j]
            assert entry == (one if i == j else zero)


def _random_matrix(rnd, n, terms=2, density=0.5):
    """Half the entries zero (at the default density), the others sums of
    up to ``terms`` monomials with small exponents and coefficients."""
    return [[Scalar({rnd.randint(-2, 2): rnd.choice([-2, -1, 1, 2, 3]) for _ in range(terms)})
             if rnd.random() < density else Scalar.zero() for _ in range(n)] for _ in range(n)]


def _product(a, b):
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), Scalar.zero()) for j in range(n)]
            for i in range(n)]


def test_a_root_of_the_determinant_at_the_first_point_is_not_singular():
    # det = q - 2 vanishes at q = 2, the first point tried
    one, q = Scalar.one(), Scalar.q_power(1)
    assert linalg.is_invertible([[q, _s(2)], [one, one]])
    with pytest.raises(StructuralError, match="no inverse with Laurent-polynomial entries"):
        linalg.inverse([[q, _s(2)], [one, one]])


def test_a_random_seven_by_seven_with_two_term_entries_is_decided_at_once():
    matrix = _random_matrix(random.Random(7), 7)
    start = time.perf_counter()
    assert linalg.is_invertible(matrix)
    assert time.perf_counter() - start < 1.0


def test_a_singular_nine_by_nine_with_multi_term_entries():
    rnd = random.Random(9)
    matrix = [[Scalar({rnd.randint(-1, 1): rnd.choice([-1, 1, 2]) for _ in range(3)})
               for _ in range(9)] for _ in range(9)]
    assert linalg.is_invertible(matrix)
    f = Scalar.one() + Scalar.q_power(1, 2)
    matrix[8] = [f * a + b for a, b in zip(matrix[0], matrix[3])]
    start = time.perf_counter()
    assert not linalg.is_invertible(matrix)
    assert time.perf_counter() - start < 1.0


def test_a_three_letter_override_with_three_term_entries_loads_at_once():
    letters = ("a", "b", "c")
    rnd = random.Random(3)
    coeffs = ("q", "q^-1", "2", "3", "(1 - q)", "1/2")
    lines = ["[group]", "rank = 0", "", "[basis]"] + [f"{x} =" for x in letters]
    lines += ["", "[braiding]"]
    for x in letters:
        for y in letters:
            words = rnd.sample([f"{u}@{v}" for u in letters for v in letters], 3)
            lines.append(f"{x} {y} -> " + " + ".join(f"{rnd.choice(coeffs)} {w}" for w in words))
    start = time.perf_counter()
    table = parse_config("\n".join(lines) + "\n").braiding_table()
    assert time.perf_counter() - start < 1.0
    assert all(len(entry._terms) == 3 for entry in table.entries.values())


def test_invertibility_and_inverse_match_the_sympy_determinant():
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")
    rnd = random.Random(11)
    monomial_dets = 0
    for n in (1, 2, 2, 3, 3, 3, 4, 4):
        matrix = _random_matrix(rnd, n, density=0.6)
        if rnd.random() < 0.3:  # a unipotent factor keeps the determinant
            lower = [[Scalar.one() if i == j else matrix[i][j] if j < i else Scalar.zero()
                      for j in range(n)] for i in range(n)]
            matrix = _product(lower, [[Scalar.q_power(i) if i == j else Scalar.zero()
                                       for j in range(n)] for i in range(n)])
        det = sympy.factor(sympy.Matrix(n, n, lambda i, j: sum(
            (c * q ** k for k, c in matrix[i][j].items()), sympy.Integer(0))).det())
        assert linalg.is_invertible(matrix) == (det != 0)
        if det != 0 and len(sympy.Poly(sympy.fraction(det)[0], q).terms()) == 1:
            monomial_dets += 1
            identity = [[Scalar.one() if i == j else Scalar.zero() for j in range(n)]
                        for i in range(n)]
            assert _product(matrix, linalg.inverse(matrix)) == identity
        else:
            with pytest.raises(StructuralError):
                linalg.inverse(matrix)
    assert monomial_dets >= 2

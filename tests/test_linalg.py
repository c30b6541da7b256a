from __future__ import annotations

import random
import time

import pytest

from cofreehopf import linalg
from cofreehopf.config import parse_config
from cofreehopf.elements import Element
from cofreehopf.errors import StructuralError
from cofreehopf.grouphopf import _inverse
from cofreehopf.scalars import Scalar


def _s(v):
    return Scalar.coerce(v)


def sparse(matrix):
    """The sparse rows of a list of rows."""
    return [dict(enumerate(row)) for row in matrix]


def inverse(matrix):
    """The inverse of a list of rows, through the letter images of its columns."""
    n = len(matrix)
    images = _inverse(tuple(Element({chr(i): matrix[i][j] for i in range(n)}) for j in range(n)))
    return [[images[j]._terms.get(chr(i), Scalar.zero()) for j in range(n)] for i in range(n)]


def test_invertibility_over_the_fraction_field():
    one, zero, q = Scalar.one(), Scalar.zero(), Scalar.q_power(1)
    assert linalg.is_invertible(sparse([[one, q], [zero, one]]))
    assert linalg.is_invertible(sparse([[one + q, zero], [zero, one]]))
    assert not linalg.is_invertible(sparse([[one, one], [one, one]]))
    assert not linalg.is_invertible(sparse([[zero, zero], [zero, one]]))


def test_inverse_with_laurent_entries():
    one, zero, q = Scalar.one(), Scalar.zero(), Scalar.q_power(1)
    inv = inverse([[one, q], [zero, one]])
    assert inv == [[one, -q], [zero, one]]
    inv = inverse([[q, zero], [zero, _s(2)]])
    assert inv[0][0] == Scalar.q_power(-1)
    assert inv[1][1] * _s(2) == one


def test_inverse_requires_monomial_determinant():
    one, zero, q = Scalar.one(), Scalar.zero(), Scalar.q_power(1)
    with pytest.raises(StructuralError):
        inverse([[one + q, zero], [zero, one]])
    with pytest.raises(StructuralError):
        inverse([[one, one], [one, one]])


def test_inverse_times_matrix_is_identity():
    one, zero, q = Scalar.one(), Scalar.zero(), Scalar.q_power(1)
    matrix = [[q, one, zero], [zero, one, q], [zero, zero, Scalar.q_power(-2)]]
    inv = inverse(matrix)
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
    assert linalg.is_invertible(sparse([[q, _s(2)], [one, one]]))
    with pytest.raises(StructuralError, match="no inverse with Laurent-polynomial entries"):
        inverse([[q, _s(2)], [one, one]])


def test_a_random_seven_by_seven_with_two_term_entries_is_decided_at_once():
    matrix = _random_matrix(random.Random(7), 7)
    start = time.perf_counter()
    assert linalg.is_invertible(sparse(matrix))
    assert time.perf_counter() - start < 1.0


def test_a_singular_nine_by_nine_with_multi_term_entries():
    rnd = random.Random(9)
    matrix = [[Scalar({rnd.randint(-1, 1): rnd.choice([-1, 1, 2]) for _ in range(3)})
               for _ in range(9)] for _ in range(9)]
    assert linalg.is_invertible(sparse(matrix))
    f = Scalar.one() + Scalar.q_power(1, 2)
    matrix[8] = [f * a + b for a, b in zip(matrix[0], matrix[3])]
    start = time.perf_counter()
    assert not linalg.is_invertible(sparse(matrix))
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
    table = parse_config("\n".join(lines) + "\n").braided().braiding
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
        assert linalg.is_invertible(sparse(matrix)) == (det != 0)
        if det != 0 and len(sympy.Poly(sympy.fraction(det)[0], q).terms()) == 1:
            monomial_dets += 1
            identity = [[Scalar.one() if i == j else Scalar.zero() for j in range(n)]
                        for i in range(n)]
            assert _product(matrix, inverse(matrix)) == identity
        else:
            with pytest.raises(StructuralError):
                inverse(matrix)
    assert monomial_dets >= 2


def _flip_like_rows(n: int, equal: bool) -> list[dict[int, Scalar]]:
    """The rows of sigma(a, b) = q^2 (b, a) + q^-2 (a, b) on n letters, with
    sigma(0, 1) made equal to sigma(1, 0) when ``equal``: one singular block
    of two rows among blocks of one and two rows."""
    rows = [{b * n + a: Scalar.q_power(2)} for a in range(n) for b in range(n)]
    for a in range(n):
        for b in range(n):
            rows[a * n + b][a * n + b] = rows[a * n + b].get(a * n + b, Scalar.zero()) \
                + Scalar.q_power(-2)
    if equal:
        rows[1] = dict(rows[n])
    return rows


def _whole_matrix_test(rows) -> bool:
    """The evaluation test over the whole matrix at every one of its D + 1
    points, with no split into blocks: the reference for the block split."""
    span = sum(max(k for s in row.values() for k in s._terms)
               - min(k for s in row.values() for k in s._terms) for row in rows)
    return any(linalg._full_rank([{j: v for j, s in row.items() if (v := linalg._at(s, x))}
                                  for row in rows]) for x in range(2, span + 3))


def test_a_singular_block_inside_a_large_invertible_table_is_refused_at_once():
    assert linalg.is_invertible(_flip_like_rows(20, equal=False))
    start = time.perf_counter()
    assert not linalg.is_invertible(_flip_like_rows(20, equal=True))
    assert time.perf_counter() - start < 0.5
    assert not _whole_matrix_test(_flip_like_rows(4, equal=True))


def test_a_matrix_with_a_non_square_component_is_singular(monkeypatch):
    one, q = Scalar.one(), Scalar.q_power(1)
    # rows 0 and 1 meet only column 0; row 2 alone holds columns 1 and 2
    rows = [{0: one + Scalar.q_power(4)}, {0: q}, {1: one, 2: q}]
    eliminations = []
    full_rank = linalg._full_rank
    monkeypatch.setattr(linalg, "_full_rank", lambda rows: eliminations.append(rows)
                        or full_rank(rows))
    assert not linalg.is_invertible(rows)
    assert len(eliminations) == 1  # the whole matrix at q = 2; no block is eliminated
    monkeypatch.undo()
    # a zero column: three nonzero rows on two of the three columns
    assert not linalg.is_invertible([{0: one, 1: q}, {1: one}, {0: q, 1: one + q}])


def test_the_block_split_agrees_with_the_whole_matrix_on_shuffled_block_sums():
    rnd = random.Random(14)
    outcomes = []
    for _ in range(16):
        rows, offset = [], 0
        for _ in range(rnd.randint(2, 4)):
            size = rnd.randint(1, 3)
            block = [{offset + j: s for j, s in enumerate(row) if s}
                     or {offset + i: Scalar.q_power(rnd.randint(-2, 2))}
                     for i, row in enumerate(_random_matrix(rnd, size, density=0.8))]
            if rnd.random() < 0.2:  # det q - 2: singular at q = 2 only
                size = 2
                block = [{offset: Scalar.q_power(1), offset + 1: _s(2)},
                         {offset: _s(1), offset + 1: _s(1)}]
            elif size > 1 and rnd.random() < 0.3:  # singular: a multiple of another row
                factor = Scalar.q_power(rnd.randint(-1, 1)) * _s(rnd.choice([1, 2]))
                block[-1] = {j: s * factor for j, s in block[0].items()}
            rows += block
            offset += size
        columns = list(range(offset))
        rnd.shuffle(columns)
        rnd.shuffle(rows)
        rows = [{columns[j]: s for j, s in row.items()} for row in rows]
        outcomes.append((linalg.is_invertible(rows), linalg._full_rank_at(rows, 2)))
        assert outcomes[-1][0] == _whole_matrix_test(rows)
    assert set(outcomes) == {(True, True), (True, False), (False, False)}

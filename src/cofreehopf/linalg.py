"""Exact invertibility of matrices over Laurent scalars, by evaluation.

Invertibility over the fraction field Q(q) is decided by evaluation.
Row i of M times q to minus its least exponent holds polynomials of
degree at most d_i, its greatest exponent minus its least, so det M is
a power of q times a polynomial of degree at most D = d_1 + ... + d_n.
At a rational q0 != 0, M(q0) is singular exactly when that polynomial
vanishes at q0.  So one point of full rank proves det M nonzero, and M
is called singular only after D + 1 singular points q0 = 2, ..., D + 2,
since a polynomial of degree at most D with D + 1 roots is zero.  A zero
row is singular at once.  Each point is one sparse rational elimination.
A matrix is the direct sum of the connected components of its row-column
graph, and is invertible exactly when each is square and invertible; after
a first singular point each component is tested alone, with its own D.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import Scalar


def _at(s: Scalar, x: int):
    """The value of ``s`` at q = x, an exact rational."""
    return sum(c * x ** k if k >= 0 else Fraction(c, x ** -k) for k, c in s._terms.items())


def _full_rank(rows: list[dict[int, Fraction]]) -> bool:
    """Whether sparse rows (column -> nonzero value) are independent."""
    pivots: dict[int, dict[int, Fraction]] = {}
    for row in rows:
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = row
                break
            factor = Fraction(row[col], pivot[col])
            for j, v in pivot.items():
                w = row.get(j, 0) - factor * v
                if w:
                    row[j] = w
                else:
                    row.pop(j, None)
        else:
            return False
    return True


def _degree_bound(rows: list[dict[int, Scalar]]) -> int | None:
    """D, the sum over rows of greatest minus least exponent; None for a zero row."""
    span = 0
    for row in rows:
        exponents = [k for s in row.values() for k in s._terms]
        if not exponents:
            return None
        span += max(exponents) - min(exponents)
    return span


def _full_rank_at(rows: list[dict[int, Scalar]], x: int) -> bool:
    return _full_rank([{j: v for j, s in row.items() if (v := _at(s, x))} for row in rows])


def _blocks(rows: list[dict[int, Scalar]]):
    """The rows by connected component of the row-column graph, each
    component with its number of columns."""
    by_column: dict[int, list[int]] = {}
    for i, row in enumerate(rows):
        for j in row:
            by_column.setdefault(j, []).append(i)
    seen: set[int] = set()
    for start in range(len(rows)):
        if start not in seen:
            seen.add(start)
            stack, block, columns = [start], [], set()
            while stack:
                block.append(rows[stack.pop()])
                for j in block[-1].keys() - columns:
                    columns.add(j)
                    stack += [i for i in by_column[j] if i not in seen]
                    seen.update(by_column[j])
            yield block, len(columns)


def is_invertible(matrix: list[list[Scalar] | dict[int, Scalar]]) -> bool:
    """Full-rank test over the fraction field, by evaluation at q = 2, 3, ....
    A row is a list of scalars or, sparse, a dict from column to scalar.
    Past a singular q = 2, each block is tested alone."""
    rows = [row if isinstance(row, dict) else dict(enumerate(row)) for row in matrix]
    if _degree_bound(rows) is None:
        return False
    if _full_rank_at(rows, 2):
        return True
    return all(len(block) == width and any(_full_rank_at(block, x)
                                           for x in range(2, _degree_bound(block) + 3))
               for block, width in _blocks(rows))

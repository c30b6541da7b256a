"""Exact Gaussian elimination over the fraction field of Laurent scalars.

Matrix entries are :class:`Scalar`; intermediate pivoting work happens on
unreduced numerator/denominator pairs.  Denominators that are monomials
are folded into the numerator immediately (monomials are the units of
the Laurent ring), which keeps preset-sized computations fully
polynomial.  Matrix inverses are converted back to Laurent entries by
exact division; a matrix is invertible over the ring if and only if that
conversion succeeds, i.e. its determinant is a monomial.
"""

from __future__ import annotations

from .errors import StructuralError
from .scalars import Scalar, divexact


class _Frac:
    __slots__ = ("num", "den")

    def __init__(self, num: Scalar, den: Scalar):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if den.is_monomial():
            num = num * den.inverse()
            den = Scalar.one()
        elif not num.is_zero():
            shift = Scalar.q_power(-min(num.min_exp(), den.min_exp()))
            num = num * shift
            den = den * shift
        self.num = num
        self.den = den

    @classmethod
    def of(cls, s: Scalar) -> _Frac:
        return cls(s, Scalar.one())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __sub__(self, other: _Frac) -> _Frac:
        return _Frac(self.num * other.den - other.num * self.den, self.den * other.den)

    def __mul__(self, other: _Frac) -> _Frac:
        return _Frac(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: _Frac) -> _Frac:
        if other.is_zero():
            raise ZeroDivisionError("division by zero fraction")
        return _Frac(self.num * other.den, self.den * other.num)

    def to_scalar(self) -> Scalar:
        return divexact(self.num, self.den)


def _eliminate(rows: list[list[_Frac]], n: int) -> bool:
    """Gauss-Jordan on the first ``n`` columns of ``rows``, in place, with
    the pivots left unscaled.  False as soon as a column has no pivot."""
    for col in range(n):
        pivot = next((r for r in range(col, n) if not rows[r][col].is_zero()), None)
        if pivot is None:
            return False
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(n):
            if r == col or rows[r][col].is_zero():
                continue
            factor = rows[r][col] / rows[col][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return True


def is_invertible(matrix: list[list[Scalar]]) -> bool:
    """Full-rank test over the fraction field."""
    return _eliminate([[_Frac.of(entry) for entry in row] for row in matrix], len(matrix))


def inverse(matrix: list[list[Scalar]]) -> list[list[Scalar]]:
    """Inverse with Laurent entries via Gauss-Jordan on [M | I].

    Raises StructuralError when M is singular or its inverse leaves the
    Laurent ring (determinant not a monomial).
    """
    n = len(matrix)
    rows = [
        [_Frac.of(entry) for entry in row]
        + [_Frac.of(Scalar.one() if i == j else Scalar.zero()) for j in range(n)]
        for i, row in enumerate(matrix)
    ]
    if not _eliminate(rows, n):
        raise StructuralError("matrix is singular")
    try:
        return [[(rows[i][n + j] / rows[i][i]).to_scalar() for j in range(n)]
                for i in range(n)]
    except StructuralError as exc:
        raise StructuralError(
            "matrix has no inverse with Laurent-polynomial entries") from exc

"""Exact scalars: Laurent polynomials in one variable q over the rationals.

A scalar is a finite sum ``sum(c_k * q**k)`` with ``k`` ranging over
integers (negative exponents allowed) and ``c_k`` exact rationals.
Canonical form stores no zero coefficients, and stores each coefficient
as a plain ``int`` when it is integral and as a ``Fraction`` only when it
is not, so equality is dictionary equality and the representation
depends only on the value.  Almost every coefficient the presets produce
is an integer, so most arithmetic never enters ``Fraction``.  A float is
never stored: integer division always goes through ``Fraction`` and the
quotient is then normalised back.  Instances are immutable; every
operation returns a new object.

Division is deliberately restricted: units of the Laurent ring are the
nonzero monomials ``c*q**k``, and only those can be inverted.  The
``divexact`` helper performs division when the quotient happens to be a
Laurent polynomial (used by the exact linear algebra in ``linalg``) and
raises otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

from .errors import StructuralError

Rational = Union[int, Fraction]


def _as_fraction(c) -> Rational:
    """The canonical coefficient of ``c``: an ``int`` if integral, else a ``Fraction``."""
    if type(c) is int:
        return c
    if type(c) is Fraction:
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, (int, Fraction)):
        return _as_fraction(Fraction(c))
    raise TypeError(f"exact rational expected, got {type(c).__name__}")


def _wrap(terms: dict[int, Rational]) -> Scalar:
    """A scalar around ``terms``, which must already be canonical."""
    res = Scalar.__new__(Scalar)
    res._terms = terms
    return res


class Scalar:
    """An exact Laurent polynomial in q."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, Rational] | None = None):
        canon: dict[int, Rational] = {}
        if terms:
            for k, c in terms.items():
                c = _as_fraction(c)
                if c:
                    canon[int(k)] = c
        self._terms = canon

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> Scalar:
        return _ZERO

    @classmethod
    def one(cls) -> Scalar:
        return _ONE

    @classmethod
    def rational(cls, c: Rational) -> Scalar:
        return cls({0: c})

    @classmethod
    def q_power(cls, k: int, coeff: Rational = 1) -> Scalar:
        return cls({k: coeff})

    @staticmethod
    def coerce(value: Scalar | Rational) -> Scalar:
        if type(value) is Scalar:
            return value
        return Scalar({0: value})

    # -- structure ---------------------------------------------------------

    def items(self) -> Iterable[tuple[int, Rational]]:
        return sorted(self._terms.items())

    def is_zero(self) -> bool:
        return not self._terms

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    def monomial(self) -> tuple[int, Rational]:
        """The (exponent, coefficient) pair of a monomial scalar."""
        if len(self._terms) != 1:
            raise StructuralError("scalar is not a monomial")
        return next(iter(self._terms.items()))

    def min_exp(self) -> int:
        return min(self._terms)

    def max_exp(self) -> int:
        return max(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if type(other) is not Scalar:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Scalar.coerce(other)
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._terms.items())))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: Scalar | Rational) -> Scalar:
        out = dict(self._terms)
        for k, c in Scalar.coerce(other)._terms.items():
            s = out.get(k, 0) + c
            if type(s) is not int:
                s = _as_fraction(s)
            if s:
                out[k] = s
            else:
                del out[k]
        return _wrap(out)

    __radd__ = __add__

    def __neg__(self) -> Scalar:
        return _wrap({k: -c for k, c in self._terms.items()})

    def __sub__(self, other: Scalar | Rational) -> Scalar:
        return self + (-Scalar.coerce(other))

    def __rsub__(self, other: Rational) -> Scalar:
        return Scalar.coerce(other) + (-self)

    def __mul__(self, other: Scalar | Rational) -> Scalar:
        if type(other) is not Scalar:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Scalar.coerce(other)
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            # A monomial times anything: exponents shift, nothing collides.
            ((k1, c1),) = a.items()
            if len(b) == 1:
                ((k2, c2),) = b.items()
                c = c1 * c2
                return _wrap({k1 + k2: c if type(c) is int else _as_fraction(c)})
            out = {}
            for k2, c2 in b.items():
                c = c1 * c2
                out[k1 + k2] = c if type(c) is int else _as_fraction(c)
            return _wrap(out)
        out = {}
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = k1 + k2
                s = out.get(k, 0) + c1 * c2
                if type(s) is not int:
                    s = _as_fraction(s)
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return _wrap(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Scalar:
        if n < 0:
            return self.inverse() ** (-n)
        out = _ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inverse(self) -> Scalar:
        """Invert a monomial unit c*q**k; other scalars are not units."""
        k, c = self.monomial()
        return Scalar({-k: Fraction(1, c)})

    # -- rendering ----------------------------------------------------------

    def __str__(self) -> str:
        return render_scalar(self)

    def __repr__(self) -> str:
        return f"Scalar({self._terms!r})"


_ZERO = Scalar()
_ONE = Scalar({0: 1})


def _monomial_text(c: Rational, k: int) -> str:
    """Positive-coefficient monomial as text: 5, 5/2, q, q^3, 2*q^-1."""
    if k == 0:
        return str(c)
    qpart = "q" if k == 1 else f"q^{k}"
    if c == 1:
        return qpart
    return f"{c}*{qpart}"


def render_scalar(s: Scalar) -> str:
    """Full sum form with ascending exponents, e.g. ``1 - 2*q + q^2``."""
    if s.is_zero():
        return "0"
    parts: list[str] = []
    for k, c in s.items():
        if not parts:
            parts.append(("-" if c < 0 else "") + _monomial_text(abs(c), k))
        else:
            parts.append((" - " if c < 0 else " + ") + _monomial_text(abs(c), k))
    return "".join(parts)


def scalar_atom(s: Scalar) -> str:
    """Render as a single grammar atom: rational, q-power, or parenthesized sum."""
    if s.is_zero():
        return "0"
    if s.is_monomial():
        k, c = s.monomial()
        if k == 0:
            return str(c)
        if c == 1:
            return _monomial_text(c, k)
    return "(" + render_scalar(s) + ")"


def split_sign(s: Scalar) -> tuple[bool, str]:
    """Split off a leading minus when the remainder stays a grammar atom.

    Returns (negative, atom_text_of_magnitude).  Multi-term scalars are
    never sign-split.
    """
    if s.is_monomial():
        k, c = s.monomial()
        if c < 0:
            return True, scalar_atom(Scalar({k: -c}))
    return False, scalar_atom(s)


def divexact(a: Scalar, b: Scalar) -> Scalar:
    """Exact quotient a/b in the Laurent ring; StructuralError if inexact."""
    if b.is_zero():
        raise ZeroDivisionError("division of scalars by zero")
    if a.is_zero():
        return _ZERO
    if b.is_monomial():
        return a * b.inverse()
    bmax = b.max_exp()
    lead = b._terms[bmax]
    kmin = a.min_exp() - b.min_exp()
    rem = dict(a._terms)
    quot: dict[int, Rational] = {}
    while rem:
        rdeg = max(rem)
        k = rdeg - bmax
        if k < kmin:
            raise StructuralError("scalar division is not exact")
        c = _as_fraction(Fraction(rem[rdeg], lead))
        quot[k] = c
        for be, bc in b._terms.items():
            e = be + k
            s = rem.get(e, 0) - c * bc
            if type(s) is not int:
                s = _as_fraction(s)
            if s:
                rem[e] = s
            else:
                rem.pop(e, None)
    return _wrap(quot)

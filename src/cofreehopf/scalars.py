"""Exact scalars: Laurent polynomials in one variable q over the rationals.

A scalar is a finite sum ``sum(c_k * q**k)`` with ``k`` ranging over
integers (negative exponents allowed) and ``c_k`` exact rationals.
Canonical form stores no zero coefficients, and stores each coefficient
as a plain ``int`` when it is integral and as a ``Fraction`` only when it
is not, so equality is dictionary equality and the representation
depends only on the value.  Almost every coefficient the presets produce
is an integer, so most arithmetic never enters ``Fraction``.  A float is
never stored: integer division always goes through ``Fraction`` and the
quotient is then normalised back.  An exponent is an ``int``: a float or
a fraction such as 3/2 is refused, never truncated.

Instances are immutable, so they are shared.  Zero and every monomial
``c*q**k`` are one object per value: every constructor, ``coerce``,
negation, inversion and every sum or product whose value is a monomial
returns the object in ``_MONOMIALS``, so the unit can be told by ``is``.
Copies and pickles rebuild through the same path.  Almost every
coefficient of a diagonal braiding by q-powers is a monomial, and such
arithmetic sees few distinct values, so it is looked up: the product of
two monomials in ``_PRODUCTS``, and a sum of two interned scalars that is
itself zero or a monomial in ``_SUMS``.  Both tables are keyed by the two
operands' ``id``s and are read before any term dict.  The ids are sound
keys: only interned operands are ever keyed, and those live as long as
the module, so no other object can take an ``id`` that a table holds.
Scalars of two or more terms are new objects each time: there are many
more of them (a dense inverse action makes thousands), each seen once.
Their ``id``s are reused once they are freed, so they are never keys:
their lookups miss and they take the dict paths.  The three tables are
the package's one process-wide state; they hold values, never results
about a spec.

Division is deliberately restricted: units of the Laurent ring are the
nonzero monomials ``c*q**k``, and only those can be inverted.
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
    """A scalar around ``terms``, which must already be canonical: the
    interned object when it is a monomial or zero."""
    if len(terms) == 1:
        (key,) = terms.items()
        s = _MONOMIALS.get(key)
        if s is None:
            s = _MONOMIALS[key] = object.__new__(Scalar)
            s._terms = terms
        return s
    if not terms:
        return _ZERO
    res = object.__new__(Scalar)
    res._terms = terms
    return res


class Scalar:
    """An exact Laurent polynomial in q."""

    __slots__ = ("_terms",)

    def __new__(cls, terms: Mapping[int, Rational] | None = None):
        canon: dict[int, Rational] = {}
        if terms:
            for k, c in terms.items():
                c = _as_fraction(c)
                if c:
                    if type(k) is not int and not (isinstance(k, (int, Fraction)) and k == int(k)):
                        raise TypeError(f"integer exponent expected, got {k!r}")
                    canon[int(k)] = c
        return _wrap(canon)

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the interning path
        return Scalar, (self._terms,)

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
        if type(value) is int:
            return _wrap({0: value}) if value else _ZERO
        return Scalar({0: value})

    # -- structure ---------------------------------------------------------

    def items(self) -> Iterable[tuple[int, Rational]]:
        return sorted(self._terms.items())

    def is_zero(self) -> bool:
        return not self._terms

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if type(other) is not Scalar:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Scalar.coerce(other)
        return self._terms == other._terms

    def __hash__(self) -> int:
        # a constant equals the number it holds, so it hashes as that number
        terms = self._terms
        return hash(terms.get(0, 0) if terms.keys() <= {0} else tuple(sorted(terms.items())))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: Scalar | Rational) -> Scalar:
        if type(other) is not Scalar:
            other = Scalar.coerce(other)
        key = (id(self), id(other))
        res = _SUMS.get(key)
        if res is not None:
            return res
        a, b = self._terms, other._terms
        out = dict(a)
        for k, c in b.items():
            s = out.get(k, 0) + c
            if type(s) is not int:
                s = _as_fraction(s)
            if s:
                out[k] = s
            else:
                del out[k]
        res = _wrap(out)
        if len(out) < 2 and len(a) < 2 and len(b) < 2:
            _SUMS[key] = res  # operands and sum all interned
        return res

    __radd__ = __add__

    def __neg__(self) -> Scalar:
        return _wrap({k: -c for k, c in self._terms.items()})

    def __sub__(self, other: Scalar | Rational) -> Scalar:
        return self + (-Scalar.coerce(other))

    def __mul__(self, other: Scalar | Rational) -> Scalar:
        if type(other) is not Scalar:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Scalar.coerce(other)
        if self is _ONE:
            return other
        if other is _ONE:
            return self
        key = (id(self), id(other))
        res = _PRODUCTS.get(key)
        if res is not None:
            return res
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            # A monomial times anything: exponents shift, nothing collides.
            ((k1, c1),) = a.items()
            if len(b) == 1:
                ((k2, c2),) = b.items()
                res = _PRODUCTS[key] = _wrap({k1 + k2: _as_fraction(c1 * c2)})
                return res
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
        """Invert a monomial unit c*q**k, read off its one term; other scalars
        are not units."""
        if len(self._terms) != 1:
            raise StructuralError("scalar is not a monomial")
        ((k, c),) = self._terms.items()
        return Scalar({-k: Fraction(1, c)})

    # -- rendering ----------------------------------------------------------

    def __str__(self) -> str:
        return render_scalar(self)

    def __repr__(self) -> str:
        return f"Scalar({self._terms!r})"


_MONOMIALS: dict[tuple[int, Rational], Scalar] = {}  # (k, c) -> the one object of c*q**k
_PRODUCTS: dict[tuple[int, int], Scalar] = {}  # (id(a), id(b)) -> a*b, for monomials a, b
_SUMS: dict[tuple[int, int], Scalar] = {}  # (id(a), id(b)) -> a+b, for a, b, a+b zero or monomials
_ZERO = object.__new__(Scalar)
_ZERO._terms = {}
_ONE = _wrap({0: 1})


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


def split_sign(s: Scalar) -> tuple[bool, str]:
    """A scalar as (negative, atom), read off its terms: a monomial's sign
    and the grammar atom of its magnitude, a rational, a q-power or, since
    a product is no atom, a parenthesised ``c*q^k``.  Any other scalar is
    never sign-split: it is its parenthesised sum, and zero is ``0``."""
    terms = s._terms
    if len(terms) != 1:
        return False, f"({render_scalar(s)})" if terms else "0"
    ((k, c),) = terms.items()
    text = _monomial_text(abs(c), k)
    return c < 0, f"({text})" if "*" in text else text

"""Turn-key module algebras: universal Clifford data and the universal
quantum-group data for an integral matrix.

The Clifford family lives over Z/2: each generator letter has odd
degree and is negated by the group generator, the bracket letters
xi_ij (declared for i <= j only) are even and fixed, and the product of
two generator letters in increasing order is the matching bracket
letter; reversed-order products are zero and the diagonal products
carry the polarization factor 1/2.  Those coefficients are exactly the
ones that make the anticommutator of two generators close on a single
bracket letter for every pair, the diagonal included.

The quantum-group family lives over Z^n with one invertible group
generator K_i per row of the integral matrix: E_j scales by q^{c_ij},
F_j by q^{-c_ij}, the bracket letter xi_i is fixed, degrees are K_i,
K_i and K_i^2, and the only nonzero products are E_i F_i = xi_i.

A preset's letters are found by name, ``spec.letter("xi12")`` or
``spec.letter("E2")``; ``spec.names`` lists them in index order:
v1..vn then xi_ij by rows, or E1..En, F1..Fn, xi1..xin.

Builders run every structural validator once and cache the result, a
``Preset`` that holds the spec, so downstream checks can assume
well-formed data.  The relations each family is built to satisfy
(Clifford anticommutators, quantum-group commutators) are checked along
both product routes by the tests.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .braid import check_yang_baxter
from .elements import Element
from .errors import Frozen, StructuralError
from .grouphopf import (
    AbelianGroup,
    YDSpec,
    check_yd_module_algebra,
    check_yetter_drinfeld,
    diagonal_images,
)
from .scalars import Scalar


class Preset(Frozen):
    """A built preset: its validated module algebra."""

    _fields = ("spec",)

    def __init__(self, spec: YDSpec):
        self._set(spec=spec)


def _validate(spec: YDSpec) -> None:
    for result in (
        check_yetter_drinfeld(spec),
        check_yd_module_algebra(spec),
        check_yang_baxter(spec.braiding),
    ):
        if not result:
            raise StructuralError(f"preset failed validation: {result.describe()}")


@lru_cache(maxsize=None)
def build_clifford(n: int) -> Preset:
    if n < 1:
        raise StructuralError("at least one generator is required")
    group = AbelianGroup(rank=0, torsion=(2,))
    eps = group.element([1])
    neutral = group.identity()
    names = [f"v{i}" for i in range(1, n + 1)]
    degrees = [eps] * n
    mult: dict[tuple[int, int], Element] = {}
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            # The diagonal carries the polarization factor 1/2: only then
            # does the anticommutator of a generator with itself close on a
            # single bracket letter, since both ordered products coincide.
            coeff = Fraction(1, 2) if i == j else 1
            mult[(i - 1, j - 1)] = Element.from_word((len(names),), coeff)
            names.append(f"xi{i}{j}")
            degrees.append(neutral)
    action = (diagonal_images([-1] * n + [1] * (len(names) - n)),)
    spec = YDSpec(group, tuple(names), tuple(degrees), action, mult)
    _validate(spec)
    return Preset(spec)


@lru_cache(maxsize=None)
def _build_uqg_cached(cartan: tuple[tuple[int, ...], ...]) -> Preset:
    n = len(cartan)
    if n < 1 or any(len(row) != n for row in cartan):
        raise StructuralError("a square integral matrix is required")
    group = AbelianGroup(rank=n)
    names = [f"E{i}" for i in range(1, n + 1)] \
        + [f"F{i}" for i in range(1, n + 1)] \
        + [f"xi{i}" for i in range(1, n + 1)]
    degrees = []
    for i in range(n):
        exps = [0] * n
        exps[i] = 1
        degrees.append(group.element(exps))
    degrees = degrees + degrees[:] + [
        group.element([2 if k == i else 0 for k in range(n)]) for i in range(n)]
    action = tuple(diagonal_images([Scalar.q_power(c) for c in row]
                                   + [Scalar.q_power(-c) for c in row] + [1] * n)
                   for row in cartan)
    mult = {(i, n + i): Element.from_word((2 * n + i,)) for i in range(n)}
    spec = YDSpec(group, tuple(names), tuple(degrees), action, mult)
    _validate(spec)
    return Preset(spec)


def build_uqg(cartan) -> Preset:
    return _build_uqg_cached(tuple(tuple(int(e) for e in row) for row in cartan))


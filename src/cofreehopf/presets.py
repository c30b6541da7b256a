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

Both families are YD module algebras by construction, so a builder
checks its input (n >= 1; a square, non-empty integral matrix) and
builds the ``YDSpec`` once, whose constructor checks shapes, letters
and a Laurent inverse per generator, and runs no axiom checker:

- Both act diagonally by units: the actions commute, epsilon's signs
  square to 1, and each group element sends a letter to a multiple of
  itself, of the same degree, which over an abelian group is all the
  Yetter-Drinfeld condition asks.
- Each nonzero product of two letters lands in a letter of the product
  degree (epsilon epsilon = e, K_i K_i = K_i^2), and the two letters'
  scalars under each generator multiply to the 1 that fixes the bracket
  letter ((-1)(-1), q^{c_ki} q^{-c_ki}).  So m is a map of YD modules,
  and hence compatible with the induced braiding.
- A bracket letter multiplies nothing, so every product of three
  letters is 0 along both bracketings and m is associative.
- An induced braiding satisfies Yang-Baxter.

``check yd``, ``check alg`` and ``check yb`` confirm each law on a built
preset, and the tests run all three on both families for several sizes,
beside the relations each family is built to satisfy (Clifford
anticommutators, quantum-group commutators) along both product routes.
Each call builds a new spec, whose memos die with it.
"""

from __future__ import annotations

from fractions import Fraction
from operator import index

from .elements import Element
from .errors import Frozen, StructuralError
from .grouphopf import AbelianGroup, YDSpec, diagonal_images
from .scalars import Scalar


class Preset(Frozen):
    """A built preset: its module algebra, valid by construction."""

    _fields = ("spec",)

    def __init__(self, spec: YDSpec):
        self._set(spec=spec)


def build_clifford(n: int) -> Preset:
    try:
        n = index(n)
    except TypeError:
        raise StructuralError("the number of generators must be an integer") from None
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
    return Preset(YDSpec(group, tuple(names), tuple(degrees), action, mult))


def build_uqg(cartan) -> Preset:
    try:
        cartan = [[index(e) for e in row] for row in cartan]
    except TypeError:
        raise StructuralError("a square integral matrix is required") from None
    n = len(cartan)
    if n < 1 or any(len(row) != n for row in cartan):
        raise StructuralError("a square integral matrix is required")
    group = AbelianGroup(rank=n)
    names = [f"E{i}" for i in range(1, n + 1)] \
        + [f"F{i}" for i in range(1, n + 1)] \
        + [f"xi{i}" for i in range(1, n + 1)]
    generators = [group.generator(i) for i in range(n)]
    degrees = generators * 2 + [group.multiply(k, k) for k in generators]
    action = tuple(diagonal_images([Scalar.q_power(c) for c in row]
                                   + [Scalar.q_power(-c) for c in row] + [1] * n)
                   for row in cartan)
    mult = {(i, n + i): Element.from_word((2 * n + i,)) for i in range(n)}
    return Preset(YDSpec(group, tuple(names), tuple(degrees), action, mult))

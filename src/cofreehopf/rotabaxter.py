"""Weight-1 Rota-Baxter structures on the shuffle-type algebras.

The basic operator on the tensor algebra of a unital braided algebra
prepends the unit letter (scalars become the unit letter itself).  The
same move transported to head-distinguished words gives the operator of
the auxiliary algebra whose product multiplies heads and
quasi-shuffles tails; its double product matches the quasi-shuffle
product under the identity on words, which is checked here rather than
assumed.  On the smash product the operator acts on the word leg only,
and conjugating through the smash isomorphism carries it onto the
cotensor coalgebra.

All checks run on explicitly enumerated samples so that failures are
reproducible; the identity itself is evaluated exactly on both sides.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .checks import PASS, CheckResult, fail, nonempty
from .cotensor import CotensorElement, SmashElement, from_smash, smash_product, star, to_smash
from .elements import Element
from .errors import Record, StructuralError
from .grouphopf import YDSpec
from .qalg import crossing, qsh_words, quasi_shuffle
from .scalars import Scalar


class RBInstance(Record):
    """A product, an endomorphism and a weight to test them at."""

    _fields = ("product", "operator", "weight")

    def __init__(self, product: Callable, operator: Callable, weight: Scalar):
        self.product, self.operator, self.weight = product, operator, weight

    __eq__ = Record._equal_values  # and so unhashable

    def scaled(self, factor: Scalar) -> RBInstance:
        """Rescaled operator: weight lambda goes with lambda times the map."""
        factor = Scalar.coerce(factor)
        return RBInstance(
            self.product,
            lambda x: self.operator(x).scale(factor),
            self.weight * factor,
        )


def check_rota_baxter(inst: RBInstance, samples: Iterable[tuple]) -> CheckResult:
    """P(x)P(y) = P(xP(y)) + P(P(x)y) + weight * P(xy) on every sample pair."""
    prod, op, weight = inst.product, inst.operator, inst.weight
    for x, y in nonempty(samples):
        px, py = op(x), op(y)
        lhs = prod(px, py)
        rhs = op(prod(x, py)) + op(prod(px, y)) + op(prod(x, y)).scale(weight)
        if lhs != rhs:
            return fail("rota-baxter", (x, y), lhs, rhs)
    return PASS


def rb_double_product(inst: RBInstance, x, y):
    """x P(y) + P(x) y + weight * x y under the instance's product."""
    prod, op = inst.product, inst.operator
    return prod(x, op(y)) + prod(op(x), y) + prod(x, y).scale(inst.weight)


def _unit(spec) -> str:
    """The unit letter of ``spec``, packed, which every operator here prepends."""
    if spec.unit is None:
        raise StructuralError("operator needs a unital spec; adjoin a unit first")
    return chr(spec.unit)


def unit_prepend(spec: YDSpec, x: Element) -> Element:
    """The weight-1 operator: scalars to the unit letter, words get it prepended."""
    unit = _unit(spec)
    return x.relabel(lambda w: unit + w)


def diamond_product(spec: YDSpec, u: Element, w: Element) -> Element:
    """Product on head-distinguished words: multiply the heads after
    braiding the right head across the left tail, quasi-shuffle the tails."""
    if "" in u._terms:
        raise StructuralError("head-distinguished words must be nonempty")
    zero = Element.zero(spec.alphabet)

    def on_words(uw, ww):
        if not ww:
            raise StructuralError("head-distinguished words must be nonempty")
        a, x = uw[0], uw[1:]
        b, y = ww[0], ww[1:]

        def heads_then_tails(word2):  # the tail quasi-shuffle is skipped under a zero head
            merged = spec.mult[(ord(a), ord(word2[0]))]
            return merged.tensor(qsh_words(spec, word2[1:], y)) if merged else zero

        return crossing(spec, x, b).map_words(heads_then_tails, alphabet=spec.alphabet)

    return u.bilinear(w, on_words, cls=Element, alphabet=spec.alphabet)


def head_shift(spec: YDSpec, x: Element) -> Element:
    """The operator of the head-distinguished algebra: new unit head."""
    _unit(spec)  # a missing unit is reported before an empty word
    if "" in x._terms:
        raise StructuralError("head-distinguished words must be nonempty")
    return unit_prepend(spec, x)


def qsh_rb_instance(spec: YDSpec) -> RBInstance:
    return RBInstance(
        lambda x, y: quasi_shuffle(spec, x, y),
        lambda x: unit_prepend(spec, x),
        Scalar.one(),
    )


def diamond_rb_instance(spec: YDSpec) -> RBInstance:
    return RBInstance(
        lambda x, y: diamond_product(spec, x, y),
        lambda x: head_shift(spec, x),
        Scalar.one(),
    )


def check_double_product_isomorphism(spec: YDSpec,
                                     samples: Iterable[tuple[Element, Element]]) -> CheckResult:
    """The double product of the head-distinguished algebra equals the
    quasi-shuffle product under the identity on underlying words."""
    inst = diamond_rb_instance(spec)
    for u, w in nonempty(samples):
        lhs = rb_double_product(inst, u, w)
        rhs = quasi_shuffle(spec, u, w)
        if lhs != rhs:
            return fail("double-product-vs-quasi-shuffle", (u, w), lhs, rhs)
    return PASS


def smash_rb_operator(s: SmashElement) -> SmashElement:
    """Apply the unit-prepending operator to the word leg, fix the group tag."""
    unit = _unit(s.spec)
    return s.relabel(lambda key: (unit + key[0], key[1]))


def cotensor_rb_operator(x: CotensorElement) -> CotensorElement:
    """The smash-side operator conjugated through the smash isomorphism."""
    return from_smash(smash_rb_operator(to_smash(x)))


def smash_rb_instance(spec) -> RBInstance:
    _unit(spec)  # fail when the instance is built, not on its first use
    return RBInstance(smash_product, smash_rb_operator, Scalar.one())


def star_rb_instance(spec) -> RBInstance:
    _unit(spec)  # fail when the instance is built, not on its first use
    return RBInstance(star, cotensor_rb_operator, Scalar.one())

"""Abelian group algebras as Hopf algebras and Yetter-Drinfeld data over them.

The base Hopf algebra is a group algebra K[G] for G finitely generated
abelian: ``rank`` free generators followed by torsion generators of the
given orders.  Group-likes make the Hopf structure classical: the
coproduct is diagonal, the counit is 1 and the antipode inverts.

A group element is an exponent vector, torsion exponents normalized into
[0, order): a :class:`GroupElement` is a tuple subclass holding the free
part and the torsion part, so hashing, constructing it and reading its
fields run in C, as they do for the chain words built from it.  It is
equal only to a group element with the same exponents, never to a plain
tuple, a chain word or a smash key.  :meth:`AbelianGroup.element`
validates and normalizes outside input; :meth:`AbelianGroup.multiply`
and :meth:`AbelianGroup.inverse` build their results from the exponent
tuples directly.

A Yetter-Drinfeld module over K[G] is a based vector space carrying a
G-grading (the coaction sends a letter v to degree(v) tensor v) and a
G-action given per generator by an exact matrix in the letter basis.
The action is held as letter images, memoised per group element on the
spec: one-letter Elements, the columns of its matrix.  Generator powers
compose through ``Element.map_words`` by square-and-multiply.
The compatibility condition between action and coaction is evaluated
literally by :func:`check_yetter_drinfeld`; for group algebras it pins
the action matrices to the degree grading.  The induced braiding
``v tensor w -> degree(v).w tensor v`` turns any module algebra here
into a braided algebra suitable for the quasi-shuffle machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial, reduce
from operator import add, neg
from typing import Mapping, NamedTuple, Sequence

from . import linalg
from .braid import BraidingTable
from .checks import PASS, CheckResult, fail
from .elements import Element, adjoin_unit_letter, letter_table
from .errors import StructuralError
from .qalg import BraidedAlgebraSpec, check_braided_algebra
from .scalars import Scalar


class GroupElement(NamedTuple):
    """Exponent vector of a group element: free part, then torsion part."""

    free: tuple[int, ...]
    torsion: tuple[int, ...]

    # Equal only to a group element: the reflected tuple comparison would
    # otherwise make a plain (free, torsion) tuple compare equal.
    def __eq__(self, other):
        return type(other) is GroupElement and tuple.__eq__(self, other)

    def __ne__(self, other):
        return type(other) is not GroupElement or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__

    def sort_key(self):
        return (self.free, self.torsion)

    def exponents(self) -> tuple[int, ...]:
        return self.free + self.torsion

    def is_identity(self) -> bool:
        return not any(self.free) and not any(self.torsion)

    def render(self) -> str:
        return "K{" + ",".join(str(e) for e in self.exponents()) + "}"


# GroupElement((free, torsion)) without the Python-level NamedTuple __new__
_group_element = partial(tuple.__new__, GroupElement)


@dataclass(frozen=True)
class AbelianGroup:
    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.rank < 0 or any(m < 2 for m in self.torsion):
            raise StructuralError("group needs rank >= 0 and torsion orders >= 2")

    @property
    def n_generators(self) -> int:
        return self.rank + len(self.torsion)

    def element(self, exponents: Sequence[int]) -> GroupElement:
        """The validating constructor: one integer per generator, torsion reduced."""
        if len(exponents) != self.n_generators:
            raise StructuralError(
                f"expected {self.n_generators} exponents, got {len(exponents)}")
        free = tuple(int(e) for e in exponents[:self.rank])
        tors = tuple(int(e) % m for e, m in zip(exponents[self.rank:], self.torsion))
        return GroupElement(free, tors)

    def identity(self) -> GroupElement:
        return _group_element(((0,) * self.rank, (0,) * len(self.torsion)))

    def generator(self, k: int) -> GroupElement:
        exps = [0] * self.n_generators
        exps[k] = 1
        return self.element(exps)

    def multiply(self, g: GroupElement, h: GroupElement) -> GroupElement:
        (g_free, g_tors), (h_free, h_tors) = g, h
        if not (len(g_free) == len(h_free) == self.rank
                and len(g_tors) == len(h_tors) == len(self.torsion)):
            raise StructuralError(f"{g!r} and {h!r} are not both elements of {self!r}")
        free = tuple(map(add, g_free, h_free))
        if self.torsion:
            return _group_element((free, tuple([(a + b) % m for a, b, m in
                                                zip(g_tors, h_tors, self.torsion)])))
        return _group_element((free, g_tors))

    def inverse(self, g: GroupElement) -> GroupElement:
        free = tuple(map(neg, g.free))
        if self.torsion:
            return _group_element((free, tuple([-a % m for a, m in zip(g.torsion, self.torsion)])))
        return _group_element((free, g.torsion))


class HElement(Element):
    """An element of the group algebra K[G]."""

    __slots__ = ()

    def __init__(self, group: AbelianGroup, terms: Mapping[GroupElement, Scalar] | None = None):
        super().__init__(terms, group)

    @property
    def group(self) -> AbelianGroup:
        return self.alphabet

    @classmethod
    def of(cls, group: AbelianGroup, g: GroupElement, coeff=1) -> HElement:
        return cls(group, {g: Scalar.coerce(coeff)})

    @classmethod
    def unit(cls, group: AbelianGroup) -> HElement:
        return cls.of(group, group.identity())

    def __mul__(self, other: HElement) -> HElement:
        """Group algebra product (convolution of supports)."""
        if self.group != other.group:
            raise StructuralError("group mismatch")
        group = self.group
        return self.bilinear(other, lambda g, h: HElement.of(group, group.multiply(g, h)))


def coproduct(h: HElement) -> Element:
    """Diagonal coproduct: every group element is group-like.

    Returned as an Element over two-letter words whose letters are group
    elements.
    """
    return Element({(g, g): c for g, c in h._terms.items()}, alphabet=h.group)


def counit(h: HElement) -> Scalar:
    return sum(h._terms.values(), Scalar.zero())


def antipode(h: HElement) -> HElement:
    return h.relabel(h.group.inverse)


Matrix = tuple[tuple[Scalar, ...], ...]


def _coerce_matrix(rows, dim: int) -> Matrix:
    matrix = tuple(tuple(Scalar.coerce(entry) for entry in row) for row in rows)
    if len(matrix) != dim or any(len(row) != dim for row in matrix):
        raise StructuralError("action matrix has the wrong shape")
    return matrix


def _compose(a: tuple[Element, ...], b: tuple[Element, ...]) -> tuple[Element, ...]:
    """The letter images of the product AB from those of A and of B."""
    return tuple(image.map_words(lambda w: a[w[0]]) for image in b)


def diagonal_matrix(entries) -> Matrix:
    n = len(entries)
    return tuple(
        tuple(Scalar.coerce(entries[i]) if i == j else Scalar.zero() for j in range(n))
        for i in range(n)
    )


@dataclass(eq=False, frozen=True)
class YDSpec:
    """A based Yetter-Drinfeld module over an abelian group algebra.

    ``degrees[j]`` is the coaction degree of letter j; ``action[k]`` is
    the matrix of the k-th group generator, column j holding the image
    of letter j.  ``mult`` optionally carries structure constants making
    the module an algebra in the category (values are Elements over
    one-letter words; missing pairs mean zero).  ``unit`` optionally
    names a two-sided unit letter.  A spec is immutable: ``mult`` is
    given whole at construction, checked and copied over the spec, and
    ``_cache`` memoises what is derived from it, starting with the
    letter images of the identity, of each generator and of each free
    generator's inverse.
    """

    group: AbelianGroup
    names: tuple[str, ...]
    degrees: tuple[GroupElement, ...]
    action: tuple[Matrix, ...]
    mult: dict[tuple[int, int], Element] | None = None
    unit: int | None = None
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        dim = len(self.names)
        if len(self.degrees) != dim:
            raise StructuralError("one degree per letter is required")
        if len(self.action) != self.group.n_generators:
            raise StructuralError("one action matrix per group generator is required")
        object.__setattr__(self, "action", tuple(_coerce_matrix(m, dim) for m in self.action))
        group = self.group
        self._cache[("act", group.identity())] = self._images(diagonal_matrix([1] * dim))
        for k, matrix in enumerate(self.action):
            try:
                inverse = linalg.inverse(matrix)
            except StructuralError as exc:
                raise StructuralError(f"action matrix of generator g{k + 1} "
                                      f"has no Laurent inverse: {exc}") from exc
            g = group.generator(k)
            self._cache[("act", g)] = self._images(matrix)
            if k < group.rank:  # a torsion generator's powers are never negative
                self._cache[("act", group.inverse(g))] = self._images(inverse)
        if self.mult is not None:
            object.__setattr__(self, "mult", letter_table(self.mult, dim, self))

    def _images(self, matrix) -> tuple[Element, ...]:
        """The columns of ``matrix`` as one-letter Elements: the images of the letters."""
        return tuple(Element({(i,): row[j] for i, row in enumerate(matrix)}, alphabet=self)
                     for j in range(self.dim))

    @property
    def dim(self) -> int:
        return len(self.names)

    def letter(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise StructuralError(f"unknown letter {name!r}") from None

    def mult_entry(self, a: int, b: int) -> Element:
        if self.mult is None:
            raise StructuralError("spec declares no multiplication")
        return self.mult.get((a, b), Element.zero(self))

    # -- action -------------------------------------------------------------

    def action_matrix(self, g: GroupElement) -> tuple[Element, ...]:
        """The images of the letters under g, the columns of its matrix:
        generator powers composed by square-and-multiply from the generators'."""
        key = ("act", g)
        images = self._cache.get(key)
        if images is not None:
            return images
        group = self.group
        if len(g.exponents()) != group.n_generators:
            raise StructuralError("group element has the wrong number of exponents")
        images = self._cache[("act", group.identity())]
        for k, e in enumerate(g.exponents()):
            h = group.generator(k)
            base = self._cache[("act", h if e >= 0 else group.inverse(h))]
            e = abs(e)
            while e:
                if e & 1:
                    images = _compose(images, base)
                e >>= 1
                if e:
                    base = _compose(base, base)
        self._cache[key] = images
        return images

    def act_letter(self, g: GroupElement, j: int) -> Element:
        return self.action_matrix(g)[j]

    def act_word(self, g: GroupElement, word: tuple[int, ...]) -> Element:
        """Diagonal action of a group-like on a tensor word, letterwise."""
        images = self.action_matrix(g)
        return reduce(Element.tensor, (images[letter] for letter in word), Element.unit(self))

    # -- derived structures --------------------------------------------------

    def induced_braiding(self) -> BraidingTable:
        """sigma(v tensor w) = degree(v).w tensor v, extended bilinearly."""
        cached = self._cache.get("braiding")
        if cached is None:
            cached = BraidingTable(self.dim, {
                (a, b): moved.relabel(lambda w: w + (a,))
                for a in range(self.dim)
                for b, moved in enumerate(self.action_matrix(self.degrees[a]))}, alphabet=self)
            self._cache["braiding"] = cached
        return cached

    def with_unit(self) -> YDSpec:
        """Adjoin a unit letter with neutral degree and trivial action."""
        if self.unit is not None:
            raise StructuralError("spec already has a unit letter")
        if self.mult is None:
            raise StructuralError("cannot adjoin a unit without a multiplication")
        dim = self.dim
        mult, names = adjoin_unit_letter(self.mult, dim, self.names)
        degrees = self.degrees + (self.group.identity(),)
        action = tuple(tuple(row + (0,) for row in matrix) + ((0,) * dim + (1,),)
                       for matrix in self.action)
        return YDSpec(self.group, names, degrees, action, mult, dim)


def check_yetter_drinfeld(spec: YDSpec) -> CheckResult:
    """Structural module axioms plus the action/coaction compatibility.

    The compatibility identity is evaluated as written, for every group
    generator h and basis letter v, on both sides of
    ``h v_(-1) tensor h.v_(0) = (h.v)_(-1) h tensor (h.v)_(0)``.
    """
    group = spec.group
    generators = [spec.action_matrix(group.generator(k)) for k in range(group.n_generators)]
    for k, a in enumerate(generators):
        for l in range(k + 1, len(generators)):
            if _compose(a, generators[l]) != _compose(generators[l], a):
                return fail("action-matrices-commute", (f"g{k + 1}", f"g{l + 1}"))
    for k in range(group.rank, group.n_generators):  # g^(order - 1) g must act as 1
        g = group.generator(k)
        if _compose(spec.action_matrix(group.inverse(g)), generators[k]) \
                != spec.action_matrix(group.identity()):
            return fail("torsion-order", f"g{k + 1}")
    for k in range(group.n_generators):
        h = group.generator(k)
        for j in range(spec.dim):
            image = spec.act_letter(h, j)
            hd = group.multiply(h, spec.degrees[j])
            lhs = image.rekey(lambda w: ((hd, w[0]),))
            rhs = image.rekey(lambda w: ((group.multiply(spec.degrees[w[0]], h), w[0]),))
            if lhs != rhs:
                return fail("yetter-drinfeld", (spec.names[j], f"g{k + 1}"), lhs, rhs)
    return PASS


def check_yd_module_algebra(spec: YDSpec) -> CheckResult:
    """The multiplication must be a morphism in the category.

    Checks degree preservation (comodule morphism), generator
    equivariance (module morphism), and the braided-algebra axioms for
    the induced braiding; the unit clauses apply when a unit is declared.
    """
    if spec.mult is None:
        raise StructuralError("spec declares no multiplication")
    group = spec.group
    for a in range(spec.dim):
        for b in range(spec.dim):
            target = group.multiply(spec.degrees[a], spec.degrees[b])
            for (i,), _ in spec.mult_entry(a, b)._terms.items():
                if spec.degrees[i] != target:
                    return fail("mult-degree", (spec.names[a], spec.names[b]),
                                spec.degrees[i], target)
    for k in range(group.n_generators):
        g = group.generator(k)
        for a in range(spec.dim):
            for b in range(spec.dim):
                lhs = spec.mult_entry(a, b).map_words(
                    lambda w: spec.act_letter(g, w[0]), alphabet=spec)
                rhs = spec.act_letter(g, a).bilinear(
                    spec.act_letter(g, b), lambda i, j: spec.mult_entry(i[0], j[0]))
                if lhs != rhs:
                    return fail("mult-equivariance",
                                (spec.names[a], spec.names[b], f"g{k + 1}"), lhs, rhs)
    if spec.unit is not None:
        if not spec.degrees[spec.unit].is_identity():
            return fail("unit-degree", spec.names[spec.unit])
    return check_braided_algebra(braided_spec(spec))


def braided_spec(spec: YDSpec):
    """The braided algebra on the letters of a YD module algebra."""
    cached = spec._cache.get("braided_spec")
    if cached is None:
        if spec.mult is None:
            raise StructuralError("spec declares no multiplication")
        cached = BraidedAlgebraSpec(spec.dim, spec.induced_braiding(), spec.mult,
                                    spec.unit, spec.names, spec)
        spec._cache["braided_spec"] = cached
    return cached

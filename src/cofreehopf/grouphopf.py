"""Abelian group algebras as Hopf algebras and Yetter-Drinfeld data over them.

The base Hopf algebra is a group algebra K[G] for G finitely generated
abelian: ``rank`` free generators followed by torsion generators of the
given orders.  Its basis is group-like, so the package works with the
group elements alone: the degree-0 cotensor key of a group element g is
("", g), and two of them multiply in the group.

A group element is an exponent vector, torsion exponents normalized into
[0, order): a :class:`GroupElement` is a tuple subclass holding the free
part and the torsion part, so hashing, constructing it and reading its
fields run in C, as they do for the keys built from it, a smash or
cotensor key (packed word, group element).  It is equal only to a group
element with the same exponents, never to a plain tuple or to such a
key.  :meth:`AbelianGroup.element` validates and normalizes outside
input; :meth:`AbelianGroup.multiply` and :meth:`AbelianGroup.inverse`
build their results from the exponent tuples directly.  Equal group
elements built by one group are one object: the group interns them in
a table that lives on it, so dict lookups and tuple comparisons of keys
meet the same object and skip the Python-level ``__eq__``.  Beside that table the group memoises
``multiply`` per pair, validating a pair when first computed; a pair
that raises is not stored.  Equality stays by value, so an
element built by hand or by another group works everywhere.

A Yetter-Drinfeld module over K[G] is a based vector space carrying a
G-grading (the coaction sends a letter v to degree(v) tensor v) and a
G-action given per generator by the images of the letters: one-letter
Elements with exact coefficients, the columns of the generator's matrix
and the only form in which the action is given or held.  The images of
every other group element are memoised on the spec.  They are composed
by square-and-multiply, generator by generator in a fixed order, each
image summed from term dicts; the order matters on data whose generator
actions do not commute, which ``check yd`` refuses but a product may
still be asked of.  Each squaring of a generator or of its inverse is
memoised as the images of that power, so it is composed once per spec.

Each generator's action A on n letters is inverted once, from its
images, by the Faddeev-LeVerrier recurrence (U. J. J. Le Verrier, 1840;
D. K. Faddeev and I. S. Sominsky, 1949): with M = I and c = 1, step
k = 1, ..., n sets c = -tr(AM)/k and, while k < n, M = AM + cI.  Then
c = (-1)^n det A and A^-1 = -M/c.  Before that last step only the
integers k divide, so no quotient of Laurent polynomials is ever taken;
A^-1 has Laurent entries exactly when c is a nonzero monomial, a unit,
and a generator whose c is not one is refused.  The n products are
sparse: on a diagonal action the whole recurrence costs O(n^2), on a
dense one O(n^4).  A free generator's inverse images are memoised with
the rest; a torsion generator's inverse is a positive power.

The compatibility condition between action and coaction is evaluated
literally by :func:`check_yetter_drinfeld`; for group algebras it pins
the action matrices to the degree grading.  A module algebra here is
its own braided algebra, the one the quasi-shuffle machinery takes: its
words are tagged with the spec itself (``spec.alphabet``), and
``spec.braiding`` is the induced braiding ``v tensor w -> degree(v).w
tensor v``, built on first read.  So the braiding and the quasi-shuffle
memos live in the spec's one ``_cache`` and die with it, and no second
spec holds a copy of its tables.  ``braided_spec(spec)`` returns the
spec.  A braiding table may instead be given to the constructor, a
config's [braiding] override or data built by hand on rank 0: then
``spec.braiding`` is that table, copied over the spec, and
``with_unit`` extends it by the flip on the unit letter.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import add, index, neg
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .checks import PASS, CheckResult, fail
from .elements import Element, accumulate, letter_table, letters_over, pack_word
from .errors import Frozen, StructuralError
from .scalars import Scalar

if TYPE_CHECKING:  # braid loads with the first braiding, not with the spec
    from .braid import BraidingTable


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

    def exponents(self) -> tuple[int, ...]:
        return self.free + self.torsion

    def is_identity(self) -> bool:
        return not any(self.free) and not any(self.torsion)

    def render(self) -> str:
        return "K{" + ",".join(str(e) for e in self.exponents()) + "}"


class AbelianGroup(Frozen):
    _fields = ("rank", "torsion")

    def __init__(self, rank: int, torsion: tuple[int, ...] = ()):
        try:
            rank, torsion = index(rank), tuple(map(index, torsion))
        except TypeError:
            raise StructuralError("group rank and torsion orders must be integers") from None
        # _elements interns: one GroupElement per plain (free, torsion) pair;
        # _products memoises multiply per pair of elements
        self._set(rank=rank, torsion=torsion, _elements={}, _products={})
        if rank < 0 or any(m < 2 for m in torsion):
            raise StructuralError("group needs rank >= 0 and torsion orders >= 2")

    __eq__ = Frozen._equal_values

    def __hash__(self) -> int:
        return hash(self._values())

    @property
    def n_generators(self) -> int:
        return self.rank + len(self.torsion)

    def _intern(self, exponents: tuple[tuple[int, ...], tuple[int, ...]]) -> GroupElement:
        """The group's one element with these (free, torsion) exponents."""
        g = self._elements.get(exponents)
        if g is None:
            # GroupElement(free, torsion) without the Python-level NamedTuple __new__
            g = self._elements[exponents] = tuple.__new__(GroupElement, exponents)
        return g

    def element(self, exponents: Sequence[int]) -> GroupElement:
        """The validating constructor: one integer per generator, torsion reduced."""
        if len(exponents) != self.n_generators:
            raise StructuralError(
                f"expected {self.n_generators} exponents, got {len(exponents)}")
        try:
            free = tuple(map(index, exponents[:self.rank]))
            tors = tuple(index(e) % m for e, m in zip(exponents[self.rank:], self.torsion))
        except TypeError:
            raise StructuralError("group exponents must be integers") from None
        return self._intern((free, tors))

    def identity(self) -> GroupElement:
        return self._intern(((0,) * self.rank, (0,) * len(self.torsion)))

    def generator(self, k: int) -> GroupElement:
        exps = [0] * self.n_generators
        exps[k] = 1
        return self.element(exps)

    def multiply(self, g: GroupElement, h: GroupElement) -> GroupElement:
        product = self._products.get((g, h))
        if product is not None:
            return product
        (g_free, g_tors), (h_free, h_tors) = g, h
        if not (len(g_free) == len(h_free) == self.rank
                and len(g_tors) == len(h_tors) == len(self.torsion)):
            raise StructuralError(f"{g!r} and {h!r} are not both elements of {self!r}")
        free = tuple(map(add, g_free, h_free))
        if self.torsion:
            g_tors = tuple([(a + b) % m for a, b, m in zip(g_tors, h_tors, self.torsion)])
        product = self._products[(g, h)] = self._intern((free, g_tors))
        return product

    def inverse(self, g: GroupElement) -> GroupElement:
        free = tuple(map(neg, g.free))
        if self.torsion:
            return self._intern((free, tuple([-a % m for a, m in zip(g.torsion, self.torsion)])))
        return self._intern((free, g.torsion))


def _compose(a: tuple[Element, ...], b: tuple[Element, ...]) -> tuple[Element, ...]:
    """The letter images of the product AB from those of A and of B."""
    images, one = [], Scalar.one()
    for image in b:
        out: dict = {}
        for j, c in image._terms.items():
            for key, d in a[ord(j)]._terms.items():
                accumulate(out, key, d if c is one else d * c)
        images.append(Element._wrap(out, image.alphabet))
    return tuple(images)


def _inverse(a: tuple[Element, ...]) -> tuple[Element, ...]:
    """The letter images of A^-1 from those of A, by the Faddeev-LeVerrier
    recurrence.  StructuralError when A is singular or det A is not a monomial."""
    one, zero = Scalar.one(), Scalar.zero()
    m = tuple(Element._wrap({chr(j): one}, image.alphabet) for j, image in enumerate(a))
    c = one
    for k in range(1, len(a) + 1):
        am = _compose(a, m)
        c = sum((image._terms.get(chr(j), zero) for j, image in enumerate(am)), zero) \
            * Fraction(-1, k)
        if k < len(a):
            for j, image in enumerate(am):  # fresh from _compose: AM + cI in place
                accumulate(image._terms, chr(j), c)
            m = am
    if not c:
        raise StructuralError("matrix is singular")
    if not c.is_monomial():
        raise StructuralError("matrix has no inverse with Laurent-polynomial entries")
    factor = -c.inverse()
    return tuple(image.scale(factor) for image in m)


def diagonal_images(entries) -> tuple[Element, ...]:
    """The letter images of the diagonal action scaling letter j by ``entries[j]``."""
    return tuple(Element.from_word((j,), c) for j, c in enumerate(entries))


class YDSpec(Frozen):
    """A based Yetter-Drinfeld module over an abelian group algebra.

    ``degrees[j]`` is the coaction degree of letter j; ``action[k][j]`` is
    the image of letter j under the k-th group generator, an Element over
    packed one-letter words (the j-th column of that generator's matrix).
    ``mult`` carries structure constants making the module an algebra in
    the category, in the same format: its values are Elements over
    packed one-letter words.  The spec stores the total table that
    ``letter_table`` builds from it, zero at every missing pair, so
    leaving ``mult`` out gives the zero multiplication, whose ``star`` is
    Rosso's quantum shuffle product.  ``unit`` optionally names a
    two-sided unit letter.  A spec is immutable: ``action`` and ``mult``
    are given whole at construction, checked and copied over the spec,
    and ``_cache`` memoises what is derived from them, starting with the
    letter images of the identity, of each generator (``action[k]``
    itself) and of each free generator's inverse.  The spec is a braided
    algebra (``alphabet`` and ``braiding``), so its quasi-shuffle and
    crossing memos go in the same ``_cache``.  Its braiding is the one it
    induces, or ``braiding`` when given: a table on the letters, checked
    by its maker, whose entries are copied over the spec.
    """

    _fields = ("group", "names", "degrees", "action", "mult", "unit")

    def __init__(self, group: AbelianGroup, names: tuple[str, ...],
                 degrees: tuple[GroupElement, ...], action: tuple[tuple[Element, ...], ...],
                 mult: dict[tuple[int, int], Element] | None = None, unit: int | None = None,
                 braiding: BraidingTable | None = None):
        self._set(group=group, names=names, degrees=degrees, unit=unit, alphabet=self, _cache={},
                  _given=braiding is not None)
        dim = len(names)
        if braiding is not None:
            if braiding.dim != dim:
                raise StructuralError("braiding dimension does not match the basis size")
            from .braid import BraidingTable
            self._cache["braiding"] = BraidingTable._trusted(dim, {
                pair: Element._wrap(value._terms, self)
                for pair, value in braiding.entries.items()}, self)
        if len(degrees) != dim:
            raise StructuralError("one degree per letter is required")
        if len(action) != group.n_generators:
            raise StructuralError("one action matrix per group generator is required")
        if any(len(images) != dim for images in action):
            raise StructuralError("action matrix has the wrong shape")
        self._set(action=tuple(
            tuple(letters_over(image, dim, self, f"image of {names[j]!r} under g{k + 1}")
                  for j, image in enumerate(images))
            for k, images in enumerate(action)))
        one = Scalar.one()
        self._cache[("act", group.identity())] = tuple(
            Element._wrap({chr(j): one}, self) for j in range(dim))
        for k, images in enumerate(self.action):
            g = group.generator(k)
            self._cache[("act", g)] = images
            try:
                inverse = _inverse(images)
            except StructuralError as exc:
                raise StructuralError(f"action matrix of generator g{k + 1} "
                                      f"has no Laurent inverse: {exc}") from exc
            if k < group.rank:  # a torsion generator's powers are never negative
                self._cache[("act", group.inverse(g))] = inverse
        self._set(mult=letter_table(mult or {}, dim, self))

    @property
    def dim(self) -> int:
        return len(self.names)

    def letter(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise StructuralError(f"unknown letter {name!r}") from None

    # -- action -------------------------------------------------------------

    def action_matrix(self, g: GroupElement) -> tuple[Element, ...]:
        """The images of the letters under g, the columns of its matrix:
        A_1^e_1 ... A_r^e_r composed in that order by square-and-multiply,
        A_k the images of the k-th generator or of its inverse.  The
        squarings A_k^(2^t) are read from, or stored in, the memo as the
        images of those powers; the product is stored for g.  For the k-th
        generator this is ``self.action[k]`` itself; the name predates the
        letter images and stays while the benchmark's tracer looks the
        method up by it."""
        key = ("act", g)
        images = self._cache.get(key)
        if images is not None:
            return images
        group = self.group
        if len(g.exponents()) != group.n_generators:
            raise StructuralError("group element has the wrong number of exponents")
        images = None
        for k, e in enumerate(g.exponents()):
            power = group.generator(k) if e >= 0 else group.inverse(group.generator(k))
            base, e = self._cache[("act", power)], abs(e)
            while e:
                if e & 1:
                    images = base if images is None else _compose(images, base)
                e >>= 1
                if e:
                    power = group.multiply(power, power)
                    square = self._cache.get(("act", power))
                    if square is None:
                        square = self._cache[("act", power)] = _compose(base, base)
                    base = square
        self._cache[key] = images
        return images

    def act_letter(self, g: GroupElement, j: int) -> Element:
        return self.action_matrix(g)[j]

    def act_word(self, g: GroupElement, word) -> Element:
        """Diagonal action of a group-like on a tensor word, packed or a tuple
        of letters, letterwise."""
        images = self.action_matrix(g)
        return reduce(Element.tensor, (images[ord(letter)] for letter in pack_word(word)),
                      Element.unit(self))

    # -- the braided algebra it induces ----------------------------------------

    @property
    def braiding(self) -> BraidingTable:
        """The given braiding, or else the induced one
        sigma(v tensor w) = degree(v).w tensor v, built once.

        The induced table is total and invertible by construction, so it
        is not checked: sigma carries v tensor V onto V tensor v by the action of
        degree(v), a product of generator actions to each of which the
        constructor found a Laurent inverse.  On YD data
        sigma^-1(w tensor v) = v tensor degree(v)^-1.w."""
        cached = self._cache.get("braiding")
        if cached is None:
            from .braid import BraidingTable
            cached = self._cache["braiding"] = BraidingTable._trusted(self.dim, {
                (a, b): moved.relabel(lambda w: w + chr(a))
                for a in range(self.dim)
                for b, moved in enumerate(self.action_matrix(self.degrees[a]))}, alphabet=self)
        return cached

    def with_unit(self) -> YDSpec:
        """Adjoin a unit letter with neutral degree and trivial action, named
        ``one`` with ``_`` appended until it is fresh.  A given braiding is
        extended by the flip on the unit pairs, unchecked: that is a direct
        sum, total and invertible exactly when the given table is."""
        if self.unit is not None:
            raise StructuralError("spec already has a unit letter")
        dim = self.dim
        mult = dict(self.mult)
        for a in range(dim + 1):
            mult[(dim, a)] = mult[(a, dim)] = Element.from_word((a,))
        name = "one"
        while name in self.names:
            name += "_"
        braiding = None
        if self._given:
            from .braid import BraidingTable
            entries = dict(self.braiding.entries)
            for a in range(dim + 1):
                entries[(a, dim)] = Element.from_word((dim, a))
                entries[(dim, a)] = Element.from_word((a, dim))
            braiding = BraidingTable._trusted(dim + 1, entries)
        fixed = Element.from_word((dim,))
        return YDSpec(self.group, self.names + (name,), self.degrees + (self.group.identity(),),
                      tuple(images + (fixed,) for images in self.action), mult, dim, braiding)


def check_yetter_drinfeld(spec: YDSpec) -> CheckResult:
    """Structural module axioms plus the action/coaction compatibility.

    The compatibility identity is evaluated as written, for every group
    generator h and basis letter v, on both sides of
    ``h v_(-1) tensor h.v_(0) = (h.v)_(-1) h tensor (h.v)_(0)``.
    """
    group, generators = spec.group, spec.action
    for k, a in enumerate(generators):
        for l in range(k + 1, len(generators)):
            if _compose(a, generators[l]) != _compose(generators[l], a):
                return fail("action-matrices-commute", (f"g{k + 1}", f"g{l + 1}"))
    for k in range(group.rank, group.n_generators):  # g^(order - 1) g must act as 1
        g = group.generator(k)
        if _compose(spec.action_matrix(group.inverse(g)), generators[k]) \
                != spec.action_matrix(group.identity()):
            return fail("torsion-order", f"g{k + 1}")
    for k, images in enumerate(generators):
        h = group.generator(k)
        for j, image in enumerate(images):
            hd = group.multiply(h, spec.degrees[j])
            lhs = image.rekey(lambda w: ((hd, w),))
            rhs = image.rekey(lambda w: ((group.multiply(spec.degrees[ord(w)], h), w),))
            if lhs != rhs:
                return fail("yetter-drinfeld", (spec.names[j], f"g{k + 1}"), lhs, rhs)
    return PASS


def check_yd_module_algebra(spec: YDSpec) -> CheckResult:
    """The multiplication must be a morphism in the category.

    Checks degree preservation (comodule morphism), generator
    equivariance (module morphism), and the braided-algebra axioms for
    the induced braiding; the unit clauses apply when a unit is declared.
    """
    group = spec.group
    for a in range(spec.dim):
        for b in range(spec.dim):
            target = group.multiply(spec.degrees[a], spec.degrees[b])
            for i in map(ord, spec.mult[(a, b)]._terms):
                if spec.degrees[i] != target:
                    return fail("mult-degree", (spec.names[a], spec.names[b]),
                                spec.degrees[i], target)
    for k, images in enumerate(spec.action):
        for a in range(spec.dim):
            for b in range(spec.dim):
                lhs = spec.mult[(a, b)].map_words(lambda w: images[ord(w)], alphabet=spec)
                rhs = images[a].bilinear(images[b], lambda i, j: spec.mult[(ord(i), ord(j))])
                if lhs != rhs:
                    return fail("mult-equivariance",
                                (spec.names[a], spec.names[b], f"g{k + 1}"), lhs, rhs)
    if spec.unit is not None:
        if not spec.degrees[spec.unit].is_identity():
            return fail("unit-degree", spec.names[spec.unit])
    from .qalg import check_braided_algebra
    return check_braided_algebra(spec)


def braided_spec(spec: YDSpec) -> YDSpec:
    """The braided algebra on the letters of a YD module algebra: the spec itself."""
    return spec

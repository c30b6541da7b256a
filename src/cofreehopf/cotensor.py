"""The cotensor coalgebra on V tensor K[G] and its product structure.

A basis key of degree n is a chain word v_1[]...[]v_n with group
components g_1, ..., g_n satisfying the chain condition
g_k = degree(v_{k+1}) * g_{k+1} at every cut, which is exactly
membership in the iterated cotensor product when the module is
group-graded.  So a chain word is fixed by its letters and its right
degree g_n, and its key is the pair (packed word, g_n), the smash key of
the same basis element: g_k = degree(v_{k+1} ... v_n) * g_n.  In degree
0, the base group algebra, the key of g is ("", g).  A key is on the
chain by construction.  The components are computed only where
something reads them, in one walk from the right end (``_chain``), the
chain letter (v, g) needing degree(v) * g before it: one group product,
memoised by the group, per letter for the coproduct and the product's
prefixes.  Rendering and the term order read many
keys that share components, so they take the walk's steps through a
``ChainWalk`` kept for one rendering, whose components link to the ones
before them: each step is taken once, on first read, with the text of
its chain letter, and is then one dict read.  Both coactions are
monomial on basis keys: the left one reads the left degree
g_0 = degree(v_1) * g_1, the right one reads g_n.

The product is evaluated through the universal property of the cotensor
coalgebra: project the tensor square onto the group algebra (degree-0
part) and onto the module (degree-1 part pi1: left action, right action
and the module multiplication).  On two words the product is the series
S(x, y) = sum of S(x1, y1) . pi1(x2, y2) over the coproduct splits of
the tensor square (by coassociativity), the dot appending a letter, and
on two keys of degree 0 it is their product in the group.  pi1 kills a
pair with a leg of degree two or more, or with both legs of degree 0, so
only three splits survive: the last pair is (last letter, last letter),
(right degree, last letter) or (last letter, right degree), and the
first legs are prefixes (prefix 0 is the left degree, prefix n the
word).  So S lives on the prefix pairs a_i, b_j of the two keys, in one
table filled row by row from T(0, 0), the empty word:

    T(i, j) = T(i-1, j-1) . pi1(last a_i, last b_j)
              + T(i, j-1) . pi1(rd a_i, last b_j)
              + T(i-1, j) . pi1(last a_i, rd b_j)

Every cell reads its three neighbours in that order: the merge, the left
action, the right action.  The product of the two keys is T(n, m).  The
table keeps one row: ``above``, row i-1 overwritten by row i up to column j-1,
with the cells ``left`` and ``diagonal`` beside it, and the last row is
not stored, so one letter times a word of n letters keeps row 0, one
word per cell under a diagonal action, not the Theta(n^3) letters of its
last row.  A source with no words appends nothing, the empty row above
row 0 and the empty cell left of column 0 among them.

Every word of cell (i, j) ends in the same component, rd(a_i) * rd(b_j),
the target of each pi1 the cell reads.  So a cell is a plain dict of
packed words, whose hashes are cached, and T(n, m) is read off as keys
(word, rd(x) * rd(y)) with one group product.  pi1 then needs only
letters and one group element, g = rd(a_i): the right action appends
v_i itself, the left action g.w_j and the merge m(v_i, g.w_j).
Products are not memoised, but the last two are, on the spec
(``spec._cache["pi1"]``), per (v_i or None, g, w_j): the letters with
their coefficients (None for 1), summed on a miss straight from the term
dicts of a letter image and of the multiplication table, and the first
letter u whose degree breaks the chain, or None.  The chain needs
deg(u) = deg(w_j) or deg(v_i) * deg(w_j): a letter appended to a word
of the source cell makes a cut, which holds exactly when the letter has
that degree.  So where the entry names a letter, on data outside the
theorem's hypotheses, appending it to a word raises, naming the word
built.  The right action breaks nothing, since deg(v_i) * g_i = g_(i-1)
by construction, and a letter appended to the empty word makes no cut.

The canonical term order (see ``elements``) compares chain words letter
by letter, each letter (v_k, g_k); the packed keys compare word first,
which is another order.  ``ChainWalk.order`` gives the canonical one
without building chain words: (first letter, g_1, packed word), g_1 the
component after the first letter, so ("", g) sorts first, by g.  Two
keys that agree on (v_1, g_1) have one left degree, so their components
agree wherever their letters agree, and the packed words order them as
their chain words.  A rendering sorts and writes its keys through one ``ChainWalk``
(``order``, ``text``), whose memo dies with the rendering.

The coinvariant side: the projection onto right coinvariants is the
convolution of the identity with the composite
inclusion-antipode-projection; chain words with right degree 1 form the
coinvariant basis, and flattening them to plain tensor words is inverse
to the chain lift that reinstates the group components.  The smash
product on tensor words with a group tag gives the second, independent
route to the same algebra.  On basis keys the isomorphism is the
identity: a cotensor key is its smash key, so ``to_smash`` and
``from_smash`` wrap the same terms as the other element class.
"""

from __future__ import annotations

from functools import partial
from typing import Mapping

from .checks import PASS, CheckResult, fail
from .elements import Element, accumulate, pack_word, render_terms
from .errors import StructuralError
from .grouphopf import GroupElement, YDSpec
from .scalars import _ONE, Scalar

Key = tuple  # (packed word, right degree) in every degree, ("", g) in degree 0


def _chain(spec: YDSpec, key: Key) -> tuple[str, list[GroupElement]]:
    """The letters of a key and its components g_0, ..., g_n, g_0 the left
    degree, in one walk from the right end, the chain letter (v, g) needing
    degree(v) * g before it; ("", g) gives ("", [g]).  This is the one
    walk: a ``ChainWalk`` memoises its steps one letter at a time."""
    word, g = key
    components = [g]
    for v in reversed(word):
        components.append(spec.group.multiply(spec.degrees[ord(v)], components[-1]))
    return word, components[::-1]


class _WordGroupElement(Element):
    """A combination of keys (packed word, group element) over one spec: the
    cotensor coalgebra's basis keys and the smash product's are the same
    pairs.  The constructor, the public boundary, reads a group element g
    among its keys as ("", g)."""

    __slots__ = ()

    def __init__(self, spec: YDSpec, terms: Mapping[Key | GroupElement, Scalar] | None = None):
        canon: dict = {}
        for key, c in (terms or {}).items():
            accumulate(canon, ("", key) if isinstance(key, GroupElement) else key, Scalar.coerce(c))
        self._terms, self.alphabet = canon, spec

    @property
    def spec(self) -> YDSpec:
        return self.alphabet

    @classmethod
    def unit(cls, spec: YDSpec):
        return cls._wrap({("", spec.group.identity()): Scalar.one()}, spec)


class CotensorElement(_WordGroupElement):
    """A finite combination of basis keys of the cotensor coalgebra."""

    __slots__ = ()

    def support(self, order=None) -> list:
        """The keys in the canonical order, by default ``ChainWalk.order``."""
        return super().support(order or ChainWalk(self.spec).order)

    @classmethod
    def from_word(cls, spec: YDSpec, key: Key | GroupElement) -> CotensorElement:
        """The basis key ``key`` with coefficient 1: a packed word over the
        spec's letters with its right degree, ("", g) in degree 0, or g
        itself.  Anything else, a chain word written letter by letter among
        them, raises."""
        key = ("", key) if isinstance(key, GroupElement) else key
        if not (type(key) is tuple and len(key) == 2 and type(key[0]) is str
                and isinstance(key[1], GroupElement)
                and max(map(ord, key[0]), default=-1) < spec.dim):
            raise StructuralError(f"not a cotensor key: {key!r}")
        return cls._wrap({key: Scalar.one()}, spec)


def check_chain_condition(spec: YDSpec, terms) -> CheckResult:
    """Validate the chain condition at every cut of every chain word given
    letter by letter, as a tuple of (letter index, group element) pairs:
    the form a config annotates.  A basis key (a packed word with its right
    degree) is on the chain by construction and passes.

    ``terms`` may be a CotensorElement or any iterable of such words and
    keys (a mapping iterates its keys).  A failure's witness is the pair
    (word, first violating cut, 1-based).
    """
    keys = terms._terms if isinstance(terms, CotensorElement) else terms
    for key in keys:
        if type(key[0]) is str:  # a basis key
            continue
        for k in range(len(key) - 1):
            v_next, g_next = key[k + 1]
            g, need = key[k][1], spec.group.multiply(spec.degrees[v_next], g_next)
            if g is not need and g != need:
                return fail("cotensor-chain", (key, k + 1))
    return PASS


# -- coproduct ------------------------------------------------------------


def coproduct_pairs(spec: YDSpec, key: Key) -> list[tuple[Key, Key]]:
    """Basis coproduct; every pair carries coefficient 1: the n + 1
    deconcatenations of a key of degree n, the left leg ending in the
    component at its cut.  So ("", g) is group-like."""
    word, components = _chain(spec, key)
    return [((word[:k], components[k]), (word[k:], key[1])) for k in range(len(word) + 1)]


def _pair_alphabet(spec: YDSpec):
    return ("cotensor2", spec)


def coproduct(x: CotensorElement) -> Element:
    """The coalgebra coproduct as an Element over pairs of basis keys."""
    return x.rekey(partial(coproduct_pairs, x.spec), cls=Element, alphabet=_pair_alphabet(x.spec))


# -- the universal-property product ------------------------------------------


def _pi1(spec: YDSpec, v: str | None, g: GroupElement, w: str) -> tuple:
    """pi1 on letters: the left action g.w when v is None, else the merge
    m(v, g.w), as ((letter, coefficient or None for 1), ...), and the first
    letter whose degree is not the one the chain needs, deg w or deg v *
    deg w, or None."""
    terms, degree = spec.act_letter(g, ord(w))._terms, spec.degrees[ord(w)]
    if v is not None:
        image, terms, one = terms, {}, Scalar.one()
        for i, c in image.items():
            for k, d in spec.mult[(ord(v), ord(i))]._terms.items():
                accumulate(terms, k, d if c is one else d * c)
        degree = spec.group.multiply(spec.degrees[ord(v)], degree)
    return (tuple((u, None if d is Scalar.one() else d) for u, d in terms.items()),
            next((u for u in terms if spec.degrees[ord(u)] != degree), None))


def _prefix_table(spec: YDSpec, kx: Key, ky: Key) -> CotensorElement:
    """The product of two keys: T(n, m) of the module docstring, filled
    from T(0, 0), the empty word, one row of prefix pairs at a time over
    one stored row; a cell holds packed words, which all end in the
    component rd(a_i) * rd(b_j)."""
    (x, gs), (y, hs) = _chain(spec, kx), _chain(spec, ky)
    memo = spec._cache.setdefault("pi1", {})

    def append(cell, source, key, i, j):
        """cell (i, j) += source . pi1 read at key (v, g_i, w): the merge
        from cell (i - 1, j - 1), or the left action (v None) from (i, j - 1).
        The entry's breaking letter raises unless the source is the empty
        word."""
        entry = memo.get(key)
        if entry is None:
            entry = memo[key] = _pi1(spec, *key)
        terms, broken = entry
        if broken is not None and (word := next(iter(source))):
            end = spec.group.multiply(gs[i - (key[0] is not None)], hs[j - 1])
            g = spec.group.multiply(gs[i], hs[j])
            raise StructuralError("product left the cotensor subspace: chain word "
                                  f"{ChainWalk(spec).text((word, end))}[]"
                                  f"{ChainWalk(spec).text((broken, g))} breaks at cut {len(word)}")
        for u, d in terms:
            for word, c in source.items():
                accumulate(cell, word + u, c if d is None else c * d)

    above, ws = [{}] * len(hs), (None, *y)
    for i, (v, g) in enumerate(zip((None, *x), gs)):
        left = diagonal = {}
        for j, w in enumerate(ws):
            cell = {} if i or j else {"": Scalar.one()}
            if diagonal:
                append(cell, diagonal, (v, g, w), i, j)
            if left:
                append(cell, left, (None, g, w), i, j)
            for word, c in above[j].items():  # the right action: v_i itself
                accumulate(cell, word + v, c)
            diagonal, left = above[j], cell
            above[j] = cell if i < len(gs) - 1 else {}  # the last row is not stored
    g = spec.group.multiply(gs[-1], hs[-1])
    return CotensorElement._wrap({(word, g): c for word, c in left.items()}, spec)


def star(x: CotensorElement, y: CotensorElement) -> CotensorElement:
    """The associative product induced by the universal property."""
    if x.spec is not y.spec:
        raise StructuralError("cotensor elements over different module data")
    return x.bilinear(y, partial(_prefix_table, x.spec))


# -- right coinvariants --------------------------------------------------------


def right_translate(spec: YDSpec, key: Key, g: GroupElement) -> Key:
    """The right module action of a group element on a basis key."""
    return key[0], spec.group.multiply(key[1], g)


def coinvariant_projection(x: CotensorElement) -> CotensorElement:
    """Convolution of the identity with inclusion-antipode-projection: the
    coproduct, the antipode on degree-0 second legs, then the product."""
    spec = x.spec
    legs = x.rekey(lambda key: [(k1, ("", spec.group.inverse(k2[1])))
                                for k1, k2 in coproduct_pairs(spec, key) if not k2[0]],
                   cls=Element, alphabet=_pair_alphabet(spec))
    return legs.map_words(lambda pair: _prefix_table(spec, *pair), cls=CotensorElement,
                          alphabet=spec)


def coinvariant_projection_direct(x: CotensorElement) -> CotensorElement:
    """The closed form of the same projection: kill the right degree."""
    e = x.spec.group.identity()
    return x.rekey(lambda key: ((key[0], e),))


def flatten_coinvariant(x: CotensorElement) -> Element:
    """Strip the group components off a right-coinvariant element."""
    if not all(g.is_identity() for _, g in x._terms):
        raise StructuralError("element is not right-coinvariant")
    return x.relabel(lambda key: key[0], cls=Element)


def chain_lift_word(spec: YDSpec, word) -> Key:
    """The key of a tensor word, packed or a tuple of letters, with right
    degree 1: its group components are the suffix degree products."""
    return pack_word(word), spec.group.identity()


def chain_lift(spec: YDSpec, x: Element) -> CotensorElement:
    """The coinvariant embedding of the tensor space over the letters."""
    return x.relabel(partial(chain_lift_word, spec), cls=CotensorElement, alphabet=spec)


# -- the smash-product route ---------------------------------------------------


class SmashElement(_WordGroupElement):
    """A combination of (tensor word over the letters, group element) pairs.

    The word leg is packed, one code point per letter, like every tensor
    word (``elements.pack_word``); ``of`` packs a tuple of letters, and
    ``tuple(map(ord, word))`` reads one back."""

    __slots__ = ()

    @classmethod
    def of(cls, spec: YDSpec, word, g: GroupElement | None = None) -> SmashElement:
        """The key (word, g), the word packed or a tuple of letters."""
        if g is None:
            g = spec.group.identity()
        return cls(spec, {(pack_word(word), g): Scalar.one()})


def smash_product(x: SmashElement, y: SmashElement) -> SmashElement:
    """(u # g)(w # g') = (u qsh g.w) # gg' (D. E. Radford, *J. Algebra* 92,
    1985), the group acting letterwise, in one pass over the pairs of
    terms: each pair takes one group product and the words w' of g.w, and
    each memoised u qsh w' goes straight into the result under the keys
    (word, gg'), one scalar product per term, none for a coefficient of 1.
    As in ``elements._extend``, the first product goes into the empty
    result as it is, since nonzero scalars have a nonzero product."""
    if x.spec is not y.spec:
        raise StructuralError("smash elements over different module data")
    from .qalg import qsh_words
    spec, out = x.spec, {}
    for (u, g), c in x._terms.items():
        for (w, g2), d in y._terms.items():
            tag, cd = spec.group.multiply(g, g2), c * d
            for moved, e in spec.act_word(g, w)._terms.items():
                scale, terms = cd * e, qsh_words(spec, u, moved)._terms
                if out:
                    for word, f in terms.items():
                        accumulate(out, (word, tag), f if scale is _ONE else f * scale)
                else:
                    out = {(word, tag): f if scale is _ONE else f * scale
                           for word, f in terms.items()}
    return SmashElement._wrap(out, spec)


def to_smash(x: CotensorElement) -> SmashElement:
    """Each basis key to (letters, right degree): the closed form of the sum
    of P(x1) # pi(x2) over the coproduct, P the coinvariant projection and
    pi the projection onto the group algebra.  Every key is that pair
    already, so the same terms are wrapped as a smash element; no operation
    changes an element in place, so the two share the dict."""
    return SmashElement._wrap(x._terms, x.spec)


def from_smash(s: SmashElement) -> CotensorElement:
    """The inverse of ``to_smash``; this route shares no code with star."""
    return CotensorElement._wrap(s._terms, s.spec)


# -- rendering ------------------------------------------------------------------


def render_letter(spec, letter) -> str:
    """The one source of letter text: a packed letter reads as its name, a
    group element as ``K{...}``."""
    return spec.names[ord(letter)] if type(letter) is str else letter.render()


def render_word(spec, word) -> str:
    """A tensor word as its letters joined by ``@``; the empty word reads
    ``1``.  A tuple of letter indices, as a check's witness holds, is packed
    first."""
    return "@".join(render_letter(spec, letter) for letter in pack_word(word)) or "1"


class _Component(dict):
    """A component g on one walk.  Each letter v read before it maps to the
    text ``name.K{...}`` of the chain letter (v, g) and to the component
    degree(v) * g before it, both made on first read."""

    __slots__ = ("walk", "g")

    def __init__(self, walk: ChainWalk, g: GroupElement):
        self.walk, self.g = walk, g

    def __missing__(self, v: str) -> tuple[str, _Component]:
        spec = self.walk.spec
        previous = self.walk[_chain(spec, (v, self.g))[1][0]]  # the left degree of (v, g)
        step = self[v] = (f"{spec.names[ord(v)]}.{self.g.render()}", previous)
        return step


class ChainWalk(dict):
    """The walk over the chain words of one rendering, from their right
    ends: each group element read maps to its ``_Component``, made on first
    read.  ``text`` and ``order`` read a basis key, or a pair, through it."""

    def __init__(self, spec: YDSpec):
        self.spec = spec

    def __missing__(self, g: GroupElement) -> _Component:
        component = self[g] = _Component(self, g)
        return component

    def text(self, key: Key) -> str:
        """A basis key as its letters joined by ``[]``: a chain word as one
        text per chain letter, ("", g) as g.  No letter's text holds ``[]``."""
        word, g = key
        component, out = self[g], []
        for v in reversed(word):
            text, component = component[v]
            out.append(text)
        return "[]".join(reversed(out)) or g.render()

    def order(self, key):
        """The sort key of the canonical order (the chain words' letters
        compared one by one) on basis keys and pairs of them, read off the
        packed keys: ("", g) first and by g, then a word by its first chain
        letter (v_1, g_1) and its packed word (see the module docstring)."""
        if type(key[0]) is not str:  # a pair of keys
            return tuple(map(self.order, key))
        word, component = key[0], self[key[1]]
        for v in word[:0:-1]:  # to the component g_1 of the first letter
            component = component[v][1]
        return (word[:1], component.g, word)


def render_cotensor(x: CotensorElement) -> str:
    walk = ChainWalk(x.spec)
    return render_terms(x, walk.text, walk.order)


def render_smash(x: SmashElement) -> str:
    return render_terms(x, lambda key: render_word(x.spec, key[0]) + "#"
                        + render_letter(x.spec, key[1]))


def render_pairs(spec: YDSpec, x: Element) -> str:
    """Canonical text for an Element over pairs of basis keys."""
    walk = ChainWalk(spec)
    return render_terms(x, lambda pair: " (x) ".join(map(walk.text, pair)), walk.order)

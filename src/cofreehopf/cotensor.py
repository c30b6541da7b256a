"""The cotensor coalgebra on V tensor K[G] and its product structure.

Basis keys come in two kinds.  A degree-0 key is a group element (the
base group algebra sits in degree 0).  A degree-n key is a chain word: a
tuple of (letter, group element) pairs whose group components satisfy
the chain condition g_k = degree(v_{k+1}) * g_{k+1} at every cut, which
is exactly membership in the iterated cotensor product when the module
is group-graded.  Both coactions are then monomial on basis keys: the
left one reads degree(v_1) * g_1 off the first pair, the right one reads
g_n off the last.

The product is evaluated through the universal property of the cotensor
coalgebra: project the tensor square onto the group algebra (degree-0
part) and onto the module (degree-1 part pi1: left action, right action
and the module multiplication).  On two words the product is the series
S(x, y) = pi1(x, y) + sum of S(x1, y1) . pi1(x2, y2) over the coproduct
splits of the tensor square (by coassociativity), the dot appending a
letter.  pi1 kills a pair with a leg of degree two or more, or with both
legs of degree 0, so only three splits survive: the last pair is (right
degree, last letter), (last letter, right degree) or (last letter, last
letter), and the first legs are prefixes (prefix 0 is the left degree,
prefix n the word).  So S lives on the prefix pairs a_i, b_j of the two
keys, in one table filled row by row:

    T(i, j) = pi1(a_i, b_j) + T(i, j-1) . pi1(rd a_i, last b_j)
              + T(i-1, j) . pi1(last a_i, rd b_j)
              + T(i-1, j-1) . pi1(last a_i, last b_j)

The product of the two keys is T(n, m); two group elements multiply in
the group.  The table reads the column prefixes once per product, and a
cell visits only the sources that hold words.  Products are not
memoised, but pi1 of each pair the table reads is, on the spec
(``spec._cache["pi1"]``), as triples (code point, coefficient or None
for 1, need), need = degree(v) * g being the component the letter (v, g)
requires just before it.  A miss sums pi1 straight from the term dicts
of a letter image and of the multiplication table, with one group
product for its component, and gives each new letter the next code point
of the spec's table ``spec._cache["codes"]`` (letter to code and back, at
most 0x110000 letters).  A cell holds its words packed as strings, whose
hashes are cached, and the one last component they share, rd(a_i) *
rd(b_j); only T(n, m) is unpacked.  The chain condition is guarded there
too: before a letter is appended to a cell, need is compared with that
component (by identity first, since a group interns its elements, then
by value), so each cut of each word built is checked once, and a product
that leaves the chain words raises.

The coinvariant side: the projection onto right coinvariants is the
convolution of the identity with the composite
inclusion-antipode-projection; chain words with trailing group element 1
form the coinvariant basis, and flattening them to plain tensor words is
inverse to the chain lift that reinstates the group components.  The
smash product on tensor words with a group tag gives the second,
independent route to the same algebra.  On basis keys the isomorphism is
a relabel, since a chain word is fixed by its letters and its right
degree: g_k = degree(v_{k+1} ... v_n) * g_n.
"""

from __future__ import annotations

from functools import partial
from typing import Mapping

from .checks import PASS, CheckResult, fail
from .elements import Element, accumulate, pack_word, render_terms
from .errors import StructuralError
from .grouphopf import GroupElement, YDSpec
from .scalars import Scalar

MWord = tuple  # tuple[(letter index, GroupElement), ...]
Key = object   # GroupElement (degree 0) or MWord (degree >= 1)
_DIRECT = ((0, 1), (1, 0), (1, 1))  # the prefix degrees (i, j) on which pi1 can be nonzero


def key_degree(key: Key) -> int:
    return 0 if isinstance(key, GroupElement) else len(key)


def left_degree(spec: YDSpec, key: Key) -> GroupElement:
    if isinstance(key, GroupElement):
        return key
    v, g = key[0]
    return spec.group.multiply(spec.degrees[v], g)


def right_degree(spec: YDSpec, key: Key) -> GroupElement:
    if isinstance(key, GroupElement):
        return key
    return key[-1][1]


class CotensorElement(Element):
    """A finite combination of basis keys of the cotensor coalgebra."""

    __slots__ = ()

    def __init__(self, spec: YDSpec, terms: Mapping[Key, Scalar] | None = None):
        super().__init__(terms, spec)

    @property
    def spec(self) -> YDSpec:
        return self.alphabet

    # -- constructors ------------------------------------------------------

    @classmethod
    def unit(cls, spec: YDSpec) -> CotensorElement:
        return cls(spec, {spec.group.identity(): Scalar.one()})

    @classmethod
    def from_word(cls, spec: YDSpec, word: MWord) -> CotensorElement:
        word = tuple((int(v), g) for v, g in word)
        result = check_chain_condition(spec, [word])
        if not result:
            raise StructuralError(f"chain condition fails at cut {result.witness[1]} "
                                  f"of {render_key(spec, word)}")
        return cls(spec, {word: Scalar.one()})


def check_chain_condition(spec: YDSpec, terms) -> CheckResult:
    """Validate the chain condition at every cut of every word.

    ``terms`` may be a CotensorElement or any iterable of keys (a mapping
    iterates its keys), each a group element or a chain word.  A failure's
    witness is the pair (word, first violating cut, 1-based).
    """
    keys = terms._terms if isinstance(terms, CotensorElement) else terms
    for key in keys:
        if isinstance(key, GroupElement):
            continue
        for k in range(len(key) - 1):
            v_next, g_next = key[k + 1]
            g, need = key[k][1], spec.group.multiply(spec.degrees[v_next], g_next)
            if g is not need and g != need:
                return fail("cotensor-chain", (key, k + 1))
    return PASS


# -- coproduct ------------------------------------------------------------


def coproduct_pairs(spec: YDSpec, key: Key) -> list[tuple[Key, Key]]:
    """Basis coproduct; every pair carries coefficient 1.

    Group elements are group-like.  A chain word splits as the left
    degree prepended, all interior deconcatenations, and the right
    degree appended.
    """
    if isinstance(key, GroupElement):
        return [(key, key)]
    pairs: list[tuple[Key, Key]] = [(left_degree(spec, key), key)]
    pairs.extend((key[:k], key[k:]) for k in range(1, len(key)))
    pairs.append((key, right_degree(spec, key)))
    return pairs


def _pair_alphabet(spec: YDSpec):
    return ("cotensor2", spec)


def coproduct(x: CotensorElement) -> Element:
    """The coalgebra coproduct as an Element over pairs of basis keys."""
    return x.rekey(partial(coproduct_pairs, x.spec), cls=Element, alphabet=_pair_alphabet(x.spec))


# -- the universal-property product ------------------------------------------


def _module_projection(spec: YDSpec, a: Key, b: Key) -> dict[tuple[int, GroupElement], Scalar]:
    """Degree-1 projection of the product map on a basis pair of the square.

    Left action for (group, letter) pairs, right action for (letter,
    group), the module multiplication in smash form for (letter, letter);
    everything else projects to zero.
    """
    shape = key_degree(a), key_degree(b)
    if shape == (0, 1):
        (v, g2), = b
        image = spec.act_letter(a, v)._terms
        target = spec.group.multiply(a, g2)
        return {(ord(i), target): c for i, c in image.items()}
    if shape == (1, 0):
        (v, g1), = a
        return {(v, spec.group.multiply(g1, b)): Scalar.one()}
    if shape != (1, 1):
        return {}
    ((v, g1),), ((w, g2),) = a, b
    image, out, one = spec.act_letter(g1, w)._terms, {}, Scalar.one()
    target = spec.group.multiply(g1, g2)
    for i, c in image.items():
        for k, d in spec.mult[(v, ord(i))]._terms.items():
            accumulate(out, (ord(k), target), d if c is one else d * c)
    return out


def _star_key(spec: YDSpec, kx: Key, ky: Key) -> CotensorElement:
    if key_degree(kx) + key_degree(ky) == 0:
        return CotensorElement(spec, {spec.group.multiply(kx, ky): Scalar.one()})
    return CotensorElement._wrap(_prefix_table(spec, kx, ky), spec)


def _projection_entry(spec: YDSpec, a: Key, b: Key) -> tuple:
    """pi1(a, b) as (letter, coefficient or None for 1, need = deg(v) * g) per letter (v, g)."""
    one, multiply, degrees = Scalar.one(), spec.group.multiply, spec.degrees
    return tuple((letter, None if d is one else d, multiply(degrees[letter[0]], letter[1]))
                 for letter, d in _module_projection(spec, a, b).items())


def _prefix_table(spec: YDSpec, kx: Key, ky: Key) -> dict[MWord, Scalar]:
    """T(n, m) of the module docstring, filled one row of prefix pairs at a
    time; a cell holds its words, packed, and the last component they share."""
    def prefixes(key):  # (right degree, last letter) of prefix 0 .. n; prefix 0 stands for both
        start = left_degree(spec, key)
        return [(start, start)] + [(key[i][1], key[i:i + 1]) for i in range(key_degree(key))]

    memo = spec._cache.setdefault("pi1", {})
    codes, letters = spec._cache.setdefault("codes", ({}, []))  # chain letter <-> code point

    def code(letter) -> str:  # a new letter takes the next code point
        if letter not in codes:
            if len(letters) == 0x110000:
                raise StructuralError("the products of a spec name at most 1114112 chain letters")
            codes[letter] = chr(len(letters))
            letters.append(letter)
        return codes[letter]

    def append(cell, source, x, y):  # cell += source . pi1(x, y), guarding each cut it makes
        words, end = source
        if not words:
            return
        entry = memo.get((x, y))
        if entry is None:
            entry = memo[(x, y)] = tuple((code(letter), d, need)
                                         for letter, d, need in _projection_entry(spec, x, y))
        for letter, d, need in entry:
            if end is not need and end is not None and end != need:
                word = tuple(letters[ord(k)] for k in next(iter(words)) + letter)
                raise StructuralError(
                    "product left the cotensor subspace: chain word "
                    f"{render_key(spec, word)} breaks at cut {len(word) - 1}")
            for word, c in words.items():
                accumulate(cell, word + letter, c if d is None else c * d)

    unit = ({"": Scalar.one()}, None)
    columns = prefixes(ky)
    prev: list[tuple] = []
    for i, (a_right, a_last) in enumerate(prefixes(kx)):
        row: list[tuple] = []
        for j, (b_right, b_last) in enumerate(columns):
            cell: dict[str, Scalar] = {}
            if (i, j) in _DIRECT:
                append(cell, unit, a_last, b_last)
            if j:
                append(cell, row[j - 1], a_right, b_last)
            if i:
                append(cell, prev[j], a_last, b_right)
                if j:
                    append(cell, prev[j - 1], a_last, b_last)
            row.append((cell, letters[ord(next(iter(cell))[-1])][1] if cell else None))
        prev = row
    return {tuple(map(letters.__getitem__, map(ord, word))): c for word, c in prev[-1][0].items()}


def star(x: CotensorElement, y: CotensorElement) -> CotensorElement:
    """The associative product induced by the universal property."""
    if x.spec is not y.spec:
        raise StructuralError("cotensor elements over different module data")
    return x.bilinear(y, partial(_star_key, x.spec))


# -- right coinvariants --------------------------------------------------------


def right_translate(spec: YDSpec, key: Key, g: GroupElement) -> Key:
    """The right module action of a group element on a basis key."""
    if isinstance(key, GroupElement):
        return spec.group.multiply(key, g)
    return tuple((v, spec.group.multiply(h, g)) for v, h in key)


def coinvariant_projection(x: CotensorElement) -> CotensorElement:
    """Convolution of the identity with inclusion-antipode-projection: the
    coproduct, the antipode on degree-0 second legs, then the product."""
    spec = x.spec
    legs = x.rekey(lambda key: [(k1, spec.group.inverse(k2))
                                for k1, k2 in coproduct_pairs(spec, key)
                                if key_degree(k2) == 0],
                   cls=Element, alphabet=_pair_alphabet(spec))
    return legs.map_words(lambda pair: _star_key(spec, *pair), cls=CotensorElement, alphabet=spec)


def coinvariant_projection_direct(x: CotensorElement) -> CotensorElement:
    """The closed form of the same projection: kill the right degree."""
    spec = x.spec
    return x.rekey(lambda key: (
        right_translate(spec, key, spec.group.inverse(right_degree(spec, key))),))


def flatten_coinvariant(x: CotensorElement) -> Element:
    """Strip the group components off a right-coinvariant element."""
    if not all(right_degree(x.spec, key).is_identity() for key in x._terms):
        raise StructuralError("element is not right-coinvariant")
    return x.relabel(_letters, cls=Element)


def _letters(key: Key) -> str:
    """The packed tensor word under a basis key: its letters without the group
    components."""
    return "" if isinstance(key, GroupElement) else pack_word([v for v, _ in key])


def chain_lift_word(spec: YDSpec, word) -> Key:
    """Reinstate group components: suffix degree products, ending at 1.
    ``word`` is packed or a tuple of letters."""
    if not word:
        return spec.group.identity()
    out = []
    g = spec.group.identity()
    for v in map(ord, reversed(pack_word(word))):
        out.append((v, g))
        g = spec.group.multiply(spec.degrees[v], g)
    return tuple(reversed(out))


def chain_lift(spec: YDSpec, x: Element) -> CotensorElement:
    """The coinvariant embedding of the tensor space over the letters."""
    return x.relabel(partial(chain_lift_word, spec), cls=CotensorElement, alphabet=spec)


# -- the smash-product route ---------------------------------------------------


class SmashElement(Element):
    """A combination of (tensor word over the letters, group element) pairs.

    The word leg is packed, one code point per letter, like every tensor
    word (``elements.pack_word``); ``of`` packs a tuple of letters, and
    ``tuple(map(ord, word))`` reads one back."""

    __slots__ = ()

    def __init__(self, spec: YDSpec,
                 terms: Mapping[tuple[str, GroupElement], Scalar] | None = None):
        super().__init__(terms, spec)

    @property
    def spec(self) -> YDSpec:
        return self.alphabet

    @classmethod
    def unit(cls, spec: YDSpec) -> SmashElement:
        return cls(spec, {("", spec.group.identity()): Scalar.one()})

    @classmethod
    def of(cls, spec: YDSpec, word, g: GroupElement | None = None) -> SmashElement:
        """The key (word, g), the word packed or a tuple of letters."""
        if g is None:
            g = spec.group.identity()
        return cls(spec, {(pack_word(word), g): Scalar.one()})


def smash_product(x: SmashElement, y: SmashElement) -> SmashElement:
    """(u # g)(w # g') = (u qsh g.w) # gg', the group acting letterwise."""
    if x.spec is not y.spec:
        raise StructuralError("smash elements over different module data")
    import cofreehopf.qalg as qalg
    spec = x.spec

    def rule(kx, ky):
        (u, g), (w, g2) = kx, ky
        tag = spec.group.multiply(g, g2)
        return spec.act_word(g, w).map_words(partial(qalg.qsh_words, spec, u)).relabel(
            lambda word: (word, tag), cls=SmashElement)

    return x.bilinear(y, rule)


def to_smash(x: CotensorElement) -> SmashElement:
    """Each basis key to (letters, right degree): the closed form of the sum
    of P(x1) # pi(x2) over the coproduct, P the coinvariant projection and
    pi the projection onto the group algebra."""
    return x.relabel(lambda key: (_letters(key), right_degree(x.spec, key)), cls=SmashElement)


def from_smash(s: SmashElement) -> CotensorElement:
    """Chain-lift the word leg and right-translate it by the group tag, the
    inverse of ``to_smash``; this route shares no code with star."""
    spec = s.spec
    return s.relabel(lambda key: right_translate(spec, chain_lift_word(spec, key[0]), key[1]),
                     cls=CotensorElement)


# -- rendering ------------------------------------------------------------------


def render_letter(spec, letter) -> str:
    """The one source of letter text: a letter index, or the code point of a
    packed one, reads as its name, a group element as ``K{...}``, a chain
    letter (index, g) as ``name.K{...}``."""
    if type(letter) is str:
        return spec.names[ord(letter)]
    if type(letter) is tuple:
        v, g = letter
        return f"{spec.names[v]}.{g.render()}"
    if isinstance(letter, GroupElement):
        return letter.render()
    return spec.names[letter]


def render_word(spec, word) -> str:
    """A tensor word, packed or a tuple of letters, as its letters joined by
    ``@``; the empty word reads ``1``."""
    return "@".join(render_letter(spec, letter) for letter in word) or "1"


def render_key(spec: YDSpec, key: Key, texts: dict | None = None) -> str:
    """A basis key as its letters joined by ``[]``.  ``texts``, a dict kept
    by the caller for one rendering, holds each letter's text once made."""
    letters = (key,) if isinstance(key, GroupElement) else key  # degree 0: one group element
    if texts is None:
        texts = {}
    return "[]".join([texts.get(letter) or texts.setdefault(letter, render_letter(spec, letter))
                      for letter in letters])


def render_cotensor(x: CotensorElement) -> str:
    texts: dict = {}
    return render_terms(x, lambda key: render_key(x.spec, key, texts))


def render_smash(x: SmashElement) -> str:
    return render_terms(x, lambda key: render_word(x.spec, key[0]) + "#"
                        + render_letter(x.spec, key[1]))


def render_pairs(spec: YDSpec, x: Element) -> str:
    """Canonical text for an Element over pairs of basis keys."""
    texts: dict = {}
    return render_terms(x, lambda pair: " (x) ".join(render_key(spec, key, texts)
                                                     for key in pair))

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
the group.  pi1 of each pair the table reads is memoised on the spec
(``spec._cache["pi1"]``) as triples (letter, coefficient or None for 1,
need), need = degree(v) * g being the component the letter (v, g)
requires just before it.  The chain condition is guarded there too:
before a letter is appended to a cell, need is compared with the last
components of the cell's words, so each cut of each word built is
checked once, and a product that leaves the chain words raises.

The coinvariant side: the projection onto right coinvariants is the
convolution of the identity with the composite
inclusion-antipode-projection; chain words with trailing group element 1
form the coinvariant basis, and flattening them to plain tensor words is
inverse to the chain lift that reinstates the group components.  The
smash product on tensor words with a group tag gives the second,
independent route to the same algebra.
"""

from __future__ import annotations

from functools import partial
from typing import Mapping

from . import grouphopf
from .checks import PASS, CheckResult, fail
from .elements import Element, accumulate, render_terms
from .errors import StructuralError
from .grouphopf import GroupElement, HElement, YDSpec, braided_spec
from .qalg import _qsh_memo
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
    def from_word(cls, spec: YDSpec, word: MWord, coeff=1) -> CotensorElement:
        word = tuple((int(v), g) for v, g in word)
        result = check_chain_condition(spec, [word])
        if not result:
            raise StructuralError(f"chain condition fails at cut {result.witness[1]} "
                                  f"of {render_key(spec, word)}")
        return cls(spec, {word: Scalar.coerce(coeff)})

    # -- structure ---------------------------------------------------------

    def h_part(self) -> HElement:
        return HElement(self.spec.group, {
            key: c for key, c in self._terms.items() if isinstance(key, GroupElement)})


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
            if key[k][1] != spec.group.multiply(spec.degrees[v_next], g_next):
                return fail("cotensor-chain", (key, k + 1))
    return PASS


# -- coproduct and counit ----------------------------------------------------


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


def counit(x: CotensorElement) -> Scalar:
    return grouphopf.counit(x.h_part())


# -- the universal-property product ------------------------------------------


def _module_projection(spec: YDSpec, a: Key, b: Key) -> dict[tuple[int, GroupElement], Scalar]:
    """Degree-1 projection of the product map on a basis pair of the square.

    Left action for (group, letter) pairs, right action for (letter,
    group), the module multiplication in smash form for (letter, letter);
    everything else projects to zero.
    """
    da, db = key_degree(a), key_degree(b)
    if da == 0 and db == 1:
        (v, g2), = b
        image = spec.act_letter(a, v)
        target = spec.group.multiply(a, g2)
    elif da == 1 and db == 0:
        (v, g1), = a
        return {(v, spec.group.multiply(g1, b)): Scalar.one()}
    elif da == 1 and db == 1:
        ((v, g1),), ((w, g2),) = a, b
        image = spec.act_letter(g1, w).map_words(lambda i: spec.mult_entry(v, i[0]))
        target = spec.group.multiply(g1, g2)
    else:
        return {}
    return image.relabel(lambda i: (i[0], target))._terms


def _star_key(spec: YDSpec, kx: Key, ky: Key) -> CotensorElement:
    memo = spec._cache.setdefault("star", {})
    result = memo.get((kx, ky))
    if result is not None:
        return result
    if key_degree(kx) + key_degree(ky) == 0:
        result = CotensorElement(spec, {spec.group.multiply(kx, ky): Scalar.one()})
    else:
        result = CotensorElement._wrap(_prefix_table(spec, kx, ky), spec)
    memo[(kx, ky)] = result
    return result


def _projection_entry(spec: YDSpec, a: Key, b: Key) -> tuple:
    """pi1(a, b) as (letter, coefficient or None for 1, need = deg(v) * g) per letter (v, g)."""
    one, multiply = Scalar.one(), spec.group.multiply
    return tuple((letter, None if d == one else d, multiply(spec.degrees[letter[0]], letter[1]))
                 for letter, d in _module_projection(spec, a, b).items())


def _prefix_table(spec: YDSpec, kx: Key, ky: Key) -> dict[MWord, Scalar]:
    """T(n, m) of the module docstring, filled one row of prefix pairs at a
    time; a cell holds its words and the set of their last components."""
    def prefixes(key):  # (right degree, last letter) of prefix 0 .. n; prefix 0 stands for both
        start = left_degree(spec, key)
        return [(start, start)] + [(key[i][1], key[i:i + 1]) for i in range(key_degree(key))]

    memo = spec._cache.setdefault("pi1", {})
    empty = ({}, ())
    prev: list[tuple] = []
    for i, (a_right, a_last) in enumerate(prefixes(kx)):
        row: list[tuple] = []
        for j, (b_right, b_last) in enumerate(prefixes(ky)):
            cell: dict[MWord, Scalar] = {}
            for (words, ends), x, y in ((({(): Scalar.one()}, ()) if (i, j) in _DIRECT else empty,
                                         a_last, b_last),
                                        (row[j - 1] if j else empty, a_right, b_last),
                                        (prev[j] if i else empty, a_last, b_right),
                                        (prev[j - 1] if i and j else empty, a_last, b_last)):
                if words:
                    entry = memo.get((x, y))
                    if entry is None:
                        entry = memo[(x, y)] = _projection_entry(spec, x, y)
                    for letter, d, need in entry:
                        for end in ends:
                            if end != need:
                                word = next(w for w in words if w[-1][1] == end) + (letter,)
                                raise StructuralError(
                                    "product left the cotensor subspace: chain word "
                                    f"{render_key(spec, word)} breaks at cut {len(word) - 1}")
                        for word, c in words.items():
                            accumulate(cell, word + (letter,), c if d is None else c * d)
            row.append((cell, {word[-1][1] for word in cell}))
        prev = row
    return prev[-1][0]


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
    return x.rekey(lambda key: (_project_key(spec, key),))


def is_coinvariant(x: CotensorElement) -> bool:
    return all(right_degree(x.spec, key).is_identity() for key in x._terms)


def flatten_coinvariant(x: CotensorElement) -> Element:
    """Strip the group components off a right-coinvariant element."""
    if not is_coinvariant(x):
        raise StructuralError("element is not right-coinvariant")
    return x.rekey(lambda key: (_letters(key),), cls=Element)


def _letters(key: Key) -> tuple[int, ...]:
    """The tensor word under a basis key: its letters without the group components."""
    return () if isinstance(key, GroupElement) else tuple(v for v, _ in key)


def chain_lift_word(spec: YDSpec, word: tuple[int, ...]) -> Key:
    """Reinstate group components: suffix degree products, ending at 1."""
    if not word:
        return spec.group.identity()
    out = []
    g = spec.group.identity()
    for v in reversed(word):
        out.append((v, g))
        g = spec.group.multiply(spec.degrees[v], g)
    return tuple(reversed(out))


def chain_lift(spec: YDSpec, x: Element) -> CotensorElement:
    """The coinvariant embedding of the tensor space over the letters."""
    return x.rekey(lambda word: (chain_lift_word(spec, word),),
                   cls=CotensorElement, alphabet=spec)


def coinvariant_coproduct(x: CotensorElement) -> Element:
    """Both coproduct legs pushed into the coinvariants."""
    spec = x.spec
    return x.rekey(lambda key: [(_project_key(spec, k1), _project_key(spec, k2))
                                for k1, k2 in coproduct_pairs(spec, key)],
                   cls=Element, alphabet=_pair_alphabet(spec))


def _project_key(spec: YDSpec, key: Key) -> Key:
    return right_translate(spec, key, spec.group.inverse(right_degree(spec, key)))


# -- the smash-product route ---------------------------------------------------


class SmashElement(Element):
    """A combination of (tensor word over the letters, group element) pairs."""

    __slots__ = ()

    def __init__(self, spec: YDSpec,
                 terms: Mapping[tuple[tuple[int, ...], GroupElement], Scalar] | None = None):
        super().__init__(terms, spec)

    @property
    def spec(self) -> YDSpec:
        return self.alphabet

    @classmethod
    def unit(cls, spec: YDSpec) -> SmashElement:
        return cls(spec, {((), spec.group.identity()): Scalar.one()})

    @classmethod
    def of(cls, spec: YDSpec, word: tuple[int, ...], g: GroupElement | None = None,
           coeff=1) -> SmashElement:
        if g is None:
            g = spec.group.identity()
        return cls(spec, {(tuple(word), g): Scalar.coerce(coeff)})


def smash_product(x: SmashElement, y: SmashElement) -> SmashElement:
    """(u # g)(w # g') = (u qsh g.w) # gg', the group acting letterwise."""
    if x.spec is not y.spec:
        raise StructuralError("smash elements over different module data")
    spec = x.spec
    bspec = braided_spec(spec)
    qsh = _qsh_memo(bspec)

    def rule(kx, ky):
        (u, g), (w, g2) = kx, ky
        tag = spec.group.multiply(g, g2)
        return spec.act_word(g, w).map_words(partial(qsh, bspec, u)).relabel(
            lambda word: (word, tag), cls=SmashElement)

    return x.bilinear(y, rule)


def to_smash(x: CotensorElement) -> SmashElement:
    """Split off the group tag through the coproduct and the projection."""
    spec = x.spec
    return x.rekey(lambda key: [(_letters(_project_key(spec, k1)), k2)
                                for k1, k2 in coproduct_pairs(spec, key)
                                if key_degree(k2) == 0], cls=SmashElement)


def from_smash(s: SmashElement) -> CotensorElement:
    """Chain-lift the word leg and multiply the group tag back in: in closed
    form, as the right translation, so this route shares no code with star."""
    spec = s.spec
    return s.rekey(lambda key: (right_translate(spec, chain_lift_word(spec, key[0]), key[1]),),
                   cls=CotensorElement)


# -- rendering ------------------------------------------------------------------


def render_letter(spec, letter) -> str:
    """The one source of letter text: a letter index reads as its name, a
    group element as ``K{...}``, a chain letter (index, g) as ``name.K{...}``."""
    if type(letter) is tuple:
        v, g = letter
        return f"{spec.names[v]}.{g.render()}"
    if isinstance(letter, GroupElement):
        return letter.render()
    return spec.names[letter]


def render_word(spec, word) -> str:
    """A tensor word as its letters joined by ``@``; the empty word reads ``1``."""
    return "@".join(render_letter(spec, letter) for letter in word) or "1"


def render_key(spec: YDSpec, key: Key) -> str:
    letters = (key,) if isinstance(key, GroupElement) else key  # degree 0: one group element
    return "[]".join(render_letter(spec, letter) for letter in letters)


def render_cotensor(x: CotensorElement) -> str:
    return render_terms(x, lambda key: render_key(x.spec, key))


def render_smash(x: SmashElement) -> str:
    return render_terms(x, lambda key: render_word(x.spec, key[0]) + "#"
                        + render_letter(x.spec, key[1]))


def render_pairs(spec: YDSpec, x: Element) -> str:
    """Canonical text for an Element over pairs of basis keys."""
    return render_terms(x, lambda pair: " (x) ".join(render_key(spec, key) for key in pair))

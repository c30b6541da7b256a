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
the group.

The coinvariant side: the projection onto right coinvariants is the
convolution of the identity with the composite
inclusion-antipode-projection; chain words with trailing group element 1
form the coinvariant basis, and flattening them to plain tensor words is
inverse to the chain lift that reinstates the group components.  The
smash product on tensor words with a group tag gives the second,
independent route to the same algebra.
"""

from __future__ import annotations

from typing import Mapping

from .checks import PASS, CheckResult, fail
from .elements import Element, accumulate, render_terms
from .errors import StructuralError
from .grouphopf import GroupElement, HElement, YDSpec, braided_spec
from .qalg import _qsh_words
from .scalars import Scalar

MWord = tuple  # tuple[(letter index, GroupElement), ...]
Key = object   # GroupElement (degree 0) or MWord (degree >= 1)


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


def chain_violation(spec: YDSpec, word: MWord) -> int | None:
    """First cut (1-based) violating the chain condition, or None."""
    for k in range(len(word) - 1):
        v_next, g_next = word[k + 1]
        if word[k][1] != spec.group.multiply(spec.degrees[v_next], g_next):
            return k + 1
    return None


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
    def from_group(cls, spec: YDSpec, g: GroupElement, coeff=1) -> CotensorElement:
        return cls(spec, {g: Scalar.coerce(coeff)})

    @classmethod
    def from_word(cls, spec: YDSpec, word: MWord, coeff=1) -> CotensorElement:
        word = tuple((int(v), g) for v, g in word)
        bad = chain_violation(spec, word)
        if bad is not None:
            raise StructuralError(f"chain condition fails at cut {bad} of {word}")
        return cls(spec, {word: Scalar.coerce(coeff)})

    # -- structure ---------------------------------------------------------

    def h_part(self) -> HElement:
        return HElement(self.spec.group, {
            key: c for key, c in self._terms.items() if isinstance(key, GroupElement)})

    def degree_component(self, n: int) -> CotensorElement:
        return CotensorElement(self.spec, {
            key: c for key, c in self._terms.items() if key_degree(key) == n})

    def max_degree(self) -> int:
        return max((key_degree(key) for key in self._terms), default=0)


def check_chain_condition(spec: YDSpec, terms) -> CheckResult:
    """Validate the chain condition at every cut of every word.

    ``terms`` may be a CotensorElement or any mapping whose keys are
    group elements or chain words.
    """
    mapping = terms._terms if isinstance(terms, CotensorElement) else terms
    for key in mapping:
        if isinstance(key, GroupElement):
            continue
        bad = chain_violation(spec, key)
        if bad is not None:
            return fail("cotensor-chain", (key, bad))
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
    out: dict[tuple, Scalar] = {}
    for key, c in x._terms.items():
        for pair in coproduct_pairs(x.spec, key):
            accumulate(out, pair, c)
    return Element._wrap(out, _pair_alphabet(x.spec))


def counit(x: CotensorElement) -> Scalar:
    out = Scalar.zero()
    for key, c in x._terms.items():
        if isinstance(key, GroupElement):
            out = out + c
    return out


# -- the universal-property product ------------------------------------------


def _module_projection(spec: YDSpec, a: Key, b: Key) -> dict[tuple[int, GroupElement], Scalar]:
    """Degree-1 projection of the product map on a basis pair of the square.

    Left action for (group, letter) pairs, right action for (letter,
    group), the module multiplication in smash form for (letter, letter);
    everything else projects to zero.
    """
    da, db = key_degree(a), key_degree(b)
    out: dict[tuple[int, GroupElement], Scalar] = {}
    if da == 0 and db == 1:
        v, g2 = b[0]
        target = spec.group.multiply(a, g2)
        for (i,), c in spec.act_letter(a, v)._terms.items():
            accumulate(out, (i, target), c)
    elif da == 1 and db == 0:
        v, g1 = a[0]
        out[(v, spec.group.multiply(g1, b))] = Scalar.one()
    elif da == 1 and db == 1:
        v, g1 = a[0]
        w, g2 = b[0]
        target = spec.group.multiply(g1, g2)
        for (i,), c in spec.act_letter(g1, w)._terms.items():
            for (j,), d in spec.mult_entry(v, i)._terms.items():
                accumulate(out, (j, target), c * d)
    return out


def _star_key(spec: YDSpec, kx: Key, ky: Key) -> CotensorElement:
    memo = spec._cache.setdefault("star", {})
    result = memo.get((kx, ky))
    if result is not None:
        return result
    if key_degree(kx) + key_degree(ky) == 0:
        result = CotensorElement(spec, {spec.group.multiply(kx, ky): Scalar.one()})
    else:
        result = CotensorElement._wrap(_prefix_table(spec, kx, ky), spec)
        chain = check_chain_condition(spec, result)
        if not chain:
            raise StructuralError(
                f"product left the cotensor subspace: chain word {chain.witness[0]} "
                f"breaks at cut {chain.witness[1]}")
    memo[(kx, ky)] = result
    return result


def _prefix_table(spec: YDSpec, kx: Key, ky: Key) -> dict[MWord, Scalar]:
    """T(n, m) of the module docstring, filled one row of prefix pairs at a time."""
    def prefixes(key):  # (prefix, its right degree, its last letter) for prefix 0 .. n
        start = left_degree(spec, key)
        return [(start, start, None)] + [(key[:i], key[i - 1][1], key[i - 1:i])
                                         for i in range(1, key_degree(key) + 1)]

    prev: list[dict] = []
    for i, (a, a_right, a_last) in enumerate(prefixes(kx)):
        row: list[dict] = []
        for j, (b, b_right, b_last) in enumerate(prefixes(ky)):
            cell: dict[MWord, Scalar] = {}
            for words, x, y in (({(): Scalar.one()}, a, b),
                                (row[j - 1] if j else {}, a_right, b_last),
                                (prev[j] if i else {}, a_last, b_right),
                                (prev[j - 1] if i and j else {}, a_last, b_last)):
                if words:
                    for letter, d in _module_projection(spec, x, y).items():
                        for word, c in words.items():
                            accumulate(cell, word + (letter,), c * d)
            row.append(cell)
        prev = row
    return prev[-1]


def star(x: CotensorElement, y: CotensorElement) -> CotensorElement:
    """The associative product induced by the universal property."""
    if x.spec is not y.spec:
        raise StructuralError("cotensor elements over different module data")
    out = CotensorElement.zero(x.spec)
    for kx, cx in x._terms.items():
        for ky, cy in y._terms.items():
            out = out + _star_key(x.spec, kx, ky).scale(cx * cy)
    return out


# -- right coinvariants --------------------------------------------------------


def right_translate(spec: YDSpec, key: Key, g: GroupElement) -> Key:
    """The right module action of a group element on a basis key."""
    if isinstance(key, GroupElement):
        return spec.group.multiply(key, g)
    return tuple((v, spec.group.multiply(h, g)) for v, h in key)


def coinvariant_projection(x: CotensorElement) -> CotensorElement:
    """Convolution of the identity with inclusion-antipode-projection."""
    spec = x.spec
    out = CotensorElement.zero(spec)
    for key, c in x._terms.items():
        for k1, k2 in coproduct_pairs(spec, key):
            if key_degree(k2) == 0:
                inv = spec.group.inverse(k2)
                out = out + _star_key(spec, k1, inv).scale(c)
    return out


def coinvariant_projection_direct(x: CotensorElement) -> CotensorElement:
    """The closed form of the same projection: kill the right degree."""
    spec = x.spec
    out: dict[Key, Scalar] = {}
    for key, c in x._terms.items():
        accumulate(out, _project_key(spec, key), c)
    return CotensorElement._wrap(out, spec)


def is_coinvariant(x: CotensorElement) -> bool:
    return all(right_degree(x.spec, key).is_identity() for key in x._terms)


def flatten_coinvariant(x: CotensorElement) -> Element:
    """Strip the group components off a right-coinvariant element."""
    if not is_coinvariant(x):
        raise StructuralError("element is not right-coinvariant")
    out: dict[tuple, Scalar] = {}
    for key, c in x._terms.items():
        word = () if isinstance(key, GroupElement) else tuple(v for v, _ in key)
        accumulate(out, word, c)
    return Element._wrap(out, x.spec)


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
    out: dict[Key, Scalar] = {}
    for word, c in x._terms.items():
        accumulate(out, chain_lift_word(spec, word), c)
    return CotensorElement._wrap(out, spec)


def coinvariant_coproduct(x: CotensorElement) -> Element:
    """Both coproduct legs pushed into the coinvariants."""
    spec = x.spec
    out: dict[tuple, Scalar] = {}
    for key, c in x._terms.items():
        for k1, k2 in coproduct_pairs(spec, key):
            accumulate(out, (_project_key(spec, k1), _project_key(spec, k2)), c)
    return Element._wrap(out, _pair_alphabet(spec))


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
    out: dict[tuple, Scalar] = {}
    for (u, g), c in x._terms.items():
        for (w, g2), d in y._terms.items():
            tag = spec.group.multiply(g, g2)
            acted = spec.act_word(g, w)
            for word2, c3 in acted._terms.items():
                prod = _qsh_words(bspec, u, word2)
                base = c * d * c3
                for word3, c4 in prod._terms.items():
                    accumulate(out, (word3, tag), base * c4)
    return SmashElement._wrap(out, spec)


def to_smash(x: CotensorElement) -> SmashElement:
    """Split off the group tag through the coproduct and the projection."""
    spec = x.spec
    out: dict[tuple, Scalar] = {}
    for key, c in x._terms.items():
        for k1, k2 in coproduct_pairs(spec, key):
            if key_degree(k2) != 0:
                continue
            proj = _project_key(spec, k1)
            word = () if isinstance(proj, GroupElement) else tuple(v for v, _ in proj)
            accumulate(out, (word, k2), c)
    return SmashElement._wrap(out, spec)


def from_smash(s: SmashElement) -> CotensorElement:
    """Chain-lift the word leg and multiply the group tag back in."""
    spec = s.spec
    out = CotensorElement.zero(spec)
    for (word, g), c in s._terms.items():
        lifted = chain_lift_word(spec, word)
        out = out + _star_key(spec, lifted, g).scale(c)
    return out


# -- rendering ------------------------------------------------------------------


def render_key(spec: YDSpec, key: Key) -> str:
    if isinstance(key, GroupElement):
        return key.render()
    return "[]".join(f"{spec.names[v]}.{g.render()}" for v, g in key)


def render_cotensor(x: CotensorElement) -> str:
    return render_terms(x, lambda key: render_key(x.spec, key))


def render_smash(x: SmashElement) -> str:
    names = x.spec.names
    return render_terms(
        x, lambda key: ("@".join(names[v] for v in key[0]) or "1") + "#" + key[1].render())


def render_pairs(spec: YDSpec, x: Element) -> str:
    """Canonical text for an Element over pairs of basis keys."""
    return render_terms(x, lambda pair: render_key(spec, pair[0]) + " (x) "
                        + render_key(spec, pair[1]))

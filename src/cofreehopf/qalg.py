"""Braided algebras by structure constants and the quantum quasi-shuffle.

A braided algebra is a based space with a braiding table and structure
constants for an associative multiplication compatible with the
braiding.  On its tensor space the quasi-shuffle product is one clause
for every length pattern, three moves on the heads of the two factor
words: keep the left head, braid the right head to the front, or merge
the two heads through the multiplication.  A word times the empty word
is that word, so a one-letter right factor costs no call on an empty
tail, and a merge that the multiplication kills costs no tail product.

Inside the recursion a word is packed, one code point per letter, so a
prepend copies bytes and each word is hashed once.  The memo is one
``lru_cache`` per spec, ``spec._cache["qsh"]``, from packed word pairs to
dicts over packed words, and dies with the spec.  A product unpacks its
output words into tuples of its own, which die with it.  Each letter of
the deeper factor costs 3 frames (the memo's wrapper, the memoised
function and the clause, which calls the memo itself): one more per
level stops one letter times a 300-letter word under the default
recursion limit.  Only the general-clause oracle below keeps a
module-level memo, which perfbench clears.

Each level needs the crossing B(u, b) = beta_{|u|,1}(u (x) b) of the right
head b across the left word: B(u', b) feeds the merge move and B(u, b)
the braid move.  Since B(u, b) = sigma_1(u_0 . B(u', b)) with B((), b) = b,
``crossing`` memoises B per (suffix, letter) in ``spec._cache["crossing"]``
and fills it by a loop from the right end of the word, so each suffix is
braided once, with one braiding at position 1, however many levels ask
for it.  Each level recurses on (u', v) before it braids, so a word too
deep for the recursion fails before any braiding work is spent on it.
An internal oracle runs the same clause with no memo: it sweeps B(u', b)
with ``block_braiding`` at every level, as an independent check on the
crossing memo.

The deconcatenation coproduct, the connectedness filtration and the
extension of a degree-one letter map to a morphism of the whole tensor
bialgebra live here as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial, reduce
from typing import Mapping

from .braid import BraidingTable, block_braiding
from .checks import PASS, CheckResult, fail, nonempty
from .elements import Element, accumulate, adjoin_unit_letter, apply_local, letter_table
from .errors import StructuralError
from .scalars import Scalar


@dataclass(eq=False, frozen=True)
class BraidedAlgebraSpec:
    """Structure constants of a finite-dimensional braided algebra.

    ``mult`` maps letter pairs to combinations of letters; a spec stores
    the total table that ``letter_table`` builds from it, zero at every
    missing pair.  ``unit``, when present, is a two-sided unit letter that
    the braiding flips trivially.  ``alphabet`` tags the words (the spec
    itself when not given).  A spec is immutable: ``mult`` is given whole
    at construction, checked and copied over ``alphabet``.
    """

    dim: int
    braiding: BraidingTable
    mult: dict[tuple[int, int], Element]
    unit: int | None = None
    names: tuple[str, ...] | None = None
    alphabet: object = None
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.braiding.dim != self.dim:
            raise StructuralError("braiding dimension does not match the basis size")
        if self.alphabet is None:
            object.__setattr__(self, "alphabet", self)
        object.__setattr__(self, "mult", letter_table(self.mult, self.dim, self.alphabet))

    def mult_entry(self, a: int, b: int) -> Element:
        return self.mult[(a, b)]


def check_braided_algebra(spec: BraidedAlgebraSpec) -> CheckResult:
    """Associativity, the two braiding/multiplication exchange laws, and
    (when a unit is declared) the unit laws, on all basis words."""
    m = spec.mult
    sig = spec.braiding.entries
    for word in spec.braiding.basis_words(3):
        x = Element.from_word(word, alphabet=spec.alphabet)
        left = apply_local(m, 1, apply_local(m, 1, x))
        right = apply_local(m, 1, apply_local(m, 2, x))
        if left != right:
            return fail("associativity", word, left, right)
        lhs = apply_local(m, 2, apply_local(sig, 1, apply_local(sig, 2, x)))
        rhs = apply_local(sig, 1, apply_local(m, 1, x))
        if lhs != rhs:
            return fail("braided-compatibility-left", word, lhs, rhs)
        lhs = apply_local(m, 1, apply_local(sig, 2, apply_local(sig, 1, x)))
        rhs = apply_local(sig, 1, apply_local(m, 2, x))
        if lhs != rhs:
            return fail("braided-compatibility-right", word, lhs, rhs)
    if spec.unit is not None:
        u = spec.unit
        word_of = partial(Element.from_word, alphabet=spec.alphabet)
        for a in range(spec.dim):
            letter = word_of((a,))
            if apply_local(m, 1, word_of((u, a))) != letter:
                return fail("left-unit", (u, a))
            if apply_local(m, 1, word_of((a, u))) != letter:
                return fail("right-unit", (a, u))
            if apply_local(sig, 1, word_of((a, u))) != word_of((u, a)):
                return fail("unit-braiding", (a, u))
            if apply_local(sig, 1, word_of((u, a))) != word_of((a, u)):
                return fail("unit-braiding", (u, a))
    return PASS


def adjoin_unit(spec: BraidedAlgebraSpec) -> BraidedAlgebraSpec:
    """Extend a non-unital spec by a fresh unit letter.

    Multiplication gains the unit laws, the braiding flips the unit
    across every letter, and every original entry is kept.
    """
    if spec.unit is not None:
        raise StructuralError("spec already has a unit")
    dim = spec.dim
    unit = dim
    entries = {}
    alphabet = object()
    for (a, b), value in spec.braiding.entries.items():
        entries[(a, b)] = Element(dict(value._terms), alphabet)
    for a in range(dim + 1):
        entries[(a, unit)] = Element.from_word((unit, a), alphabet=alphabet)
        if a != unit:
            entries[(unit, a)] = Element.from_word((a, unit), alphabet=alphabet)
    mult, names = adjoin_unit_letter(spec.mult, dim, spec.names)
    braiding = BraidingTable(dim + 1, entries, alphabet)
    return BraidedAlgebraSpec(dim + 1, braiding, mult, unit, names, alphabet)


def _pack(word: tuple) -> str:
    """A word as a string of one code point per letter (``chr(letter)``),
    through the Latin-1 codec, nearly twice as fast, when it can."""
    try:
        return bytes(word).decode("latin-1")
    except ValueError:  # a letter of 256 or more
        return "".join(map(chr, word))


def _unpack(packed: str) -> tuple:
    try:
        return tuple(packed.encode("latin-1"))
    except UnicodeEncodeError:
        return tuple(map(ord, packed))


def _qsh_packed(spec: BraidedAlgebraSpec):
    """The spec's memo ``memo(spec, u, v)``, the terms of u qsh v over packed
    words: an ``lru_cache`` over ``_qsh_words`` made on first use."""
    memo = spec._cache.get("qsh")
    if memo is None:
        memo = spec._cache["qsh"] = lru_cache(maxsize=None)(_qsh_words)
    return memo


def _unpacked(spec: BraidedAlgebraSpec, terms: dict) -> Element:
    return Element._wrap({_unpack(w): c for w, c in terms.items()}, spec.alphabet)


def _qsh_memo(spec: BraidedAlgebraSpec):
    """``memo(spec, u, v) = u qsh v`` over tuple words, through the packed memo."""
    memo = _qsh_packed(spec)
    return lambda spec, u, v: _unpacked(spec, memo(spec, _pack(u), _pack(v)))


def _qsh_words(spec: BraidedAlgebraSpec, u: str, v: str) -> dict[str, Scalar]:
    return _qsh_general(spec, u, v, spec._cache["qsh"], _memo_crossings)


def _qsh_general(spec: BraidedAlgebraSpec, u: str, v: str, rec, crossings) -> dict[str, Scalar]:
    """u qsh v over packed words: u_0 (u' qsh v), then c w_0 (w' qsh v') for
    each term c w of B(u, v_0), then c m(u_0, w_0) (w' qsh v') for each term
    c w of B(u', v_0).  A word times the empty word is that word."""
    if not u or not v:
        return {u + v: Scalar.one()}
    head, rest, one = u[0], v[1:], Scalar.one()
    out = {head + w: c for w, c in rec(spec, u[1:], v).items()}
    shifted, moved = crossings(spec, _unpack(u), ord(v[0]))
    steps = [(chr(word[0]), coeff, _pack(word[1:])) for word, coeff in moved._terms.items()]
    for word, coeff in shifted._terms.items():
        steps.extend((chr(d), coeff * c, _pack(word[1:]))
                     for (d,), c in spec.mult_entry(ord(head), word[0])._terms.items())
    for letter, coeff, tail in steps:
        terms = rec(spec, tail, rest) if rest else {tail: coeff}
        if rest and coeff != one:
            terms = {w: c * coeff for w, c in terms.items()}
        for w, c in terms.items():
            accumulate(out, letter + w, c)
    return out


def crossing(spec: BraidedAlgebraSpec, u: tuple, b: int) -> Element:
    """B(u, b) = beta_{|u|,1}(u (x) b): the letter b braided across the word u.

    Memoised per (suffix, letter) on the spec; a miss extends the longest
    memoised suffix of u leftwards by B(u, b) = sigma_1(u_0 . B(u', b)).
    """
    memo = spec._cache.setdefault("crossing", {})
    k = 0
    while k < len(u) and (u[k:], b) not in memo:
        k += 1
    out = memo[(u[k:], b)] if k < len(u) else Element.from_word((b,), alphabet=spec.alphabet)
    for i in range(k - 1, -1, -1):
        out = spec.braiding.apply(_prepend(u[i], out))
        memo[(u[i:], b)] = out
    return out


def _memo_crossings(spec: BraidedAlgebraSpec, u: tuple, b: int) -> tuple[Element, Element]:
    """(B(u', b), B(u, b)) from the spec's memo."""
    return crossing(spec, u[1:], b), crossing(spec, u, b)


def _swept_crossings(spec: BraidedAlgebraSpec, u: tuple, b: int) -> tuple[Element, Element]:
    """(B(u', b), B(u, b)) for the oracle: one block sweep, then sigma_1."""
    shifted = block_braiding(
        spec.braiding, len(u) - 1, 1, Element.from_word(u[1:] + (b,), alphabet=spec.alphabet))
    return shifted, spec.braiding.apply(_prepend(u[0], shifted))


def _prepend(letter: int, x: Element) -> Element:
    return Element._wrap({(letter,) + w: c for w, c in x._terms.items()}, x.alphabet)


@lru_cache(maxsize=None)
def _qsh_words_general_only(spec: BraidedAlgebraSpec, u: str, v: str) -> dict[str, Scalar]:
    """Internal oracle: the same clause, with the crossings swept, not memoised."""
    return _qsh_general(spec, u, v, _qsh_words_general_only, _swept_crossings)


def _quasi_shuffle_packed(spec: BraidedAlgebraSpec, x: Element, y: Element, memo) -> dict:
    """The terms of x qsh y over packed words."""
    return x.bilinear(y, lambda u, v: Element._wrap(memo(spec, _pack(u), _pack(v)), None),
                      cls=Element, alphabet=spec.alphabet)._terms


def quasi_shuffle(spec: BraidedAlgebraSpec, x: Element, y: Element) -> Element:
    """Bilinear quantum quasi-shuffle product on the tensor space."""
    return _unpacked(spec, _quasi_shuffle_packed(spec, x, y, _qsh_packed(spec)))


def quasi_shuffle_general_clause(spec: BraidedAlgebraSpec, x: Element, y: Element) -> Element:
    return _unpacked(spec, _quasi_shuffle_packed(spec, x, y, _qsh_words_general_only))


def _pair_alphabet(alphabet):
    return ("tensor2", alphabet)


def deconcat(x: Element) -> Element:
    """Full deconcatenation coproduct, as an Element over pairs of words."""
    return x.rekey(lambda w: [(w[:k], w[k:]) for k in range(len(w) + 1)],
                   cls=Element, alphabet=_pair_alphabet(x.alphabet))


def deconcat_reduced(x: Element) -> Element:
    """Reduced coproduct: the full one minus both extremal embeddings."""
    return deconcat(x) - x.rekey(lambda w: ((w, ()), ((), w)),
                                 cls=Element, alphabet=_pair_alphabet(x.alphabet))


def filtration_degree(x: Element) -> int:
    """Smallest r with x in the r-th step of the connectedness filtration:
    the length of the longest word of x, since a word of length n first
    lies in step n of the reduced-coproduct definition (the tests' oracle)."""
    return max(map(len, x._terms), default=0)


def check_quasi_shuffle_bialgebra(spec: BraidedAlgebraSpec,
                                  pairs) -> CheckResult:
    """Coproduct compatibility of the quasi-shuffle product.

    For each sample pair of basis words, deconcatenating the product
    must equal multiplying the deconcatenations componentwise after
    braiding the two middle tensor legs across each other.
    """
    qsh = _qsh_packed(spec)
    for u, v in nonempty(pairs):
        lhs = deconcat(Element._wrap(qsh(spec, _pack(u), _pack(v)), spec.alphabet))
        rhs: dict[tuple, Scalar] = {}
        for i in range(len(u) + 1):
            u1, u2 = _pack(u[:i]), u[i:]
            for j in range(len(v) + 1):
                v1, v2 = v[:j], _pack(v[j:])
                crossed = block_braiding(
                    spec.braiding, len(u2), len(v1),
                    Element.from_word(u2 + v1, alphabet=spec.alphabet))
                for word, c in crossed._terms.items():
                    left = qsh(spec, u1, _pack(word[:len(v1)]))
                    right = qsh(spec, _pack(word[len(v1):]), v2)
                    for wl, cl in left.items():
                        for wr, cr in right.items():
                            accumulate(rhs, (wl, wr), c * cl * cr)
        if lhs._terms != rhs:
            sides = (lhs, Element._wrap(rhs, lhs.alphabet))
            return fail("quasi-shuffle-bialgebra", (u, v), *(side.relabel(
                lambda pair: tuple(map(_unpack, pair))) for side in sides))
    return PASS


def extend_letter_morphism(spec_b: BraidedAlgebraSpec, spec_a: BraidedAlgebraSpec,
                           f: Mapping[int, Element], x: Element) -> Element:
    """Extend a degree-one letter map to the tensor-bialgebra morphism.

    The letter map must kill the unit letter (when one is declared),
    intertwine the two braidings, and intertwine the multiplications;
    all three are verified on basis letters before any evaluation.  The
    extension is the series: counit part plus, for each n up to the
    filtration degree of x, the n-fold letter map applied to the
    (n-1)-iterated reduced coproduct.  That coproduct cuts a word into n
    nonempty pieces, and the n-fold letter map kills every piece of two
    or more letters, so on a word of k letters only the term n = k, the
    cut into single letters, survives.  So the series is evaluated
    letterwise: a word goes to f(w_1) (x) ... (x) f(w_k), and the empty
    word to the unit.
    """
    zero_a, unit_a = Element.zero(spec_a.alphabet), Element.unit(spec_a.alphabet)
    f = {letter: value for letter, value in f.items() if not value.is_zero()}
    for value in f.values():
        for word in value.support():
            if len(word) != 1 or not (0 <= word[0] < spec_a.dim):
                raise StructuralError("letter map values must be combinations of letters")
    if spec_b.unit is not None and spec_b.unit in f:
        raise StructuralError("letter map must vanish on the unit letter")

    def letterwise(word: tuple) -> Element:
        return reduce(Element.tensor, (f.get(letter, zero_a) for letter in word), unit_a)

    for a in range(spec_b.dim):
        for b in range(spec_b.dim):
            pair = letterwise((a, b))
            lhs = spec_b.braiding.entries[(a, b)].map_words(letterwise, alphabet=spec_a.alphabet)
            rhs = apply_local(spec_a.braiding.entries, 1, pair) if pair else pair
            if lhs != rhs:
                raise StructuralError(
                    f"letter map does not intertwine the braidings at {(a, b)}")
            m_lhs = apply_local(spec_a.mult, 1, pair) if pair else pair
            m_rhs = spec_b.mult_entry(a, b).map_words(letterwise, alphabet=spec_a.alphabet)
            if m_lhs != m_rhs:
                raise StructuralError(
                    f"letter map does not intertwine the multiplications at {(a, b)}")
    return x.map_words(letterwise, alphabet=spec_a.alphabet)

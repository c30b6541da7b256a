"""Braided algebras by structure constants and the quantum quasi-shuffle.

A braided algebra is a based space with a braiding table and structure
constants for an associative multiplication compatible with the
braiding.  A ``grouphopf.YDSpec`` is one, with the braiding its
Yetter-Drinfeld structure induces, and is passed as it is;
:class:`BraidedAlgebraSpec` holds the others: a [braiding] override,
the extension by ``adjoin_unit`` and data given by hand.  Both kinds
read alike (``dim``, ``braiding``, ``mult``, ``unit``, ``names``,
``alphabet``, ``_cache``).

On the tensor space the quasi-shuffle product is one clause for every
length pattern, three moves on the heads of the two factor words: keep
the left head, braid the right head to the front, or merge the two
heads through the multiplication.  A word times the empty word
is that word, and a merge that the multiplication kills costs no tail
product.  A tail product is scaled term by term as it is added into the
result, never copied whole first, and a coefficient of 1 multiplies
nothing.

A right factor of one letter b has empty tails, so its keep moves
unroll into one loop over the cuts of u, with no recursion (R.-Q. Jian
and M. Rosso, *Braided cofree Hopf algebras and quantum multi-brace
algebras*, J. reine angew. Math. 667, 2012, give the clause):
u qsh b = u b + sum_k u[:k] (B(u[k:], b) + m(u_k, B(u[k+1:], b))).
Its products are kept in a plain dict, ``spec._cache["qsh1"]``, which
holds the pairs asked for and no level under them, so a long product
leaves one result behind, not one per suffix.  The loop starts behind
the longest proper suffix of u whose product is in that dict, copied
under its prefix, and adds the cuts before it in the order the
recursion would, so every term comes out in the same order.

A word is packed, one code point per letter, as everywhere in the
package, so a prepend copies characters and each word is hashed once.
The memo is one ``lru_cache`` per spec, ``spec._cache["qsh"]``, from
packed word pairs to dicts over packed words, and dies with the spec;
on a module algebra that is the ``YDSpec``'s own cache, beside its
action images and its braiding.
``qsh_words`` reads it for one pair of words and wraps the memo's dict
as it is, with no copy and no conversion, so an element it returns must
not be changed in place (no operation of the package does);
``quasi_shuffle``, the smash product and the diamond product all go
through it.  With a right factor of two letters or more, each letter of
the deeper factor costs 3 frames (the memo's wrapper, the memoised
function and the clause, which calls the memo itself): one more per
level stops one letter times a 300-letter word under the default
recursion limit.  Those frames also guard such products: a word of a
few hundred letters times two is refused by the recursion limit before
anything is built, where the finished product would hold tens of
megabytes, so a recursion-free clause for them needs a bound on memory
first.  The clause refuses a word that is not packed (a tuple kept by a
dict given to ``Element``) with a ``StructuralError``: the test runs
once per memo miss, in the clause, so it adds no frame and a memo hit
skips it.

Each level needs the crossing B(u, b) = beta_{|u|,1}(u (x) b) of the right
head b across the left word: B(u', b) feeds the merge move and B(u, b)
the braid move.  Since B(u, b) = sigma_1(u_0 . B(u', b)) with B("", b) = b,
``crossing`` memoises B per (packed suffix, packed letter) in
``spec._cache["crossing"]`` and fills it by a loop from the right end of
the word, so each suffix is braided once, with one braiding at position
1, however many levels ask for it.  The memo holds every suffix of each
word it holds, so a level calls ``crossing`` once, for B(u, b), and then
reads B(u', b) from it.  Each level recurses on (u', v)
before it braids, so a word too deep for the recursion fails before any
braiding work is spent on it.  An internal oracle,
``quasi_shuffle_general_clause``, runs the same clauses without the
crossing memo: it sweeps B(u', b) with ``block_braiding`` at every
level and every cut, as an independent check on that memo.  Its
word-pair memo and its dict of one-letter products are made and emptied
by each call, so no spec outlives the call in them.

``check_braided_algebra`` evaluates its laws on V^3 through
``checks.first_failure``, sharing m and sigma at 1 and 2 among the three.

The deconcatenation coproduct lives here as well.
"""

from __future__ import annotations

from functools import lru_cache, partial

from .braid import BraidingTable, block_braiding
from .checks import PASS, CheckResult, fail, first_failure, nonempty
from .elements import (Element, _pair_alphabet, accumulate, adjoin_unit_letter, apply_local,
                       letter_table, pack_word)
from .errors import Frozen, StructuralError
from .scalars import _ONE, Scalar


class BraidedAlgebraSpec(Frozen):
    """Structure constants of a finite-dimensional braided algebra.

    ``mult`` maps letter pairs to combinations of letters; a spec stores
    the total table that ``letter_table`` builds from it, zero at every
    missing pair.  ``unit``, when present, is a two-sided unit letter that
    the braiding flips trivially.  ``alphabet`` tags the words (the spec
    itself when not given).  A spec is immutable: ``mult`` is given whole
    at construction, checked and copied over ``alphabet``.  A YD module
    algebra needs none: the ``YDSpec`` is its own braided algebra.
    """

    _fields = ("dim", "braiding", "mult", "unit", "names", "alphabet")

    def __init__(self, dim: int, braiding: BraidingTable, mult: dict[tuple[int, int], Element],
                 unit: int | None = None, names: tuple[str, ...] | None = None,
                 alphabet: object = None):
        self._set(dim=dim, braiding=braiding, mult=mult, unit=unit, names=names,
                  alphabet=self if alphabet is None else alphabet, _cache={})
        if braiding.dim != dim:
            raise StructuralError("braiding dimension does not match the basis size")
        self._set(mult=letter_table(mult, dim, self.alphabet))


def check_braided_algebra(spec: BraidedAlgebraSpec) -> CheckResult:
    """Associativity, the two braiding/multiplication exchange laws, and
    (when a unit is declared) the unit laws, on all basis words.

    The unit's braiding needs no check of its own: the laws force the
    flip.  Let u be the unit and ρ(z) = σ(z⊗u).

    - Right compatibility, σ(id⊗m) = (m⊗id)σ₂σ₁, applied to x⊗y⊗u gives
      with the unit laws σ(x⊗y) = (m⊗id)(id⊗ρ)σ(x⊗y).
    - σ is invertible (``BraidingTable`` refuses a σ that is not, and
      the package's own tables are invertible by construction), so
      c⊗d = (m⊗id)(c⊗ρ(d)) for all c and d; c = u gives ρ(d) = u⊗d.
    - Left compatibility applied to u⊗x⊗y gives σ(u⊗c) = c⊗u the same way.

    Where a unit law fails, σ need not flip the unit, and that law is
    what the check reports.
    """
    m = spec.mult
    sig = spec.braiding.entries

    def laws(x: Element) -> list:
        m1, m2, s1, s2 = (apply_local(t, pos, x) for t in (m, sig) for pos in (1, 2))
        return [("associativity", apply_local(m, 1, m1), apply_local(m, 1, m2)),
                ("braided-compatibility-left", apply_local(m, 2, apply_local(sig, 1, s2)),
                 apply_local(sig, 1, m1)),
                ("braided-compatibility-right", apply_local(m, 1, apply_local(sig, 2, s1)),
                 apply_local(sig, 1, m2))]

    result = first_failure(spec.braiding.basis_words(3), spec.alphabet, laws)
    if not result:
        return result
    if spec.unit is not None:
        u = spec.unit
        word_of = partial(Element.from_word, alphabet=spec.alphabet)
        for a in range(spec.dim):
            letter = word_of((a,))
            if apply_local(m, 1, word_of((u, a))) != letter:
                return fail("left-unit", (u, a))
            if apply_local(m, 1, word_of((a, u))) != letter:
                return fail("right-unit", (a, u))
    return PASS


def adjoin_unit(spec: BraidedAlgebraSpec) -> BraidedAlgebraSpec:
    """Extend a non-unital spec by a fresh unit letter.

    Multiplication gains the unit laws, the braiding flips the unit
    across every letter, and every original entry is kept.  The extended
    table is built unchecked: it is sigma on V tensor V plus the flip on
    the unit pairs, a direct sum, so it is total and invertible exactly
    when sigma is, as every ``BraidingTable`` is.
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
    braiding = BraidingTable._trusted(dim + 1, entries, alphabet)
    return BraidedAlgebraSpec(dim + 1, braiding, mult, unit, names, alphabet)


def _qsh_packed(spec: BraidedAlgebraSpec):
    """The spec's memo ``memo(spec, u, v)``, the terms of u qsh v over packed
    words: an ``lru_cache`` over ``_qsh_words`` made on first use, with the
    dict of one-letter products beside it."""
    memo = spec._cache.get("qsh")
    if memo is None:
        spec._cache["qsh1"] = {}
        memo = spec._cache["qsh"] = lru_cache(maxsize=None)(_qsh_words)
    return memo


def qsh_words(spec: BraidedAlgebraSpec, u: str, v: str) -> Element:
    """u qsh v for two packed words: the spec's memo entry, wrapped."""
    return Element._wrap(_qsh_packed(spec)(spec, u, v), spec.alphabet)


def _qsh_words(spec: BraidedAlgebraSpec, u: str, v: str) -> dict[str, Scalar]:
    return _qsh_general(spec, u, v, spec._cache["qsh"], _memo_crossings, spec._cache["qsh1"])


def _qsh_general(spec: BraidedAlgebraSpec, u: str, v: str, rec, crossings,
                 singles: dict) -> dict[str, Scalar]:
    """u qsh v over packed words: u_0 (u' qsh v), then c w_0 (w' qsh v') for
    each term c w of B(u, v_0), then c m(u_0, w_0) (w' qsh v') for each term
    c w of B(u', v_0).  A word times the empty word is that word; a word
    times one letter takes ``_qsh_one_letter``."""
    if type(u) is not str or type(v) is not str:  # once per memo miss, before any use
        raise StructuralError("the quasi-shuffle takes packed words (Element.from_word, pack_word)")
    if not u or not v:
        return {u + v: _ONE}
    if len(v) == 1:
        return _qsh_one_letter(spec, u, v, crossings, singles)
    head, rest = u[0], v[1:]
    out = {head + w: c for w, c in rec(spec, u[1:], v).items()}
    shifted, moved = crossings(spec, u, v[0])
    steps = [(word[0], coeff, word[1:]) for word, coeff in moved._terms.items()]
    mult, left = spec.mult, ord(head)
    for word, coeff in shifted._terms.items():
        steps.extend((d, coeff * c, word[1:])
                     for d, c in mult[(left, ord(word[0]))]._terms.items())
    for letter, coeff, tail in steps:
        scale = coeff is not _ONE
        for w, c in rec(spec, tail, rest).items():
            accumulate(out, letter + w, c * coeff if scale else c)
    return out


def _qsh_one_letter(spec: BraidedAlgebraSpec, u: str, b: str, crossings,
                    singles: dict) -> dict[str, Scalar]:
    """u qsh b for a nonempty word u and a letter b: the clause unrolled over
    the cuts of u, u b + sum_k u[:k] (B(u[k:], b) + m(u_k, B(u[k+1:], b))).

    The cuts run from the right, as the recursion would add them, behind a
    copy of the longest proper suffix product u[k:] qsh b found in
    ``singles``; u qsh b is stored there, and no level under it."""
    start = 1
    while start < len(u) and (u[start:], b) not in singles:
        start += 1
    out = ({u[:start] + w: c for w, c in singles[(u[start:], b)].items()} if start < len(u)
           else {u + b: _ONE})
    mult = spec.mult
    for k in range(start - 1, -1, -1):
        prefix, left = u[:k], ord(u[k])
        shifted, moved = crossings(spec, u[k:], b)
        for word, coeff in moved._terms.items():
            accumulate(out, prefix + word, coeff)
        for word, coeff in shifted._terms.items():
            for d, c in mult[(left, ord(word[0]))]._terms.items():
                accumulate(out, prefix + d + word[1:], coeff * c)
    singles[(u, b)] = out
    return out


def crossing(spec: BraidedAlgebraSpec, u: str, b: str) -> Element:
    """B(u, b) = beta_{|u|,1}(u (x) b): the letter b braided across the word u,
    both packed.

    Memoised per (suffix, letter) on the spec; a miss extends the longest
    memoised suffix of u leftwards by B(u, b) = sigma_1(u_0 . B(u', b)).
    """
    memo = spec._cache.setdefault("crossing", {})
    k = 0
    while k < len(u) and (u[k:], b) not in memo:
        k += 1
    out = memo[(u[k:], b)] if k < len(u) else Element._wrap({b: _ONE}, spec.alphabet)
    for i in range(k - 1, -1, -1):
        out = spec.braiding.apply(_prepend(u[i], out))
        memo[(u[i:], b)] = out
    return out


def _memo_crossings(spec: BraidedAlgebraSpec, u: str, b: str) -> tuple[Element, Element]:
    """(B(u', b), B(u, b)) from the spec's memo, which holds B(u', b) once
    ``crossing`` has filled in B(u, b)."""
    moved, rest = crossing(spec, u, b), u[1:]
    return (spec._cache["crossing"][(rest, b)] if rest else crossing(spec, rest, b)), moved


def _swept_crossings(spec: BraidedAlgebraSpec, u: str, b: str) -> tuple[Element, Element]:
    """(B(u', b), B(u, b)) for the oracle: one block sweep, then sigma_1."""
    shifted = block_braiding(
        spec.braiding, len(u) - 1, 1, Element._wrap({u[1:] + b: _ONE}, spec.alphabet))
    return shifted, spec.braiding.apply(_prepend(u[0], shifted))


def _prepend(letter: str, x: Element) -> Element:
    return Element._wrap({letter + w: c for w, c in x._terms.items()}, x.alphabet)


def quasi_shuffle(spec: BraidedAlgebraSpec, x: Element, y: Element) -> Element:
    """Bilinear quantum quasi-shuffle product on the tensor space."""
    return x.bilinear(y, partial(qsh_words, spec), cls=Element, alphabet=spec.alphabet)


def quasi_shuffle_general_clause(spec: BraidedAlgebraSpec, x: Element, y: Element) -> Element:
    """Internal oracle: the same clause, with the crossings swept, not memoised,
    through memos of this call alone."""
    singles: dict = {}

    @lru_cache(maxsize=None)
    def words(spec, u: str, v: str) -> dict[str, Scalar]:
        return _qsh_general(spec, u, v, words, _swept_crossings, singles)

    try:
        return x.bilinear(y, lambda u, v: Element._wrap(words(spec, u, v), spec.alphabet),
                          cls=Element, alphabet=spec.alphabet)
    finally:  # the memo and its function form a cycle: empty it now, not at a collection
        words.cache_clear()
        singles.clear()


def deconcat(x: Element) -> Element:
    """Full deconcatenation coproduct, as an Element over pairs of words."""
    return x.rekey(lambda w: [(w[:k], w[k:]) for k in range(len(w) + 1)],
                   cls=Element, alphabet=_pair_alphabet(x.alphabet))


def check_quasi_shuffle_bialgebra(spec: BraidedAlgebraSpec,
                                  pairs) -> CheckResult:
    """Coproduct compatibility of the quasi-shuffle product.

    For each sample pair of basis words (tuples of letters, or packed),
    deconcatenating the product must equal multiplying the
    deconcatenations componentwise after braiding the two middle tensor
    legs across each other.  A failure's witness is the pair as given.
    """
    qsh = _qsh_packed(spec)
    for sample in nonempty(pairs):
        u, v = map(pack_word, sample)
        lhs = deconcat(Element._wrap(qsh(spec, u, v), spec.alphabet))
        rhs: dict[tuple, Scalar] = {}
        for i in range(len(u) + 1):
            u1, u2 = u[:i], u[i:]
            for j in range(len(v) + 1):
                v1, v2 = v[:j], v[j:]
                crossed = block_braiding(
                    spec.braiding, len(u2), len(v1), Element._wrap({u2 + v1: _ONE}, spec.alphabet),
                )._terms if u2 and v1 else {u2 + v1: _ONE}
                for word, c in crossed.items():
                    left = qsh(spec, u1, word[:len(v1)])
                    right = qsh(spec, word[len(v1):], v2)
                    for wl, cl in left.items():
                        for wr, cr in right.items():
                            accumulate(rhs, (wl, wr), c * cl * cr)
        if lhs._terms != rhs:
            return fail("quasi-shuffle-bialgebra", tuple(sample), lhs,
                        Element._wrap(rhs, lhs.alphabet))
    return PASS


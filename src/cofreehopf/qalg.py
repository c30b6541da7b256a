"""Braided algebras by structure constants and the quantum quasi-shuffle.

A braided algebra is a based space with a braiding table and structure
constants for an associative multiplication compatible with the
braiding.  Every one the package computes with is a
``grouphopf.YDSpec``: with the braiding its Yetter-Drinfeld structure
induces, or with a table given at construction (a [braiding] override,
or data built by hand on a rank-0 spec), and ``YDSpec.with_unit`` is
the one extension by a unit letter.

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
u qsh b = u b + sum_k u[:k] (B(u[k:], b) + m(u_k, B(u[k+1:], b))),
B the crossing below.  The loop carries the crossing down the cuts:
B(u[k:], b) = sigma_1(u_k . B(u[k+1:], b)), one braiding at position 1
read off the table, so B(u[k+1:], b) feeds cut k's merge move and is
braided once into the next crossing, and no crossing is memoised.  Its
products are kept in a plain dict, ``spec._cache["qsh1"]``, which holds
(u qsh b, B(u, b)) for each pair (u, b) it computes and no level under
it, so a long product leaves one result behind, not one per suffix.
When u[1:] qsh b is in that dict, the loop starts behind it, copied
under the first letter of u, carries on from the crossing stored with
it and adds the one cut before it; otherwise it walks every cut.  Either
way the cuts are added in the order the recursion would add them, so
every term comes out in the same order.  u[1:] is the one suffix looked
for: inside a product with a longer right factor the clause asks for
u[i+1:] qsh b just before u[i:] qsh b, and looking for any shorter one
would slice and hash every suffix of a fresh word.

A left factor of one letter a has an empty tail, so a qsh v unrolls
too, over the cuts of v, carrying a rightwards by the braiding: a level
holds terms (p, y), p the k letters that a has crossed into, y the
letter carried, and each cut adds the keep p y v[k:] and the merge
p m(y, v_k) v[k+1:], and feeds the braid move sigma(y v_k) into the
next level.  On YD data the letter carried stays a and p runs over the
words of deg(a).v[:k]: one on a diagonal action, up to 2^k on the
Jordan plane, as many as the output holds.  Its products are kept
in the memo below, with no level under them.  The clause takes it for
a right factor of two letters or more, so a 1x1 product keeps the loop
above.

A word is packed, one code point per letter, as everywhere in the
package, so a prepend copies characters and each word is hashed once.
The memo is one plain dict per spec, ``spec._cache["qsh"]``, from
packed word pairs to dicts over packed words, and dies with the spec:
it is the ``YDSpec``'s own cache, beside its action images and its
braiding.  It keeps finished products, not levels, of three kinds:

- each pair a caller asks for;
- the tails the clause of an asked pair reads directly, its keep, braid
  and merge products;
- every product with one letter on a side, the two loops' products.

The tails are what is asked next.  On a unital spec, with P prepending
the unit, the three moves of Px qsh Py are P(x qsh Py), P(Px qsh y) and
P(x qsh y), the right side of the weight-1 Rota-Baxter identity (L. Guo
and W. Keigher, *Baxter algebras and shuffle products*, Adv. Math. 150,
2000, for mixable shuffles), which ``check rb``, its smash instance and
the double-product check ask for right after the left side.  The
levels below the tails live in the level table,
``spec._cache["qsh_levels"]``, an ``lru_cache`` emptied when the asked
product is finished, so an n x 2 product leaves its pair, its tails and
its one-letter products behind, not n levels of up to n^2 words each.
``qsh_words`` reads the memo for one pair of words, one dict read on a
hit, and wraps the memo's dict as it is, with no copy and no conversion,
and ``quasi_shuffle`` of two basis elements returns that dict too (the
rule of ``elements``: no result is changed in place); ``quasi_shuffle``,
the smash product, the diamond product and
``check_quasi_shuffle_bialgebra`` all go through it.  With
two letters or more on both sides, each letter of the deeper factor
costs 3 frames (the level table's wrapper, the function it memoises and
the clause, which calls the table itself), as many as a memo of every
level cost.  Those frames also guard such products: a word of a few
hundred letters times two is refused by the recursion limit before
anything is built, where the finished product would hold tens of
megabytes, so a recursion-free clause for them needs a bound on memory
first.  The clause refuses a word that is not packed (a tuple kept by a
dict given to ``Element``) with a ``StructuralError``: the test runs
once per run of the clause, so it adds no frame and a memo hit skips
it.

Each level needs the crossing B(u, b) = beta_{|u|,1}(u (x) b) of the right
head b across the left word: B(u', b) feeds the merge move and B(u, b)
the braid move.  Since B(u, b) = sigma_1(u_0 . B(u', b)) with B("", b) = b,
``crossing`` memoises B per (packed suffix, packed letter) in
``spec._cache["crossing"]`` and fills it by a loop from the right end of
the word, with the one-letter loop's braiding step, so each suffix is
braided once however many levels ask for it.  The memo serves the
clause with two letters or more on both sides and
``rotabaxter.diamond_product``, no one-letter product.  It holds every
suffix of each word it holds, so a level's ``crossing`` for B(u', b),
after the one for B(u, b), finds it at once.  Each level recurses on
(u', v) before it braids, so a word too deep for the recursion fails
before any braiding work is spent on it.  The product passes
``crossing`` and the braiding step to the clause as its crossing
readers.  An internal oracle, ``quasi_shuffle_general_clause``, runs
the same clauses with readers of its own: every crossing it reads,
B(u, b) and B(u', b) at a level and B(u[k:], b) at a cut of the
one-letter loop, is one ``block_braiding`` sweep of the word followed
by the letter, an independent check on the memo and on the step.  Its
word-pair memo and its dict of one-letter products are made and
emptied by each call, so no spec outlives the call in them.

``check_braided_algebra`` evaluates its laws on V^3 through
``checks.first_failure``, sharing m and sigma at 1 and 2 among the three.

The deconcatenation coproduct lives here as well.
"""

from __future__ import annotations

from functools import lru_cache, partial

from .braid import BraidingTable, block_braiding
from .checks import PASS, CheckResult, fail, first_failure, nonempty
from .elements import Element, _pair_alphabet, accumulate, apply_local, pack_word
from .errors import StructuralError
from .grouphopf import AbelianGroup, YDSpec
from .scalars import _ONE, Scalar


def BraidedAlgebraSpec(dim: int, braiding: BraidingTable, mult: dict[tuple[int, int], Element],
                       names: tuple[str, ...], alphabet: object) -> YDSpec:
    """The rank-0 ``YDSpec`` on ``names`` with ``braiding`` given.  Its
    entries and ``mult``, tagged with ``alphabet``, are copied over the
    spec.  Only ``perfbench/fixtures.py`` calls it, by this name, until the
    benchmark's fixtures next change (ROADMAP items 1 and 17)."""
    group = AbelianGroup(0)
    return YDSpec(group, names, (group.identity(),) * dim, (), mult, braiding=braiding)


def check_braided_algebra(spec: YDSpec) -> CheckResult:
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


def adjoin_unit(spec: YDSpec) -> YDSpec:
    """``spec.with_unit()``, under the name ``perfbench/fixtures.py`` calls,
    until the benchmark's fixtures next change (ROADMAP items 1 and 17)."""
    return spec.with_unit()


def qsh_words(spec: YDSpec, u: str, v: str) -> Element:
    """u qsh v for two packed words: the memo's entry, wrapped, or on a miss
    the product ``_qsh_asked`` finishes and keeps."""
    products = spec._cache.get("qsh")
    out = None if products is None else products.get((u, v))
    return Element._wrap(_qsh_asked(spec, u, v) if out is None else out, spec.alphabet)


def _qsh_asked(spec: YDSpec, u: str, v: str) -> dict[str, Scalar]:
    """u qsh v for a pair the memo lacks, kept: the clause, its tails read
    through ``_qsh_tail`` and the levels below them through the level table,
    which is emptied when the product is finished.  On first use it makes
    the memo, the level table and the dict of one-letter products and their
    crossings."""
    cache = spec._cache
    if "qsh" not in cache:
        cache["qsh"], cache["qsh1"], cache["qsh_levels"] = {}, {}, lru_cache(None)(_qsh_level)
    try:
        out = cache["qsh"][(u, v)] = _qsh_general(spec, u, v, _qsh_tail, crossing, _braid_step,
                                                  cache["qsh1"])
    finally:
        cache["qsh_levels"].cache_clear()
    return out


def _qsh_tail(spec: YDSpec, u: str, v: str) -> dict[str, Scalar]:
    """A tail the asked pair's clause reads (keep, braid or merge): read
    through the level table and kept in the memo."""
    return spec._cache["qsh"].setdefault((u, v), spec._cache["qsh_levels"](spec, u, v))


def _qsh_level(spec: YDSpec, u: str, v: str) -> dict[str, Scalar]:
    """u qsh v below an asked pair, memoised by the level table: the memo's
    entry, or the clause, recursing through the level table.  A product
    with one letter on a side is kept in the memo."""
    cache = spec._cache
    out = cache["qsh"].get((u, v))
    if out is None:
        out = _qsh_general(spec, u, v, cache["qsh_levels"], crossing, _braid_step, cache["qsh1"])
        if len(u) == 1 or len(v) == 1:
            cache["qsh"][(u, v)] = out
    return out


def _qsh_general(spec: YDSpec, u: str, v: str, rec, cross, step, singles) -> dict[str, Scalar]:
    """u qsh v over packed words: u_0 (u' qsh v), then c w_0 (w' qsh v') for
    each term c w of B(u, v_0), then c m(u_0, w_0) (w' qsh v') for each term
    c w of B(u', v_0), each B read by ``cross(spec, word, letter)``.  A word
    times the empty word is that word; a word times one letter takes
    ``_qsh_one_letter`` with ``step``, and one letter times a longer word
    ``_qsh_letter_times``."""
    if type(u) is not str or type(v) is not str:  # once per memo miss, before any use
        raise StructuralError("the quasi-shuffle takes packed words (Element.from_word, pack_word)")
    if not u or not v:
        return {u + v: _ONE}
    if len(v) == 1:
        return _qsh_one_letter(spec, u, v, step, singles)
    if len(u) == 1:
        return _qsh_letter_times(spec, u, v)
    head, rest = u[0], v[1:]
    out = {head + w: c for w, c in rec(spec, u[1:], v).items()}
    moved, shifted = cross(spec, u, v[0]), cross(spec, u[1:], v[0])
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


def _qsh_one_letter(spec: YDSpec, u: str, b: str, step, singles: dict) -> dict[str, Scalar]:
    """u qsh b for a nonempty word u and a letter b: the clause unrolled over
    the cuts of u, u b + sum_k u[:k] (B(u[k:], b) + m(u_k, B(u[k+1:], b))).

    The cuts run from the right, as the recursion would add them, behind a
    copy of u[1:] qsh b when ``singles`` holds it, and the crossing is
    carried down the loop: each cut makes B(u[k:], b) from B(u[k+1:], b)
    by ``step(spec, u, k, b, carried)``, starting from b or from the
    crossing stored with u[1:].
    ``singles`` keeps (u qsh b, B(u, b)) under (u, b), and no level under it."""
    start = 1 if (u[1:], b) in singles else len(u)
    below, carried = singles.get((u[start:], b), ({b: _ONE}, {b: _ONE}))
    out = {u[:start] + w: c for w, c in below.items()}
    mult = spec.mult
    for k in range(start - 1, -1, -1):
        prefix, left = u[:k], ord(u[k])
        moved = step(spec, u, k, b, carried)
        for word, coeff in moved.items():
            accumulate(out, prefix + word, coeff)
        for word, coeff in carried.items():
            for d, c in mult[(left, ord(word[0]))]._terms.items():
                accumulate(out, prefix + d + word[1:], coeff * c)
        carried = moved
    singles[(u, b)] = out, carried
    return out


def _qsh_letter_times(spec: YDSpec, a: str, v: str) -> dict[str, Scalar]:
    """a qsh v for a letter a and a word v: the clause unrolled over the cuts
    of v.  Level k holds terms c (p, y), p a word of k letters and y a
    letter, starting from ("", a); at cut k each term adds c p y v[k:] (the
    keep move) and c p m(y, v_k) v[k+1:] (the merge), and feeds
    c e (p x, y') into level k + 1 for each term e x y' of sigma(y v_k)."""
    out: dict[str, Scalar] = {}
    level = {("", a): _ONE}
    sigma, mult = spec.braiding.entries, spec.mult
    for k, b in enumerate(v):
        rest, below = v[k + 1:], {}
        for (p, y), c in level.items():
            accumulate(out, p + y + v[k:], c)
            pair = (ord(y), ord(b))
            for d, e in mult[pair]._terms.items():
                accumulate(out, p + d + rest, e if c is _ONE else c * e)
            for w, e in sigma[pair]._terms.items():
                accumulate(below, (p + w[0], w[1]), e if c is _ONE else c * e)
        level = below
    for (p, y), c in level.items():
        accumulate(out, p + y, c)
    return out


def _braid_step(spec: YDSpec, u: str, k: int, b: str, carried: dict) -> dict[str, Scalar]:
    """B(u[k:], b) = sigma_1(u_k . B(u[k+1:], b)) over term dicts, from the
    terms of B(u[k+1:], b): one braiding at position 1, read off the table."""
    out: dict[str, Scalar] = {}
    sigma, left = spec.braiding.entries, ord(u[k])
    for word, c in carried.items():
        for d, e in sigma[(left, ord(word[0]))]._terms.items():
            accumulate(out, d + word[1:], e if c is _ONE else c * e)
    return out


def crossing(spec: YDSpec, u: str, b: str) -> Element:
    """B(u, b) = beta_{|u|,1}(u (x) b): the letter b braided across the word u,
    both packed.

    Memoised per (suffix, letter) on the spec; a miss extends the longest
    memoised suffix of u leftwards by ``_braid_step``.
    """
    memo = spec._cache.setdefault("crossing", {})
    k = 0
    while k < len(u) and (u[k:], b) not in memo:
        k += 1
    out = memo[(u[k:], b)] if k < len(u) else Element._wrap({b: _ONE}, spec.alphabet)
    for i in range(k - 1, -1, -1):
        out = memo[(u[i:], b)] = Element._wrap(_braid_step(spec, u, i, b, out._terms), out.alphabet)
    return out


def _swept(spec: YDSpec, u: str, b: str) -> Element:
    """B(u, b) for the oracle: one block sweep of u b."""
    return block_braiding(spec.braiding, len(u), 1, Element._wrap({u + b: _ONE}, spec.alphabet))


def _swept_step(spec: YDSpec, u: str, k: int, b: str, carried) -> dict[str, Scalar]:
    """B(u[k:], b) for the oracle: its own sweep, whatever was carried."""
    return _swept(spec, u[k:], b)._terms


def quasi_shuffle(spec: YDSpec, x: Element, y: Element) -> Element:
    """Bilinear quantum quasi-shuffle product on the tensor space."""
    return x.bilinear(y, partial(qsh_words, spec), cls=Element, alphabet=spec.alphabet)


def quasi_shuffle_general_clause(spec: YDSpec, x: Element, y: Element) -> Element:
    """Internal oracle: the same clause, with the crossings swept, not memoised,
    through memos of this call alone."""
    singles: dict = {}

    @lru_cache(maxsize=None)
    def words(spec, u: str, v: str) -> dict[str, Scalar]:
        return _qsh_general(spec, u, v, words, _swept, _swept_step, singles)

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


def check_quasi_shuffle_bialgebra(spec: YDSpec,
                                  pairs) -> CheckResult:
    """Coproduct compatibility of the quasi-shuffle product.

    For each sample pair of basis words (tuples of letters, or packed),
    deconcatenating the product must equal multiplying the
    deconcatenations componentwise after braiding the two middle tensor
    legs across each other.  A failure's witness is the pair as given.
    """
    for sample in nonempty(pairs):
        u, v = map(pack_word, sample)
        lhs = deconcat(qsh_words(spec, u, v))
        memo = spec._cache["qsh"]  # made by qsh_words: below, a hit is one dict read
        rhs: dict[tuple, Scalar] = {}
        for i in range(len(u) + 1):
            u1, u2 = u[:i], u[i:]
            for j in range(len(v) + 1):
                v1, v2 = v[:j], v[j:]
                crossed = block_braiding(
                    spec.braiding, len(u2), len(v1), Element._wrap({u2 + v1: _ONE}, spec.alphabet),
                )._terms if u2 and v1 else {u2 + v1: _ONE}
                for word, c in crossed.items():
                    left = memo.get((u1, word[:len(v1)])) or _qsh_asked(spec, u1, word[:len(v1)])
                    right = memo.get((word[len(v1):], v2)) or _qsh_asked(spec, word[len(v1):], v2)
                    for wl, cl in left.items():
                        for wr, cr in right.items():
                            accumulate(rhs, (wl, wr), c * cl * cr)
        if lhs._terms != rhs:
            return fail("quasi-shuffle-bialgebra", tuple(sample), lhs,
                        Element._wrap(rhs, lhs.alphabet))
    return PASS


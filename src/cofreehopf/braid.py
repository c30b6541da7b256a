"""Permutations, reduced words and braiding operators on tensor words.

Conventions, fixed once and pinned down by tests:

* A permutation is stored in one-line notation, 1-based: ``images[k-1]``
  is where position k is sent.
* Composition ``v * w`` applies w first, then v.
* A permutation acts on tensor positions: the letter at position k of a
  word moves to position w(k).
* ``reduced_word(w)`` returns generator indices ``(i_1, ..., i_l)`` with
  ``w = s_{i_1} ∘ ... ∘ s_{i_l}`` and l equal to the inversion count.
* The braid lift of ``w`` applies the braiding at adjacent positions
  following a reduced word, rightmost generator first; for braidings
  satisfying the Yang-Baxter equation the result is independent of the
  reduced word chosen, and for the flip braiding it reproduces the
  position action.
* The block braiding of a degree-i block past a degree-j block is one
  adjacent sweep, with no permutation built: for k = 1..j, apply the
  braiding at positions i+k-1 down to k, which moves the k-th letter of
  the right block to position k.  That is the braid lift of the block
  rotation along ``reduced_word(block_rotation(i, j))``, generator for
  generator.  Block rotations are 321-avoiding, so their reduced words
  differ only by swapping commuting generators, and every one of them
  gives this operator on any table, Yang-Baxter or not.
* The Yang-Baxter check applies each side once to a sum of basis words
  of V^3, each word carrying its index as a fourth, tag letter that no
  braiding reads (``checks.first_failure``); 4096 words at a time, so a
  check on fewer than 17 letters takes one pass.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Mapping

from . import linalg
from .checks import CheckResult, first_failure
from .elements import Element, apply_local
from .errors import Frozen, StructuralError
from .scalars import Scalar


class Permutation(Frozen):
    _fields = ("images",)

    def __init__(self, images: tuple[int, ...]):
        self._set(images=images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise StructuralError(f"not a permutation of 1..{n}: {images}")

    __eq__ = Frozen._equal_values

    def __hash__(self) -> int:
        return hash(self._values())

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, k: int) -> int:
        return self.images[k - 1]

    def __mul__(self, other: Permutation) -> Permutation:
        """Composition applying ``other`` first."""
        if self.size != other.size:
            raise StructuralError("permutation size mismatch")
        return Permutation(tuple(self(other(k)) for k in range(1, self.size + 1)))

    def inverse(self) -> Permutation:
        images = [0] * self.size
        for k, v in enumerate(self.images, start=1):
            images[v - 1] = k
        return Permutation(tuple(images))

    def is_identity(self) -> bool:
        return all(v == k for k, v in enumerate(self.images, start=1))


def transposition(n: int, i: int) -> Permutation:
    images = list(range(1, n + 1))
    images[i - 1], images[i] = images[i], images[i - 1]
    return Permutation(tuple(images))


def reduced_word(w: Permutation) -> tuple[int, ...]:
    """One reduced word for w, built by stripping descents from the right."""
    images = list(w.images)
    strip: list[int] = []
    changed = True
    while changed:
        changed = False
        for i in range(len(images) - 1):
            if images[i] > images[i + 1]:
                images[i], images[i + 1] = images[i + 1], images[i]
                strip.append(i + 1)
                changed = True
                break
    return tuple(reversed(strip))


@lru_cache(maxsize=None)
def all_reduced_words(w: Permutation) -> tuple[tuple[int, ...], ...]:
    """Every reduced word of w (w of moderate size: factorial growth)."""
    if w.is_identity():
        return ((),)
    n = w.size
    words: list[tuple[int, ...]] = []
    for i in range(1, n):
        if w(i) > w(i + 1):
            shorter = w * transposition(n, i)
            words.extend(prefix + (i,) for prefix in all_reduced_words(shorter))
    return tuple(words)


def block_rotation(i: int, j: int) -> Permutation:
    """The permutation sending positions 1..i to j+1..j+i and i+1..i+j to 1..j."""
    if i < 0 or j < 0 or i + j < 1:
        raise StructuralError("block sizes must be nonnegative with i + j >= 1")
    return Permutation(tuple(range(j + 1, j + i + 1)) + tuple(range(1, j + 1)))


class BraidingTable:
    """A linear operator on V tensor V given on basis letter pairs.

    Entries map each ordered pair (a, b) of letters to an Element over
    two-letter words.  Construction verifies totality and invertibility
    on V tensor V over the fraction field (``linalg.is_invertible``).
    """

    __slots__ = ("dim", "entries", "alphabet")

    def __init__(self, dim: int, entries: Mapping[tuple[int, int], Element],
                 alphabet=None):
        self.dim = dim
        self.entries = dict(entries)
        self.alphabet = alphabet
        for a in range(dim):
            for b in range(dim):
                entry = self.entries.get((a, b))
                if entry is None:
                    raise StructuralError(f"braiding table missing entry for {(a, b)}")
                for word in entry._terms:
                    if len(word) != 2 or not all(
                            isinstance(l, int) and 0 <= l < dim for l in word):
                        raise StructuralError(
                            f"braiding entry for {(a, b)} has an invalid word {word}")
        if not self._invertible():
            raise StructuralError("braiding table is not invertible on V tensor V")

    def _invertible(self) -> bool:
        # one sparse row per input pair: the transpose, invertible with the operator
        return linalg.is_invertible([
            {a * self.dim + b: coeff for (a, b), coeff in self.entries[pair]._terms.items()}
            for pair in itertools.product(range(self.dim), repeat=2)])

    def apply(self, x: Element, pos: int = 1) -> Element:
        return apply_local(self.entries, pos, x)

    def basis_words(self, length: int):
        """All basis words of the given tensor power, in index order."""
        return itertools.product(range(self.dim), repeat=length)


def flip_braiding(dim: int, alphabet=None) -> BraidingTable:
    entries = {
        (a, b): Element.from_word((b, a), alphabet=alphabet)
        for a in range(dim)
        for b in range(dim)
    }
    return BraidingTable(dim, entries, alphabet)


def diagonal_braiding(dim: int, exponents, alphabet=None) -> BraidingTable:
    """sigma(v_a, v_b) = q**exponents[a][b] * (v_b, v_a)."""
    entries = {
        (a, b): Element.from_word((b, a), Scalar.q_power(exponents[a][b]), alphabet)
        for a in range(dim)
        for b in range(dim)
    }
    return BraidingTable(dim, entries, alphabet)


def check_yang_baxter(table: BraidingTable) -> CheckResult:
    """Compare both hexagon compositions on every basis word of V^3."""
    s = table.apply
    return first_failure(table.basis_words(3), table.alphabet, lambda x: [
        ("yang-baxter", s(s(s(x, 1), 2), 1), s(s(s(x, 2), 1), 2))])


def braid_lift(table: BraidingTable, w: Permutation, x: Element) -> Element:
    """Apply the braid-group lift of w along one reduced word.

    Words in x must have length equal to the size of w.  Yang-Baxter
    validity of the table is the caller's contract; it is what makes the
    result independent of the chosen reduced word.
    """
    for word in x._terms:
        if len(word) != w.size:
            raise StructuralError(
                f"word length {len(word)} does not match permutation size {w.size}")
    return braid_lift_word(table, reduced_word(w), x)


def braid_lift_word(table: BraidingTable, generators: tuple[int, ...], x: Element) -> Element:
    """Apply an explicit generator word, rightmost generator first."""
    out = x
    for i in reversed(generators):
        out = table.apply(out, i)
    return out


def block_braiding(table: BraidingTable, i: int, j: int, x: Element) -> Element:
    """The braiding between a degree-i block and a degree-j block.

    The adjacent sweep of the module docstring; for i = 0 or j = 0 it
    applies nothing (the flip across a scalar leg is the identity).
    """
    for word in x._terms:
        if len(word) != i + j:
            raise StructuralError(f"word length {len(word)} does not match blocks {i} + {j}")
    out = x
    for k in range(1, j + 1):
        for pos in range(i + k - 1, k - 1, -1):
            out = table.apply(out, pos)
    return out

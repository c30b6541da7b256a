"""Braiding operators on tensor words.

* The block braiding of a degree-i block past a degree-j block is one
  adjacent sweep, with no permutation built: for k = 1..j, apply the
  braiding at positions i+k-1 down to k, which moves the k-th letter of
  the right block to position k.  That is the braid lift of the block
  rotation along one of its reduced words, generator for generator.
  Block rotations are 321-avoiding, so their reduced words differ only
  by swapping commuting generators, and every one of them gives this
  operator on any table, Yang-Baxter or not.  The permutations, reduced
  words and braid lifts that check this live in the tests.
* The Yang-Baxter check applies each side once to a sum of basis words
  of V^3, each word carrying its index as a fourth, tag letter that no
  braiding reads (``checks.first_failure``); 4096 words at a time, so a
  check on fewer than 17 letters takes one pass.
"""

from __future__ import annotations

import itertools
from typing import Mapping

from .checks import CheckResult, first_failure
from .elements import Element, apply_local
from .errors import StructuralError


class BraidingTable:
    """A linear operator on V tensor V given on basis letter pairs.

    Entries map each ordered pair (a, b) of letter indices to an Element
    over packed two-letter words.  Construction verifies totality and
    invertibility on V tensor V over the fraction field
    (``linalg.is_invertible``); ``_trusted`` skips both, for a table whose
    maker has already proved them: the braiding induced by YD data, the
    flip and ``adjoin_unit``'s extension.  So only a table given from
    outside, a ``[braiding]`` override or one built by hand, loads
    ``linalg``.
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
                    if type(word) is not str or len(word) != 2 or ord(max(word)) >= dim:
                        letters = tuple(map(ord, word)) if type(word) is str else word
                        raise StructuralError(
                            f"braiding entry for {(a, b)} has an invalid word {letters}")
        if not self._invertible():
            raise StructuralError("braiding table is not invertible on V tensor V")

    @classmethod
    def _trusted(cls, dim: int, entries: dict[tuple[int, int], Element],
                 alphabet=None) -> BraidingTable:
        """A table over ``entries`` as they are, checked for nothing: the
        caller knows them total, over packed two-letter words and invertible."""
        table = cls.__new__(cls)
        table.dim, table.entries, table.alphabet = dim, entries, alphabet
        return table

    def _invertible(self) -> bool:
        from . import linalg  # only a table given from outside pays for it

        # one sparse row per input pair, its entry's terms by output pair: the
        # transpose, invertible with the operator
        return linalg.is_invertible([self.entries[pair]._terms
                                     for pair in itertools.product(range(self.dim), repeat=2)])

    def apply(self, x: Element, pos: int = 1) -> Element:
        return apply_local(self.entries, pos, x)

    def basis_words(self, length: int):
        """All basis words of the given tensor power, in index order, as
        tuples of letters."""
        return itertools.product(range(self.dim), repeat=length)


def flip_braiding(dim: int, alphabet=None) -> BraidingTable:
    """The flip v tensor w -> w tensor v, built unchecked: it is total over
    two-letter words by construction, and its own inverse."""
    return BraidingTable._trusted(dim, {
        (a, b): Element.from_word((b, a), alphabet=alphabet)
        for a in range(dim)
        for b in range(dim)
    }, alphabet)


def check_yang_baxter(table: BraidingTable) -> CheckResult:
    """Compare both hexagon compositions on every basis word of V^3."""
    s = table.apply
    return first_failure(table.basis_words(3), table.alphabet, lambda x: [
        ("yang-baxter", s(s(s(x, 1), 2), 1), s(s(s(x, 2), 1), 2))])


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

"""Pass/counterexample reporting shared by every axiom checker."""

from __future__ import annotations

from itertools import islice
from typing import Any, Callable, Iterable, Iterator

from .elements import Element, pack_word
from .errors import Record, StructuralError
from .scalars import Scalar


class CheckResult(Record):
    """Outcome of an axiom check.

    ``ok`` is True for a pass.  On failure ``law`` names the violated
    identity, ``witness`` is the first violating input (usually a basis
    word or a pair of them) and ``lhs``/``rhs`` hold both evaluated sides.
    """

    _fields = ("ok", "law", "witness", "lhs", "rhs")

    def __init__(self, ok: bool, law: str = "", witness: Any = None, lhs: Any = None,
                 rhs: Any = None):
        self.ok, self.law, self.witness, self.lhs, self.rhs = ok, law, witness, lhs, rhs

    __eq__ = Record._equal_values  # and so unhashable

    def __bool__(self) -> bool:
        return self.ok

    def sides(self, render: Callable[[Any], str] = str) -> dict[str, str]:
        """``lhs`` and ``rhs`` as text, or nothing when neither side was evaluated."""
        if self.lhs is None and self.rhs is None:
            return {}
        return {"lhs": render(self.lhs), "rhs": render(self.rhs)}

    def describe(self, render: Callable[[Any], str] = str,
                 witness: Callable[[Any], str] = repr) -> str:
        if self.ok:
            return "PASS"
        return "; ".join([f"FAIL {self.law}", f"at {witness(self.witness)}",
                          *(f"{side} = {text}" for side, text in self.sides(render).items())])


PASS = CheckResult(True)


def fail(law: str, witness, lhs=None, rhs=None) -> CheckResult:
    return CheckResult(False, law, witness, lhs, rhs)


def nonempty(samples: Iterable) -> Iterator:
    """The samples of a check, then StructuralError if there were none:
    a check over no samples examined nothing and must not read as a pass."""
    empty = True
    for sample in samples:
        empty = False
        yield sample
    if empty:
        raise StructuralError("the check was given no samples")


_BATCH = 4096  # words per tagged space: bounds a check's memory, not its speed


def first_failure(words: Iterable, alphabet, laws: Callable[[Element], list]) -> CheckResult:
    """Check laws on basis words (tuples of letters) a batch at a time:
    ``laws`` maps x, the sum of the batch packed, with each word's index
    appended as a tag letter that no operator reads, to ``(law, lhs, rhs)``
    triples.  PASS, or the first word, and at it the first law given, whose
    sides differ, untagged."""
    words, one = iter(words), Scalar.one()
    while batch := list(islice(words, _BATCH)):
        x = Element._wrap({pack_word(word) + chr(i): one for i, word in enumerate(batch)},
                          alphabet)
        failing: dict = {}
        for law, lhs, rhs in laws(x):
            if lhs != rhs:
                for key in lhs._terms.keys() | rhs._terms.keys():
                    if lhs._terms.get(key) != rhs._terms.get(key):
                        failing.setdefault(key[-1], (law, lhs, rhs))
        if failing:
            tag = min(failing)
            law, *sides = failing[tag]
            return fail(law, batch[ord(tag)], *(
                side.rekey(lambda key: [key[:-1]] if key[-1] == tag else []) for side in sides))
    return PASS

"""Pass/counterexample reporting shared by every axiom checker."""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator

from .errors import Record, StructuralError


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

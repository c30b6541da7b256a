"""Exception types and the record base classes shared across the package."""

from reprlib import recursive_repr


class StructuralError(Exception):
    """A precondition on shapes, alphabets or table domains was violated."""


class ConfigError(Exception):
    """A config document or expression failed to parse or validate.

    Carries an optional 1-based line and column for diagnostics; the
    text ends with whichever of them are known, and ``message`` holds it
    without them.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.message = message
        self.line = line
        self.column = column
        where = ", ".join(f"{name} {value}" for name, value in
                          (("line", line), ("column", column)) if value is not None)
        super().__init__(f"{message} ({where})" if where else message)


class Record:
    """A plain class whose ``_fields`` name its public fields, which its repr
    lists as ``Name(field=value, ...)``; a field holding the record itself
    reads ``...``."""

    _fields: tuple[str, ...] = ()

    @recursive_repr()
    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _equal_values(self, other):
        """``__eq__`` of the records compared by value: same class, equal fields."""
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented


class Frozen(Record):
    """A record whose constructor sets its attributes with ``_set``; assigning
    or deleting an attribute afterwards raises AttributeError."""

    def _set(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

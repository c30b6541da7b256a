"""Exception types shared across the package."""


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

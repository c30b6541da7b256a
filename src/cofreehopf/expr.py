"""Tokenizer and recursive-descent parser for element expressions.

Grammar (ASCII minus and the minus-sign character are interchangeable):

    element   := [sign] term (sign term)*
    term      := scalar ['*'] [word] | word
    word      := mletter (('@' | '[]') mletter)* ['#' groupatom] | '1' '#' groupatom
    mletter   := LETTER ['.' group] | groupatom
    group     := groupatom | NAME
    groupatom := 'K{' [int (',' int)*] '}'
    scalar    := rational | qpow | '(' spoly ')'
    qpow      := 'q' ['^' int]
    rational  := INT ['/' INT]
    spoly     := [sign] sterm (sign sterm)*
    sterm     := rational [['*'] qpow] | qpow

A config list is ``item (',' item)*`` (empty text: no items), each item
``['-'] INT`` or ``['-'] scalar``.

Tokens are separated by whitespace (``str.isspace``) or need none.  An
INT is a run of decimal digits (``str.isdecimal``); an IDENT (a LETTER,
NAME, ``K`` or ``q``) starts with a letter (``str.isalpha``) or ``_`` and
goes on with letters, digits or ``_`` (``str.isalnum``); a SYM is one of
``+ - * @ . ( ) { } , / ^ #`` or ``[]``.  Any other character, a
superscript such as ``²`` included, is unexpected.  A parse error names
the 1-based column of the offending token.

A ``#`` tag, as the smash renderer prints it (the empty word as ``1``),
reads as a trailing group atom: ``v1@v2#K{1}`` and ``1#K{2}`` parse as
``v1@v2@K{1}`` and ``K{2}``.

The identifier ``q`` is reserved for the scalar parameter.  Parsing is
purely syntactic: letters stay names and group atoms stay raw exponent
tuples; binding against a declared basis happens in the config layer.
The parsed form of an element is a list of (Scalar, letters) terms where
each letter is ``("L", name, exps_or_None)`` or ``("G", exps_or_name)``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from .errors import ConfigError
from .scalars import Scalar


class Token(NamedTuple):
    kind: str   # IDENT, INT, SYM, END
    text: str
    column: int


# INT, IDENT (its first character is checked below), SYM, anything else;
# the text between matches is whitespace.
_TOKEN = re.compile(r"(\d+)|([^\W\d]\w*)|(\[\]|−|[-+*@.(){},/^#])|(\S)")
_KINDS = (None, "INT", "IDENT", "SYM")


def tokenize(text: str, line: int | None = None) -> list[Token]:
    tokens = []
    for match in _TOKEN.finditer(text):
        kind, word = match.lastindex, match.group()
        if kind == 4 or kind == 2 and not (word[0].isalpha() or word[0] == "_"):
            raise ConfigError(f"unexpected character {word[0]!r}", line, match.start() + 1)
        tokens.append(Token(_KINDS[kind], "-" if word == "−" else word, match.start() + 1))
    tokens.append(Token("END", "", len(text) + 1))
    return tokens


Letter = tuple  # ("L", name, exps|None) or ("G", exps or name)
ParsedElement = list  # list[tuple[Scalar, tuple[Letter, ...]]]


class _Parser:
    def __init__(self, text: str, line: int | None = None):
        self.tokens = tokenize(text, line)
        self.pos = 0
        self.line = line

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at(self, kind: str, text: str | None = None, ahead: int = 0) -> bool:
        """Whether the next token, or the one ``ahead`` places after it, is of
        ``kind`` and reads ``text`` when that is given."""
        tok = self.tokens[self.pos + ahead]
        return tok.kind == kind and (text is None or tok.text == text)

    def skip(self, symbol: str) -> bool:
        """Consume ``symbol`` if it is the next token (no other kind of token
        reads as a symbol); whether it was."""
        if self.tokens[self.pos].text != symbol:
            return False
        self.pos += 1
        return True

    def error(self, message: str, tok: Token | None = None) -> ConfigError:
        """``message`` at ``tok``, by default the next token."""
        return ConfigError(message, self.line, (tok or self.peek()).column)

    def expect(self, kind: str, text: str | None = None) -> Token:
        if not self.at(kind, text):
            want = text if text is not None else kind
            raise self.error(f"expected {want!r}, found {self.peek().text or 'end of input'!r}")
        return self.next()

    # -- scalar layer -------------------------------------------------------

    def parse_int(self) -> int:
        sign = -1 if self.skip("-") else 1
        return sign * int(self.expect("INT").text)

    def parse_rational(self) -> Fraction:
        num = int(self.expect("INT").text)
        if not self.skip("/"):
            return Fraction(num)
        den = self.expect("INT")
        if int(den.text) == 0:
            raise self.error("zero denominator", den)
        return Fraction(num, int(den.text))

    def parse_qpow(self) -> Scalar:
        self.expect("IDENT", "q")
        return Scalar.q_power(self.parse_int() if self.skip("^") else 1)

    def parse_scalar_atom(self) -> Scalar:
        if self.at("INT"):
            return Scalar.rational(self.parse_rational())
        if self.at("IDENT", "q"):
            return self.parse_qpow()
        if not self.skip("("):
            raise self.error("expected a scalar")
        value = self.parse_spoly()
        self.expect("SYM", ")")
        return value

    def parse_sterm(self) -> Scalar:
        if not self.at("INT"):
            return self.parse_qpow()
        coeff = Scalar.rational(self.parse_rational())
        if self.skip("*") or self.at("IDENT", "q"):
            return coeff * self.parse_qpow()
        return coeff

    def parse_sum(self, item, negate) -> list:
        """``[sign] item (sign item)*``: the items, each negated after a minus."""
        items = []
        while True:
            negative = self.skip("-")
            if not negative and not self.skip("+") and items:
                return items
            value = item()
            items.append(negate(value) if negative else value)

    def parse_spoly(self) -> Scalar:
        first, *rest = self.parse_sum(self.parse_sterm, Scalar.__neg__)
        return sum(rest, first)

    def parse_signed_scalar(self) -> Scalar:
        """A scalar with an optional leading sign (config entries)."""
        negative = self.skip("-")
        value = self.parse_scalar_atom()
        return -value if negative else value

    # -- word layer ----------------------------------------------------------

    def parse_groupatom(self) -> tuple[int, ...]:
        self.expect("IDENT", "K")
        self.expect("SYM", "{")
        exps = self.parse_list(self.parse_int, "SYM", "}")
        self.expect("SYM", "}")
        return tuple(exps)

    def at_groupatom(self) -> bool:
        return self.at("IDENT", "K") and self.at("SYM", "{", 1)

    def at_word_start(self) -> bool:
        return self.at_groupatom() or self.at("INT", "1") and self.at("SYM", "#", 1) \
            or self.at("IDENT") and not self.at("IDENT", "q")

    def parse_mletter(self) -> Letter:
        if self.at_groupatom():
            return ("G", self.parse_groupatom())
        if self.at("IDENT", "q"):
            raise self.error("'q' is reserved for the scalar parameter")
        name = self.expect("IDENT").text
        if not self.skip("."):
            return ("L", name, None)
        if self.at_groupatom():
            return ("L", name, self.parse_groupatom())
        return ("L", name, self.expect("IDENT").text)

    def parse_word(self) -> tuple[Letter, ...]:
        letters = []
        if self.at("INT", "1") and self.at("SYM", "#", 1):  # the empty word, tagged
            self.next()
        else:
            letters.append(self.parse_mletter())
            while self.skip("@") or self.skip("[]"):
                letters.append(self.parse_mletter())
        if self.skip("#"):  # always so after the empty word
            letters.append(("G", self.parse_groupatom()))
        return tuple(letters)

    # -- element layer ---------------------------------------------------------

    def parse_term(self) -> tuple[Scalar, tuple[Letter, ...]]:
        if self.at_word_start():
            return Scalar.one(), self.parse_word()
        coeff = self.parse_scalar_atom()
        if self.skip("*") or self.at_word_start():
            return coeff, self.parse_word()
        return coeff, ()

    def parse_element(self) -> ParsedElement:
        return self.parse_sum(self.parse_term, lambda term: (-term[0], term[1]))

    # -- config lists --------------------------------------------------------

    def parse_list(self, item, kind: str, text: str | None = None) -> list:
        """``item (',' item)*``, or no items at a ``kind`` token reading ``text``."""
        if self.at(kind, text):
            return []
        values = [item()]
        while self.skip(","):
            values.append(item())
        return values


def _read(text: str, line: int | None, read):
    """``read`` applied to the parser of ``text``, which must consume it all."""
    parser = _Parser(text, line)
    value = read(parser)
    parser.expect("END")
    return value


def parse_element_text(text: str, line: int | None = None) -> ParsedElement:
    return _read(text, line, _Parser.parse_element)


def parse_int_list(text: str, line: int | None = None) -> list[int]:
    return _read(text, line, lambda parser: parser.parse_list(parser.parse_int, "END"))


def parse_scalar_list(text: str, line: int | None = None) -> list[Scalar]:
    return _read(text, line, lambda parser: parser.parse_list(parser.parse_signed_scalar, "END"))

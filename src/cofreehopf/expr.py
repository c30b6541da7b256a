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
``['-'] INT`` or ``['-'] scalar``.  INT digits are decimal digits, so a
superscript such as ``²`` is an unexpected character.

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

from fractions import Fraction
from typing import NamedTuple

from .errors import ConfigError
from .scalars import Scalar


class Token(NamedTuple):
    kind: str   # IDENT, INT, SYM, END
    text: str
    column: int


_SYMBOLS = "+-*@.(){},/^#"


def tokenize(text: str, line: int | None = None) -> list[Token]:
    tokens: list[Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "−":
            tokens.append(Token("SYM", "-", i + 1))
            i += 1
            continue
        if text.startswith("[]", i):
            tokens.append(Token("SYM", "[]", i + 1))
            i += 2
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(Token("INT", text[i:j], i + 1))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("IDENT", text[i:j], i + 1))
            i = j
            continue
        if ch in _SYMBOLS:
            tokens.append(Token("SYM", ch, i + 1))
            i += 1
            continue
        raise ConfigError(f"unexpected character {ch!r}", line, i + 1)
    tokens.append(Token("END", "", n + 1))
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

    def error(self, message: str) -> ConfigError:
        return ConfigError(message, self.line, self.peek().column)

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise self.error(f"expected {want!r}, found {tok.text or 'end of input'!r}")
        return self.next()

    def at_sym(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "SYM" and tok.text == text

    # -- scalar layer -------------------------------------------------------

    def parse_int(self) -> int:
        sign = 1
        if self.at_sym("-"):
            self.next()
            sign = -1
        tok = self.expect("INT")
        return sign * int(tok.text)

    def parse_rational(self) -> Fraction:
        tok = self.expect("INT")
        num = int(tok.text)
        if self.at_sym("/"):
            self.next()
            den = int(self.expect("INT").text)
            if den == 0:
                raise self.error("zero denominator")
            return Fraction(num, den)
        return Fraction(num)

    def parse_qpow(self) -> Scalar:
        self.expect("IDENT", "q")
        if self.at_sym("^"):
            self.next()
            return Scalar.q_power(self.parse_int())
        return Scalar.q_power(1)

    def parse_scalar_atom(self) -> Scalar:
        tok = self.peek()
        if tok.kind == "INT":
            return Scalar.rational(self.parse_rational())
        if tok.kind == "IDENT" and tok.text == "q":
            return self.parse_qpow()
        if self.at_sym("("):
            self.next()
            value = self.parse_spoly()
            self.expect("SYM", ")")
            return value
        raise self.error("expected a scalar")

    def parse_sterm(self) -> Scalar:
        tok = self.peek()
        if tok.kind == "INT":
            coeff = Scalar.rational(self.parse_rational())
            if self.at_sym("*"):
                self.next()
                return coeff * self.parse_qpow()
            if self.peek().kind == "IDENT" and self.peek().text == "q":
                return coeff * self.parse_qpow()
            return coeff
        return self.parse_qpow()

    def parse_sum(self, item, negate) -> list:
        """``[sign] item (sign item)*``: the items, each negated after a minus."""
        sign = self.next().text if self.at_sym("-") or self.at_sym("+") else "+"
        items = []
        while True:
            value = item()
            items.append(negate(value) if sign == "-" else value)
            if not (self.at_sym("+") or self.at_sym("-")):
                return items
            sign = self.next().text

    def parse_spoly(self) -> Scalar:
        first, *rest = self.parse_sum(self.parse_sterm, Scalar.__neg__)
        return sum(rest, first)

    def parse_signed_scalar(self) -> Scalar:
        """A scalar with an optional leading sign (config entries)."""
        negative = False
        if self.at_sym("-"):
            self.next()
            negative = True
        value = self.parse_scalar_atom()
        return -value if negative else value

    # -- word layer ----------------------------------------------------------

    def parse_groupatom(self) -> tuple[int, ...]:
        self.expect("IDENT", "K")
        self.expect("SYM", "{")
        exps = [] if self.at_sym("}") else [self.parse_int()]
        while exps and self.at_sym(","):
            self.next()
            exps.append(self.parse_int())
        self.expect("SYM", "}")
        return tuple(exps)

    def at_groupatom(self) -> bool:
        tok = self.peek()
        return tok.kind == "IDENT" and tok.text == "K" \
            and self.tokens[self.pos + 1].kind == "SYM" \
            and self.tokens[self.pos + 1].text == "{"

    def at_tagged_empty_word(self) -> bool:
        tok = self.peek()
        return tok.kind == "INT" and tok.text == "1" \
            and self.tokens[self.pos + 1].kind == "SYM" \
            and self.tokens[self.pos + 1].text == "#"

    def at_word_start(self) -> bool:
        tok = self.peek()
        if self.at_groupatom() or self.at_tagged_empty_word():
            return True
        return tok.kind == "IDENT" and tok.text != "q"

    def parse_mletter(self) -> Letter:
        if self.at_groupatom():
            return ("G", self.parse_groupatom())
        tok = self.expect("IDENT")
        if tok.text == "q":
            raise self.error("'q' is reserved for the scalar parameter")
        if self.at_sym("."):
            self.next()
            if self.at_groupatom():
                return ("L", tok.text, self.parse_groupatom())
            name = self.expect("IDENT")
            return ("L", tok.text, name.text)
        return ("L", tok.text, None)

    def parse_word(self) -> tuple[Letter, ...]:
        if self.at_tagged_empty_word():
            self.next()
            letters = []
        else:
            letters = [self.parse_mletter()]
            while self.at_sym("@") or self.at_sym("[]"):
                self.next()
                letters.append(self.parse_mletter())
        if self.at_sym("#"):  # always so after the empty word
            self.next()
            letters.append(("G", self.parse_groupatom()))
        return tuple(letters)

    # -- element layer ---------------------------------------------------------

    def parse_term(self) -> tuple[Scalar, tuple[Letter, ...]]:
        if self.at_word_start():
            return Scalar.one(), self.parse_word()
        coeff = self.parse_scalar_atom()
        if self.at_sym("*"):
            self.next()
            return coeff, self.parse_word()
        if self.at_word_start():
            return coeff, self.parse_word()
        return coeff, ()

    def parse_element(self) -> ParsedElement:
        return self.parse_sum(self.parse_term, lambda term: (-term[0], term[1]))

    # -- config lists --------------------------------------------------------

    def parse_list(self, item) -> list:
        """``item (',' item)*``; no items at the end of input."""
        if self.peek().kind == "END":
            return []
        values = [item()]
        while self.at_sym(","):
            self.next()
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
    return _read(text, line, lambda parser: parser.parse_list(parser.parse_int))


def parse_scalar_list(text: str, line: int | None = None) -> list[Scalar]:
    return _read(text, line, lambda parser: parser.parse_list(parser.parse_signed_scalar))

from __future__ import annotations

from fractions import Fraction

import pytest

from cofreehopf.errors import ConfigError
from cofreehopf.expr import (
    parse_element_text,
    parse_int_list,
    parse_scalar_list,
    tokenize,
)
from cofreehopf.scalars import Scalar


def test_bare_word():
    terms = parse_element_text("v1@v2")
    assert terms == [(Scalar.one(), (("L", "v1", None), ("L", "v2", None)))]


def test_scalar_coefficient_with_space_and_star():
    for text in ("2 x1@x1", "2*x1@x1"):
        terms = parse_element_text(text)
        assert terms == [(Scalar.rational(2), (("L", "x1", None), ("L", "x1", None)))]


def test_sum_with_minus_and_unicode_minus():
    for minus in ("-", "−"):
        terms = parse_element_text(f"v1 {minus} v2")
        assert terms == [
            (Scalar.one(), (("L", "v1", None),)),
            (Scalar.rational(-1), (("L", "v2", None),)),
        ]


def test_leading_sign():
    terms = parse_element_text("-2 v1")
    assert terms == [(Scalar.rational(-2), (("L", "v1", None),))]


def test_q_powers_and_rationals():
    assert parse_element_text("q")[0][0] == Scalar.q_power(1)
    assert parse_element_text("q^-2 F1@E1")[0][0] == Scalar.q_power(-2)
    assert parse_element_text("1/2 v1")[0][0] == Scalar.rational(Fraction(1, 2))


def test_parenthesized_scalar_polynomial():
    coeff = parse_element_text("(1 - q^2) v1")[0][0]
    assert coeff == Scalar.one() - Scalar.q_power(2)
    assert parse_scalar_list("(2*q^3)") == [Scalar.q_power(3, 2)]
    assert parse_scalar_list("-q") == [Scalar.q_power(1, -1)]
    assert parse_scalar_list("(1 + q + 3/2*q^2)") \
        == [Scalar({0: 1, 1: 1, 2: Fraction(3, 2)})]


def test_group_annotations_and_atoms():
    terms = parse_element_text("v1.K{1}[]v2.K{0}")
    assert terms == [(Scalar.one(), (("L", "v1", (1,)), ("L", "v2", (0,))))]
    terms = parse_element_text("K{1,-2}")
    assert terms == [(Scalar.one(), (("G", (1, -2)),))]
    terms = parse_element_text("E1@K{1,0}")
    assert terms == [(Scalar.one(), (("L", "E1", None), ("G", (1, 0))))]
    terms = parse_element_text("v1.e")
    assert terms == [(Scalar.one(), (("L", "v1", "e"),))]


def test_at_and_cotensor_separators_are_interchangeable():
    assert parse_element_text("a@b") == parse_element_text("a[]b")


def test_zero_and_scalar_terms():
    assert parse_element_text("0") == [(Scalar.zero(), ())]
    assert parse_element_text("5") == [(Scalar.rational(5), ())]
    assert parse_element_text("1 + v1") == [
        (Scalar.one(), ()), (Scalar.one(), (("L", "v1", None),))]


def test_q_is_reserved_as_a_letter():
    with pytest.raises(ConfigError):
        parse_element_text("q@v1")


def test_parse_errors_carry_positions():
    with pytest.raises(ConfigError) as info:
        parse_element_text("v1 + ", line=7)
    assert info.value.line == 7
    assert info.value.column is not None
    with pytest.raises(ConfigError):
        parse_element_text("2*")
    with pytest.raises(ConfigError):
        parse_element_text("v1 $ v2")
    with pytest.raises(ConfigError):
        parse_element_text("K{1")


def test_unicode_digits_are_unexpected_characters():
    for text, column in (("3² v1", 2), ("v1 + ²", 6), ("K{1}@v1.K{2³}", 12)):
        with pytest.raises(ConfigError) as info:
            parse_element_text(text, line=4)
        assert str(info.value) == f"unexpected character {text[column - 1]!r} (line 4, column {column})"
    with pytest.raises(ConfigError, match="unexpected character '²'"):
        parse_int_list("2²")


def test_lists_read_items_up_to_the_end():
    assert parse_int_list("") == []
    assert parse_int_list("1, -2,3") == [1, -2, 3]
    assert parse_int_list("−4") == [-4]
    assert parse_scalar_list("q, -(1 - q^2), (2*q^3), 1/2") == [
        Scalar.q_power(1), Scalar.q_power(2) - Scalar.one(), Scalar.q_power(3, 2),
        Scalar.rational(Fraction(1, 2))]


@pytest.mark.parametrize("text,message", [
    ("1,", "expected 'INT', found 'end of input' (line 3, column 3)"),
    (", 1", "expected 'INT', found ',' (line 3, column 1)"),
    ("1 2", "expected 'END', found '2' (line 3, column 3)"),
    ("1, (2)", "expected 'INT', found '(' (line 3, column 4)"),
    ("1.5", "expected 'END', found '.' (line 3, column 2)"),
])
def test_malformed_int_lists_report_a_column(text, message):
    with pytest.raises(ConfigError) as info:
        parse_int_list(text, line=3)
    assert str(info.value) == message


@pytest.mark.parametrize("text,message", [
    ("(q, 1", "expected ')', found ',' (line 2, column 3)"),
    ("q), 1", "expected 'END', found ')' (line 2, column 2)"),
    ("q,, 1", "expected a scalar (line 2, column 3)"),
])
def test_malformed_scalar_lists_report_a_column(text, message):
    with pytest.raises(ConfigError) as info:
        parse_scalar_list(text, line=2)
    assert str(info.value) == message


def test_a_smash_tag_reads_as_a_trailing_group_atom():
    for tagged, atom in (("v1@v2#K{1}", "v1@v2@K{1}"), ("1#K{2}", "K{2}"),
                         ("2 1#K{2}", "2 K{2}"), ("1#K{}", "K{}"),
                         ("q^-1*v1#K{1,-1} − 1/2 1#K{0}", "q^-1*v1@K{1,-1} − 1/2 K{0}")):
        assert parse_element_text(tagged) == parse_element_text(atom), tagged


@pytest.mark.parametrize("text,message", [
    ("2#K{2}", "expected 'END', found '#' (column 2)"),
    ("v1#", "expected 'K', found 'end of input' (column 4)"),
    ("v1#K{1}@v2", "expected 'END', found '@' (column 8)"),
    ("v1#K{1}#K{1}", "expected 'END', found '#' (column 8)"),
    ("1#v1", "expected 'K', found 'v1' (column 3)"),
])
def test_a_smash_tag_ends_its_term(text, message):
    with pytest.raises(ConfigError) as info:
        parse_element_text(text)
    assert str(info.value) == message


@pytest.mark.parametrize("text,message", [
    ("1/0 v1", "zero denominator (line 5, column 3)"),
    ("(2 + 3/00) v1", "zero denominator (line 5, column 8)"),
    ("v1@q", "'q' is reserved for the scalar parameter (line 5, column 4)"),
    ("v1[]q.K{1}", "'q' is reserved for the scalar parameter (line 5, column 5)"),
])
def test_an_error_names_the_offending_tokens_column(text, message):
    with pytest.raises(ConfigError) as info:
        parse_element_text(text, line=5)
    assert str(info.value) == message


def test_a_juxtaposed_q_power_inside_parentheses_multiplies():
    assert parse_element_text("(2q) v1") == parse_element_text("(2*q) v1") \
        == [(Scalar.q_power(1, 2), (("L", "v1", None),))]
    assert parse_scalar_list("(3/2 q^-1 - q)") \
        == [Scalar.q_power(-1, Fraction(3, 2)) - Scalar.q_power(1)]


_CHARACTERS = "".join(map(chr, range(256))) + "²³½Ⅷ٣− 　文é_"


def _tokens(text):
    """The (kind, text) pairs before END, or the column of the unexpected character."""
    try:
        return [(tok.kind, tok.text) for tok in tokenize(text)][:-1]
    except ConfigError as error:
        assert error.message == f"unexpected character {text[error.column - 1]!r}"
        return error.column


def test_token_classes_follow_the_str_predicates():
    # an INT is isdecimal, an identifier starts with isalpha or '_' and goes
    # on with isalnum or '_', isspace separates, the symbols are the
    # grammar's own, and anything else is unexpected
    symbols = set("+-*@.(){},/^#") | {"−"}
    for ch in _CHARACTERS:
        if ch.isdecimal():
            alone = [("INT", ch)]
        elif ch.isalpha() or ch == "_":
            alone = [("IDENT", ch)]
        elif ch.isspace():
            alone = []
        elif ch in symbols:
            alone = [("SYM", "-" if ch == "−" else ch)]
        else:
            alone = None
        assert _tokens(ch) == (1 if alone is None else alone), ch
        after_letter = [("IDENT", "a" + ch)] if ch.isalnum() or ch == "_" \
            else 2 if alone is None else [("IDENT", "a")] + alone
        assert _tokens("a" + ch) == after_letter, ch
        after_digit = [("INT", "1" + ch)] if ch.isdecimal() \
            else 2 if alone is None else [("INT", "1")] + alone
        assert _tokens("1" + ch) == after_digit, ch
    assert _tokens("[]") == [("SYM", "[]")]
    assert [tok.column for tok in tokenize(" \u3000v1 @ 2")] == [3, 6, 8, 9]

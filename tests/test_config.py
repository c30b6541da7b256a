from __future__ import annotations

from fractions import Fraction

import pytest

from cofreehopf.config import (
    ConfigDocument,
    bind_cotensor_element,
    bind_plain_element,
    bind_smash_element,
    emit_config,
    parse_config,
)
from cofreehopf.cotensor import CotensorElement, SmashElement, chain_lift_word
from cofreehopf.elements import Element
from cofreehopf.errors import ConfigError, StructuralError
from cofreehopf.expr import parse_element_text
from cofreehopf.grouphopf import AbelianGroup, YDSpec, braided_spec, check_yetter_drinfeld
from cofreehopf.scalars import Scalar

from conftest import assert_frozen, override_document

HOFFMAN = """
# additive letters under a trivial group
[group]
rank = 0

[basis]
x1 =
x2 =
x3 =

[mult]
x1 x1 -> x2
x1 x2 -> x3
x2 x1 -> x3
"""

UNIPOTENT = """
[group]
rank = 1

[basis]
a = 1
b = 1

[action]
g1.a = 1, 0
g1.b = 1, 1
"""


# Emitted form: parsing then emitting gives each of these back byte for byte.
UNIPOTENT_EMITTED = UNIPOTENT.lstrip("\n")

TORSION_EMITTED = """[group]
rank = 1
torsion = 2

[basis]
u = 1, 1
v = 0, 1

[action]
g1 = q, -q^-1
g2 = -1, -1

[mult]
u u -> 1/2 v
"""


def _nine_letter_override(x1_x1: str) -> str:
    # Nine letters, so V tensor V has dimension 81; every pair but
    # (x1, x1) is flipped, and that one is sent to ``x1_x1``.
    names = [f"x{i}" for i in range(1, 10)]
    lines = ["[group]", "rank = 0", "", "[basis]"] + [f"{n} = " for n in names]
    lines += ["", "[mult]", "x1 x2 -> x3 − 1/2 x4", "", "[braiding]"]
    lines += [f"{a} {b} -> " + (x1_x1 if a == b == "x1" else f"{b}@{a}")
              for a in names for b in names]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("text", [UNIPOTENT_EMITTED, TORSION_EMITTED,
                                  _nine_letter_override("−x1@x1")],
                         ids=["column-action", "torsion", "nine-letter-override"])
def test_emission_is_a_fixed_point(text):
    assert emit_config(parse_config(text)) == text


def test_a_singular_override_of_any_size_fails_to_load():
    # A zero entry is a zero column of the braiding on V tensor V.
    with pytest.raises(ConfigError, match="braiding override: braiding table "
                                          "is not invertible on V tensor V"):
        parse_config(_nine_letter_override("0"))


def test_preset_emission_is_a_fixed_point(clifford2, uqg_a2):
    for preset in (clifford2, uqg_a2):
        text = emit_config(ConfigDocument(preset.spec))
        assert emit_config(parse_config(text)) == text


def test_emission_normalizes_torsion_and_drops_zero_products():
    text = TORSION_EMITTED.replace("u = 1, 1", "u = 1, 3") + "v v -> 0\n"
    doc = parse_config(text)
    assert doc.notes == ("line 6: torsion exponents normalized to (1, 1)",)
    assert emit_config(doc) == TORSION_EMITTED


def test_parse_hoffman_document():
    doc = parse_config(HOFFMAN)
    spec = doc.spec
    assert spec.group.n_generators == 0
    assert spec.names == ("x1", "x2", "x3")
    assert spec.mult[(0, 0)] == Element.from_word((1,), alphabet=spec)
    table = doc.braided().braiding
    assert table.entries[(0, 1)] == Element.from_word((1, 0), alphabet=spec)


def test_parse_matrix_action():
    doc = parse_config(UNIPOTENT)
    spec = doc.spec
    k = spec.group.generator(0)
    assert spec.act_letter(k, 1) == Element(
        {"\0": Scalar.one(), "\1": Scalar.one()}, spec)
    assert check_yetter_drinfeld(spec)


def _spec_data(doc):
    """What a document says of its module algebra, zero products left out."""
    spec = doc.spec
    mult = {pair: value._terms for pair, value in (spec.mult or {}).items() if value}
    action = tuple(tuple(image._terms for image in images) for images in spec.action)
    return spec.group, spec.names, spec.degrees, action, mult


def test_preset_emission_round_trips(clifford2, uqg_a2):
    for preset in (clifford2, uqg_a2):
        doc = ConfigDocument(preset.spec)
        text = emit_config(doc)
        again = parse_config(text)
        assert _spec_data(again) == _spec_data(doc)
        assert again.override is None
        assert emit_config(again) == text


def test_braiding_override_round_trips(clifford2):
    spec = clifford2.spec
    doc = override_document(spec, spec.braiding)
    text = emit_config(doc)
    again = parse_config(text)
    assert _spec_data(again) == _spec_data(doc)
    assert {pair: entry._terms for pair, entry in again.override.braiding.entries.items()} \
        == {pair: entry._terms for pair, entry in doc.override.braiding.entries.items()}
    assert emit_config(again) == text


def test_unital_spec_has_no_document(clifford2):
    # the format cannot name a unit letter, so a document would drop it
    with pytest.raises(StructuralError, match="unit letter"):
        ConfigDocument(clifford2.spec.with_unit())


def test_braided_spec_is_built_on_demand_and_once(clifford2):
    doc = parse_config(emit_config(ConfigDocument(clifford2.spec)))
    spec = doc.spec
    assert "braiding" not in spec._cache  # parsing alone builds no braiding
    assert doc.braided() is spec is braided_spec(spec)  # the spec is its own braided algebra
    assert spec.braiding is spec.braiding is spec._cache["braiding"]
    assert_frozen(doc, ("spec", "override", "notes"))
    with pytest.raises(AttributeError):
        doc.mult = {}


def test_braiding_override_gives_one_braided_spec(clifford2):
    spec = clifford2.spec
    doc = parse_config(emit_config(override_document(spec, spec.braiding)))
    bspec = doc.braided()
    assert bspec is doc.braided()
    assert bspec.unit is None
    assert bspec is doc.override
    assert {pair: dict(entry._terms) for pair, entry in bspec.braiding.entries.items()} \
        == {pair: dict(entry._terms) for pair, entry in spec.braiding.entries.items()}


def test_missing_group_section_is_an_error():
    with pytest.raises(ConfigError):
        parse_config("[basis]\nx =\n")


def test_unknown_letter_in_mult():
    bad = HOFFMAN.replace("x1 x1 -> x2", "x1 x9 -> x2")
    with pytest.raises(ConfigError) as info:
        parse_config(bad)
    assert "x9" in str(info.value)


def test_wrong_degree_vector_length():
    with pytest.raises(ConfigError):
        parse_config("[group]\nrank = 2\n\n[basis]\na = 1\n")


def test_torsion_normalization_is_a_note_not_an_error():
    text = """
[group]
rank = 0
torsion = 2

[basis]
a = 3

[action]
g1 = -1
"""
    doc = parse_config(text)
    assert doc.spec.degrees[0].exponents() == (1,)
    assert any("normalized" in note for note in doc.notes)


def test_duplicate_letter_rejected():
    text = "[group]\nrank = 0\n\n[basis]\na =\na =\n"
    with pytest.raises(ConfigError):
        parse_config(text)


def test_missing_action_for_generator():
    text = "[group]\nrank = 1\n\n[basis]\na = 0\n"
    with pytest.raises(ConfigError):
        parse_config(text)


def test_a_generator_over_no_letters_round_trips():
    # its action line gives no column, but it gives the generator
    text = emit_config(ConfigDocument(YDSpec(AbelianGroup(1), (), (), ((),))))
    assert text == "[group]\nrank = 1\n\n[basis]\n\n[action]\ng1 = \n"
    assert emit_config(parse_config(text)) == text
    with pytest.raises(ConfigError, match="duplicate action for 'g1'"):
        parse_config(text + "g1 =\n")


def test_binding_plain_elements(clifford2):
    spec = clifford2.spec
    out = bind_plain_element(spec, parse_element_text("2 v1@v2 - xi11"))
    assert out == Element.from_word((0, 1), 2, spec) \
        + Element.from_word((2,), -1, spec)
    with pytest.raises(ConfigError):
        bind_plain_element(spec, parse_element_text("v1.K{1}"))


def test_binding_cotensor_elements(clifford2):
    spec = clifford2.spec
    eps = spec.group.element([1])
    e = spec.group.identity()
    out = bind_cotensor_element(spec, parse_element_text("v1@v2"))
    assert out == CotensorElement.from_word(spec, chain_lift_word(spec, (0, 1)))
    out = bind_cotensor_element(spec, parse_element_text("v1.K{1}[]v2.K{0}"))
    assert out == CotensorElement.from_word(spec, ("\0\1", e))
    out = bind_cotensor_element(spec, parse_element_text("K{1} + 2"))
    assert out == CotensorElement(spec, {eps: 1}) \
        + CotensorElement.unit(spec).scale(2)
    with pytest.raises(ConfigError):
        bind_cotensor_element(spec, parse_element_text("v1.K{0}@v2.K{0}"))
    with pytest.raises(ConfigError):
        bind_cotensor_element(spec, parse_element_text("v1.K{1}@v2"))


def test_binding_smash_elements(clifford2):
    spec = clifford2.spec
    eps = spec.group.element([1])
    out = bind_smash_element(spec, parse_element_text("v1@v2@K{1}"))
    assert out == SmashElement.of(spec, (0, 1), eps)
    out = bind_smash_element(spec, parse_element_text("v1"))
    assert out == SmashElement.of(spec, (0,))
    out = bind_smash_element(spec, parse_element_text("K{1}"))
    assert out == SmashElement.of(spec, (), eps)


PLAIN_ONLY = "this command takes plain tensor words over the letters"
SMASH_ONLY = "smash words are bare letters with an optional trailing group atom"

# (binder, malformed element, exception type, exact message)
BINDER_ERRORS = [
    (bind_plain_element, "v1@zz", StructuralError, "unknown letter 'zz'"),
    (bind_cotensor_element, "v1@zz", StructuralError, "unknown letter 'zz'"),
    (bind_cotensor_element, "v1.K{1}[]zz.K{0}", StructuralError, "unknown letter 'zz'"),
    (bind_smash_element, "v1@zz@K{1}", StructuralError, "unknown letter 'zz'"),
    (bind_plain_element, "v1.K{1}", ConfigError, PLAIN_ONLY),
    (bind_smash_element, "v1.K{1}", ConfigError, SMASH_ONLY),
    (bind_plain_element, "v1@K{1}@v2", ConfigError, PLAIN_ONLY),
    (bind_cotensor_element, "v1@K{1}@v2", ConfigError,
     "cannot mix letters and group atoms in one word"),
    (bind_cotensor_element, "K{1}@zz", ConfigError,
     "cannot mix letters and group atoms in one word"),
    (bind_smash_element, "K{1}@v1", ConfigError, SMASH_ONLY),
    (bind_plain_element, "v1.K{1}@v2", ConfigError, PLAIN_ONLY),
    (bind_cotensor_element, "v1.K{1}@v2", ConfigError,
     "either annotate every letter with a group part or none"),
    (bind_cotensor_element, "zz@v1.K{1}", ConfigError,
     "either annotate every letter with a group part or none"),
    (bind_smash_element, "v1.K{1}@v2", ConfigError, SMASH_ONLY),
    (bind_plain_element, "v1.K{0}@v2.K{0}", ConfigError, PLAIN_ONLY),
    (bind_cotensor_element, "v1.K{0}@v2.K{0}", ConfigError,
     "chain condition fails at cut 1"),
    (bind_smash_element, "v1.K{0}@v2.K{0}", ConfigError, SMASH_ONLY),
    (bind_plain_element, "K{1}@K{1}", ConfigError, PLAIN_ONLY),
    (bind_cotensor_element, "K{1}@K{1}", ConfigError,
     "group elements cannot be tensored here"),
    (bind_smash_element, "K{1}@K{1}", ConfigError, SMASH_ONLY),
    # the letters of a word are checked left to right, after earlier terms
    (bind_plain_element, "v1.K{1}@zz", ConfigError, PLAIN_ONLY),
    (bind_plain_element, "zz@v1.K{1}", StructuralError, "unknown letter 'zz'"),
    (bind_smash_element, "v1.K{1}@zz", ConfigError, SMASH_ONLY),
    (bind_smash_element, "zz@v1.K{1}", StructuralError, "unknown letter 'zz'"),
    (bind_cotensor_element, "zz.K{1}[]v1.K{2}", StructuralError, "unknown letter 'zz'"),
    (bind_cotensor_element, "v1.K{1,1}[]zz.K{0}", ConfigError,
     "group element needs 1 exponents"),
    (bind_cotensor_element, "v1 + K{1}@K{1} + v1@K{1}", ConfigError,
     "group elements cannot be tensored here"),
    (bind_smash_element, "v1@K{1}@K{1}", ConfigError, SMASH_ONLY),
    (bind_smash_element, "v1@K{1,1}", ConfigError, "group element needs 1 exponents"),
]


@pytest.mark.parametrize("bind,text,error,message", BINDER_ERRORS,
                         ids=[f"{b.__name__[5:-8]} {t}" for b, t, *_ in BINDER_ERRORS])
def test_binder_error_messages_are_pinned(clifford2, bind, text, error, message):
    with pytest.raises(error) as info:
        bind(clifford2.spec, parse_element_text(text))
    assert type(info.value) is error
    assert str(info.value) == message


def test_binders_sum_repeated_terms(clifford2):
    spec = clifford2.spec
    parsed = parse_element_text("v1@v2 + 2 v1@v2 - 3 v1@v2 + 1/2")
    half = Fraction(1, 2)
    assert bind_plain_element(spec, parsed) == Element.from_word((), half, spec)
    assert bind_cotensor_element(spec, parsed) == CotensorElement.unit(spec).scale(half)
    assert bind_smash_element(spec, parsed) == SmashElement.unit(spec).scale(half)
    out = bind_cotensor_element(spec, parse_element_text("K{0} - 1 + v1 + v1.K{0}"))
    assert out == CotensorElement.from_word(spec, chain_lift_word(spec, (0,))).scale(2)


def test_plain_and_cotensor_binders_reject_a_smash_tag(clifford2):
    for text in ("v1#K{1}", "1#K{1}"):
        with pytest.raises(ConfigError, match=f"^{PLAIN_ONLY}"):
            bind_plain_element(clifford2.spec, parse_element_text(text))
    for text, message in (("v1@v2#K{1}", "cannot mix letters and group atoms in one word"),
                          ("K{1}#K{1}", "group elements cannot be tensored here")):
        with pytest.raises(ConfigError) as info:
            bind_cotensor_element(clifford2.spec, parse_element_text(text))
        assert str(info.value) == message


GROUP_ONE_LETTER = "[group]\n{group}\n\n[basis]\na = 1\n\n[action]\ng1 = -1\n"


@pytest.mark.parametrize("group,message", [
    ("rank = 1, 7", "rank takes one integer (line 2)"),
    ("rank = 1\nrank = 1", "duplicate [group] key 'rank' (line 3)"),
    ("torsion = 2\ntorsion = 3", "duplicate [group] key 'torsion' (line 3)"),
    ("rank = 1\ntorsion = 2\nrank = 0", "duplicate [group] key 'rank' (line 4)"),
])
def test_repeated_or_extra_group_values_are_rejected(group, message):
    with pytest.raises(ConfigError) as info:
        parse_config(GROUP_ONE_LETTER.format(group=group))
    assert str(info.value) == message


def test_empty_rank_reads_as_zero():
    doc = parse_config("[group]\nrank =\n\n[basis]\na =\n")
    assert doc.spec.group.rank == 0


TWO_LETTERS = "[group]\nrank = 1\n\n[basis]\na = 1\nb = 1\n\n[action]\n"


@pytest.mark.parametrize("action,message", [
    ("g1.a = 1, 0\ng1.a = 2, 0\ng1.b = 0, 1", "duplicate action for 'g1.a' (line 10)"),
    ("g1 = q, q\ng1.a = 1, 0", "duplicate action for 'g1.a' (line 10)"),
    ("g1.b = 0, 1\ng1 = q, q", "duplicate action for 'g1' (line 10)"),
    ("g1 = q, q\ng1 = q, q", "duplicate action for 'g1' (line 10)"),
])
def test_conflicting_action_lines_are_rejected(action, message):
    with pytest.raises(ConfigError) as info:
        parse_config(TWO_LETTERS + action + "\n")
    assert str(info.value) == message


def test_column_lines_for_different_letters_combine():
    doc = parse_config(TWO_LETTERS + "g1.b = 1, 1\ng1.a = 1, 0\n")
    one = Scalar.one()
    assert [image._terms for image in doc.spec.action[0]] == [{"\0": one},
                                                              {"\0": one, "\1": one}]
    assert emit_config(doc) == UNIPOTENT_EMITTED


def test_parenthesised_scalars_in_an_action_list():
    doc = parse_config(TWO_LETTERS + "g1 = (2*q^3), -(q^-1)\n")
    assert doc.spec.action[0][0]._terms["\0"] == Scalar.q_power(3, 2)
    assert doc.spec.action[0][1]._terms["\1"] == Scalar.q_power(-1, -1)


@pytest.mark.parametrize("text,message", [
    (TWO_LETTERS + "g1 = (q, 1\n", "expected ')', found ',' (line 9, column 3)"),
    (TWO_LETTERS + "g1 = q), 1\n", "expected 'END', found ')' (line 9, column 2)"),
    (GROUP_ONE_LETTER.format(group="torsion = 2²"),
     "unexpected character '²' (line 2, column 2)"),
    (GROUP_ONE_LETTER.format(group="rank = 1").replace("a = 1", "a = 1 1"),
     "expected 'END', found '1' (line 5, column 3)"),
])
def test_malformed_lists_report_the_parser_message(text, message):
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert str(info.value) == message


@pytest.mark.parametrize("name", ["1x", "a b", "v@1", "x.y", "x-1", ""])
def test_letter_names_must_be_identifiers(name):
    text = GROUP_ONE_LETTER.format(group="rank = 1").replace("a = 1", f"{name} = 1")
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert str(info.value) == f"letter name {name!r} is not an identifier (line 5)"


# one letter pair a, b over rank 1; line 9 is the action line, line 12 the first rule line
_TWO_LETTERS = "[group]\nrank = 1\n\n[basis]\na = 1\nb = 1\n\n[action]\n{action}\n\n{rules}\n"


def _rules(section: str, line: str) -> str:
    return _TWO_LETTERS.format(action="g1 = q, q^-1", rules=f"[{section}]\n{line}")


@pytest.mark.parametrize("text, message", [
    ("[group\nrank = 0\n", "malformed section header (line 1)"),
    ("[group]\nrank = 0\n[colors]\n", "unknown section [colors] (line 3)"),
    ("[group]\nrank = 0\n[group]\n", "duplicate section [group] (line 3)"),
    ("rank = 0\n[group]\n", "content before the first section (line 1)"),
    ("[group]\nrank 0\n[basis]\n", "expected 'key = value' (line 2)"),
    ("[group]\nrank = 0\n", "missing [basis] section"),
    ("[group]\nsize = 2\n[basis]\n", "unknown [group] key 'size' (line 2)"),
    ("[group]\ntorsion = 1\n[basis]\n", "group needs rank >= 0 and torsion orders >= 2"),
    ("[group]\nrank = 0\n[basis]\nq =\n", "letter name 'q' is reserved (line 4)"),
    (_TWO_LETTERS.format(action="g1 = q", rules=""), "expected 2 scalars (line 9)"),
    (_TWO_LETTERS.format(action="g2 = 1, 1", rules=""), "unknown generator 'g2' (line 9)"),
    (_TWO_LETTERS.format(action="g1.c = 1, 0", rules=""), "unknown letter 'c' (line 9)"),
    (_rules("mult", "a a -> a\na a -> b"), "duplicate mult entry for (0, 0) (line 13)"),
    (_rules("mult", "a a a"), "expected 'a b -> element' (line 12)"),
    (_rules("mult", "a -> b"), "left side must name two letters (line 12)"),
    (_rules("mult", "a b -> 2"), "scalar terms are not allowed here (line 12)"),
    (_rules("mult", "a b -> a.K{1}"), "only bare letters are allowed here (line 12)"),
    (_rules("mult", "a b -> c"), "unknown letter 'c' (line 12)"),
    (_rules("braiding", "a b -> a"), "words here must have length 2 (line 12)"),
])
def test_each_config_error_names_its_line(text, message):
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert str(info.value) == message

from __future__ import annotations

import dataclasses

import pytest

from cofreehopf.config import (
    bind_cotensor_element,
    bind_plain_element,
    bind_smash_element,
    document_from_spec,
    emit_config,
    parse_config,
)
from cofreehopf.cotensor import CotensorElement, SmashElement, chain_lift_word
from cofreehopf.elements import Element
from cofreehopf.errors import ConfigError, StructuralError
from cofreehopf.expr import parse_element_text
from cofreehopf.grouphopf import braided_spec, check_yetter_drinfeld
from cofreehopf.scalars import Scalar

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


def test_parse_hoffman_document():
    doc = parse_config(HOFFMAN)
    assert doc.group.n_generators == 0
    assert doc.names == ("x1", "x2", "x3")
    spec = doc.ydspec()
    assert spec.mult[(0, 0)] == Element.from_word((1,), alphabet=spec)
    table = doc.braiding_table()
    assert table.entries[(0, 1)] == Element.from_word((1, 0), alphabet=spec)


def test_parse_matrix_action():
    doc = parse_config(UNIPOTENT)
    spec = doc.ydspec()
    k = spec.group.generator(0)
    assert spec.act_letter(k, 1) == Element(
        {(0,): Scalar.one(), (1,): Scalar.one()}, spec)
    assert check_yetter_drinfeld(spec)


def test_preset_emission_round_trips(clifford2, uqg_a2):
    for preset in (clifford2, uqg_a2):
        doc = document_from_spec(preset.spec)
        text = emit_config(doc)
        again = parse_config(text)
        assert again == doc
        assert emit_config(again) == text


def test_braiding_override_round_trips(clifford2):
    spec = clifford2.spec
    doc = document_from_spec(spec, braiding=spec.induced_braiding())
    text = emit_config(doc)
    again = parse_config(text)
    assert again == doc


def test_unital_spec_has_no_document(clifford2):
    # the format cannot name a unit letter, so a document would drop it
    with pytest.raises(StructuralError, match="unit letter"):
        document_from_spec(clifford2.spec.with_unit())


def test_braided_spec_is_built_on_demand_and_once(clifford2):
    doc = parse_config(emit_config(document_from_spec(clifford2.spec)))
    spec = doc.ydspec()
    assert "braiding" not in spec._cache  # parsing alone builds no braiding
    assert doc.braided() is doc.braided() is braided_spec(spec)
    with pytest.raises(dataclasses.FrozenInstanceError):
        doc.mult = {}


def test_braiding_override_gives_one_braided_spec(clifford2):
    spec = clifford2.spec
    doc = parse_config(emit_config(
        document_from_spec(spec, braiding=spec.induced_braiding())))
    bspec = doc.braided()
    assert bspec is doc.braided()
    assert bspec.unit is None
    assert bspec.braiding is doc.braiding_table()
    assert {pair: dict(entry._terms)
            for pair, entry in bspec.braiding.entries.items()} == doc.braiding


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
    assert doc.degrees[0].exponents() == (1,)
    assert any("normalized" in note for note in doc.notes)


def test_duplicate_letter_rejected():
    text = "[group]\nrank = 0\n\n[basis]\na =\na =\n"
    with pytest.raises(ConfigError):
        parse_config(text)


def test_missing_action_for_generator():
    text = "[group]\nrank = 1\n\n[basis]\na = 0\n"
    with pytest.raises(ConfigError):
        parse_config(text)


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
    assert out == CotensorElement.from_word(spec, ((0, eps), (1, e)))
    out = bind_cotensor_element(spec, parse_element_text("K{1} + 2"))
    assert out == CotensorElement.from_group(spec, eps) \
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

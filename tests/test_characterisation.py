"""Byte-for-byte pins of the rendered output of every element kind.

The cases use coefficients beyond the +-1 and 2 of the other goldens
(1/2, q^-1, -q^2, (1 - q)), degree-0 group keys, the empty word and the
zero element, in both the text and the JSON output of the CLI.  The last
section pins the record classes: their constructors, repr, equality and
hashing.
"""

from __future__ import annotations

import contextlib
import inspect

import pytest

from cofreehopf.braid import BraidingTable, flip_braiding
from cofreehopf.checks import CheckResult
from cofreehopf.cli import main
from cofreehopf.config import ConfigDocument
from cofreehopf.cotensor import (
    CotensorElement,
    SmashElement,
    coproduct,
    render_cotensor,
    render_pairs,
    render_smash,
    smash_product,
    star,
)
from cofreehopf.elements import Element, render_element
from cofreehopf.grouphopf import AbelianGroup, YDSpec, diagonal_images
from cofreehopf.presets import Preset
from cofreehopf.errors import StructuralError
from cofreehopf.rotabaxter import RBInstance, diamond_product, head_shift
from cofreehopf.scalars import Scalar

from conftest import hoffman_spec

CASES = [
    (('a2', 'qsh', '−E1 + 2 F1', '1/2 E2 + q^-1 xi1'),
     '−1/2 E1@E2 − q^-1 E1@xi1 − (1/2*q^-1) E2@E1 + q^-1 E2@F1 + F1@E2 + (2*q^-1) F1@xi1 − q^-1 xi1@E1 + (2*q^-1) xi1@F1',
     '{"kind": "tensor", "terms": [{"coeff": "-1/2", "word": ["E1", "E2"]}, {"coeff": "-q^-1", "word": ["E1", "xi1"]}, {"coeff": "-1/2*q^-1", "word": ["E2", "E1"]}, {"coeff": "q^-1", "word": ["E2", "F1"]}, {"coeff": "1", "word": ["F1", "E2"]}, {"coeff": "2*q^-1", "word": ["F1", "xi1"]}, {"coeff": "-q^-1", "word": ["xi1", "E1"]}, {"coeff": "2*q^-1", "word": ["xi1", "F1"]}]}'),
    (('a2', 'qsh', '(1 - q)', '−q^2 E1@F1'),
     '(-q^2 + q^3) E1@F1',
     '{"kind": "tensor", "terms": [{"coeff": "-q^2 + q^3", "word": ["E1", "F1"]}]}'),
    (('a2', 'qsh', '0', 'E1'),
     '0',
     '{"kind": "tensor", "terms": []}'),
    (('a2', 'qsh', '(1 - q)', '2'),
     '(2 - 2*q)',
     '{"kind": "tensor", "terms": [{"coeff": "2 - 2*q", "word": []}]}'),
    (('a2', 'qsh', '−1', '1'),
     '−1',
     '{"kind": "tensor", "terms": [{"coeff": "-1", "word": []}]}'),
    (('a2', 'star', '−E1 + q^-1 F1', '1/2 E1'),
     '(-1/2 - 1/2*q^2) E1.K{1,0}[]E1.K{0,0} + (1/2*q) E1.K{1,0}[]F1.K{0,0} + (1/2*q^-1) F1.K{1,0}[]E1.K{0,0}',
     '{"kind": "cotensor", "terms": [{"coeff": "-1/2 - 1/2*q^2", "word": ["E1.K{1,0}", "E1.K{0,0}"]}, {"coeff": "1/2*q", "word": ["E1.K{1,0}", "F1.K{0,0}"]}, {"coeff": "1/2*q^-1", "word": ["F1.K{1,0}", "E1.K{0,0}"]}]}'),
    (('a2', 'star', 'K{1,0}', '−q^2 E1 + (1 - q) F2'),
     '−q^4 E1.K{1,0} + (q - q^2) F2.K{1,0}',
     '{"kind": "cotensor", "terms": [{"coeff": "-q^4", "word": ["E1.K{1,0}"]}, {"coeff": "q - q^2", "word": ["F2.K{1,0}"]}]}'),
    (('a2', 'star', '2', '−K{0,1}'),
     '−2 K{0,1}',
     '{"kind": "cotensor", "terms": [{"coeff": "-2", "word": ["K{0,1}"]}]}'),
    (('a2', 'star', 'E1 - E1', 'F1'),
     '0',
     '{"kind": "cotensor", "terms": []}'),
    (('a2', 'smash-star', 'q^-1 E1@K{1,0}', '−q^2 F1 + 1/2 E2@K{0,1}'),
     '(1/2*q^-2) E1@E2#K{1,1} − q^-1 E1@F1#K{1,0} + (1/2*q^-3) E2@E1#K{1,1} − q^-3 F1@E1#K{1,0} − q^-1 xi1#K{1,0}',
     '{"kind": "smash", "terms": [{"coeff": "1/2*q^-2", "group": "K{1,1}", "word": ["E1", "E2"]}, {"coeff": "-q^-1", "group": "K{1,0}", "word": ["E1", "F1"]}, {"coeff": "1/2*q^-3", "group": "K{1,1}", "word": ["E2", "E1"]}, {"coeff": "-q^-3", "group": "K{1,0}", "word": ["F1", "E1"]}, {"coeff": "-q^-1", "group": "K{1,0}", "word": ["xi1"]}]}'),
    (('a2', 'smash-star', '(1 - q) K{1,0}', '−E1'),
     '(-q^2 + q^3) E1#K{1,0}',
     '{"kind": "smash", "terms": [{"coeff": "-q^2 + q^3", "group": "K{1,0}", "word": ["E1"]}]}'),
    (('a2', 'smash-star', '2 K{0,1}', '(1 - q)'),
     '(2 - 2*q) 1#K{0,1}',
     '{"kind": "smash", "terms": [{"coeff": "2 - 2*q", "group": "K{0,1}", "word": []}]}'),
    (('a2', 'comul', '2 E1@F1 - q^-1 K{1,1}'),
     '−q^-1 K{1,1} (x) K{1,1} + 2 K{2,0} (x) E1.K{1,0}[]F1.K{0,0} + 2 E1.K{1,0} (x) F1.K{0,0} + 2 E1.K{1,0}[]F1.K{0,0} (x) K{0,0}',
     '{"kind": "pairs", "terms": [{"coeff": "-q^-1", "left": "K{1,1}", "right": "K{1,1}"}, {"coeff": "2", "left": "K{2,0}", "right": "E1.K{1,0}[]F1.K{0,0}"}, {"coeff": "2", "left": "E1.K{1,0}", "right": "F1.K{0,0}"}, {"coeff": "2", "left": "E1.K{1,0}[]F1.K{0,0}", "right": "K{0,0}"}]}'),
    (('a2', 'comul', '(1 - q) + 1/2 E2'),
     '(1 - q) K{0,0} (x) K{0,0} + 1/2 K{0,1} (x) E2.K{0,0} + 1/2 E2.K{0,0} (x) K{0,0}',
     '{"kind": "pairs", "terms": [{"coeff": "1 - q", "left": "K{0,0}", "right": "K{0,0}"}, {"coeff": "1/2", "left": "K{0,1}", "right": "E2.K{0,0}"}, {"coeff": "1/2", "left": "E2.K{0,0}", "right": "K{0,0}"}]}'),
    (('a2', 'psi', '−q^2 E1@F2 + (1 - q) + 1/2 xi1 - q^-1 F1'),
     '(1 - q) K{0,0} − q^2 E1.K{0,1}[]F2.K{0,0} − q^-1 F1.K{0,0} + 1/2 xi1.K{0,0}',
     '{"kind": "cotensor", "terms": [{"coeff": "1 - q", "word": ["K{0,0}"]}, {"coeff": "-q^2", "word": ["E1.K{0,1}", "F2.K{0,0}"]}, {"coeff": "-q^-1", "word": ["F1.K{0,0}"]}, {"coeff": "1/2", "word": ["xi1.K{0,0}"]}]}'),
    (('a2', 'psi', '0'),
     '0',
     '{"kind": "cotensor", "terms": []}'),
    (('c2', 'star', '1/2 v1 - v2', '(1 - q) v1 + 2 K{1}'),
     'v1.K{1} + (1 - q) v1.K{1}[]v2.K{0} − 2 v2.K{1} + (-1 + q) v2.K{1}[]v1.K{0} + (1/4 - 1/4*q) xi11.K{0}',
     '{"kind": "cotensor", "terms": [{"coeff": "1", "word": ["v1.K{1}"]}, {"coeff": "1 - q", "word": ["v1.K{1}", "v2.K{0}"]}, {"coeff": "-2", "word": ["v2.K{1}"]}, {"coeff": "-1 + q", "word": ["v2.K{1}", "v1.K{0}"]}, {"coeff": "1/4 - 1/4*q", "word": ["xi11.K{0}"]}]}'),
    (('c2', 'smash-star', '−v1@K{1}', 'q^-1 v2 + 2'),
     '−2 v1#K{1} + q^-1 v1@v2#K{1} − q^-1 v2@v1#K{1} + q^-1 xi12#K{1}',
     '{"kind": "smash", "terms": [{"coeff": "-2", "group": "K{1}", "word": ["v1"]}, {"coeff": "q^-1", "group": "K{1}", "word": ["v1", "v2"]}, {"coeff": "-q^-1", "group": "K{1}", "word": ["v2", "v1"]}, {"coeff": "q^-1", "group": "K{1}", "word": ["xi12"]}]}'),
    (('c2', 'comul', '−q^2 K{1} + 1/2 v1@v2'),
     '1/2 K{0} (x) v1.K{1}[]v2.K{0} − q^2 K{1} (x) K{1} + 1/2 v1.K{1} (x) v2.K{0} + 1/2 v1.K{1}[]v2.K{0} (x) K{0}',
     '{"kind": "pairs", "terms": [{"coeff": "1/2", "left": "K{0}", "right": "v1.K{1}[]v2.K{0}"}, {"coeff": "-q^2", "left": "K{1}", "right": "K{1}"}, {"coeff": "1/2", "left": "v1.K{1}", "right": "v2.K{0}"}, {"coeff": "1/2", "left": "v1.K{1}[]v2.K{0}", "right": "K{0}"}]}'),
    (('a2', 'phi', 'q^-1 E1.K{1,0}[]F1.K{0,0} + 1/2 K{0,0} - (1 - q) xi1.K{0,0}'),
     '1/2 + q^-1 E1@F1 + (-1 + q) xi1',
     '{"kind": "tensor", "terms": [{"coeff": "1/2", "word": []}, {"coeff": "q^-1", "word": ["E1", "F1"]}, {"coeff": "-1 + q", "word": ["xi1"]}]}'),
    (('a2', 'phi', 'E1@F2 - q^2 F1'),
     'E1@F2 − q^2 F1',
     '{"kind": "tensor", "terms": [{"coeff": "1", "word": ["E1", "F2"]}, {"coeff": "-q^2", "word": ["F1"]}]}'),
    (('c2', 'phi', '0'),
     '0',
     '{"kind": "tensor", "terms": []}'),
    # rb-apply renders over the spec with the unit letter "one" adjoined
    (('a2', 'rb-apply', 'E1'),
     'one.K{1,0}[]E1.K{0,0}',
     '{"kind": "cotensor", "terms": [{"coeff": "1", "word": ["one.K{1,0}", "E1.K{0,0}"]}]}'),
    (('a2', 'rb-apply', 'E1@F1 - (1 - q) E2'),
     '(-1 + q) one.K{0,1}[]E2.K{0,0} + one.K{2,0}[]E1.K{1,0}[]F1.K{0,0}',
     '{"kind": "cotensor", "terms": [{"coeff": "-1 + q", "word": ["one.K{0,1}", "E2.K{0,0}"]}, {"coeff": "1", "word": ["one.K{2,0}", "E1.K{1,0}", "F1.K{0,0}"]}]}'),
    (('a2', 'rb-apply', '1/2 + xi1@F2'),
     '1/2 one.K{0,0} + one.K{2,1}[]xi1.K{0,1}[]F2.K{0,0}',
     '{"kind": "cotensor", "terms": [{"coeff": "1/2", "word": ["one.K{0,0}"]}, {"coeff": "1", "word": ["one.K{2,1}", "xi1.K{0,1}", "F2.K{0,0}"]}]}'),
    (('c2', 'rb-apply', 'v1@v2 - 1/2 v2'),
     'one.K{0}[]v1.K{1}[]v2.K{0} − 1/2 one.K{1}[]v2.K{0}',
     '{"kind": "cotensor", "terms": [{"coeff": "1", "word": ["one.K{0}", "v1.K{1}", "v2.K{0}"]}, {"coeff": "-1/2", "word": ["one.K{1}", "v2.K{0}"]}]}'),
]


# A [braiding] override that is invertible, has non-monomial entries and
# fails Yang-Baxter, so these outputs change if a block braiding applies
# any generator word other than the reduced word of its block rotation.
NON_YANG_BAXTER = """
[group]
rank = 1

[basis]
a = 1
b = 1

[action]
g1 = q, q^-1

[mult]
a b -> b

[braiding]
a a -> q a@a
a b -> b@a + a@b
b a -> a@b
b b -> 2 b@b
"""

NON_YANG_BAXTER_QSH = [
    (('a@b@a', 'b'),
     '(1 + q) a@a@b@b + 2 a@b@a@b + a@b@b + 5 a@b@b@a + 2 b@a@b@a + 2 b@b@a'),
    (('a@b@a', 'b@a'),
     '(1 + q + q^2) a@a@a@b@b + (1 + q) a@a@b@a@b + (1 + 3*q) a@a@b@b@a + a@b@a@a@b + (2 + 4*q) a@b@a@b@a + a@b@b@a + (5 + 5*q) a@b@b@a@a + (2*q + 2*q^2) b@a@a@b@a + (2*q) b@a@b@a + (2 + 2*q) b@a@b@a@a + (2 + 2*q) b@b@a@a'),
    (('b@a@b', 'a@b'),
     '(2*q) a@a@b@b@b + (5*q) a@b@a@b@b + (6*q) a@b@b@a@b + (2*q) a@b@b@b + (3 + 5*q) b@a@a@b@b + (1 + 2*q) b@a@b@a@b + (2*q) b@a@b@b'),
]


@pytest.fixture(scope="module")
def configs(tmp_path_factory):
    root = tmp_path_factory.mktemp("characterisation")
    cartan = root / "a2.txt"
    cartan.write_text("2 -1\n-1 2\n", encoding="utf-8")
    paths = {}
    for name, argv in (("c2", ["preset", "clifford", "--n", "2"]),
                       ("a2", ["preset", "uqg", "--cartan", str(cartan)])):
        path = root / f"{name}.cfg"
        with open(path, "w", encoding="utf-8") as handle:
            with contextlib.redirect_stdout(handle):
                assert main(argv) == 0
        paths[name] = str(path)
    return paths


@pytest.mark.parametrize("case,text,json_text", CASES,
                         ids=[" ".join(c[0][:2]) + f" #{k}" for k, c in enumerate(CASES)])
def test_cli_output_is_pinned(configs, capsys, case, text, json_text):
    config, argv = configs[case[0]], list(case[1:])
    assert main(["--config", config, *argv]) == 0
    assert capsys.readouterr().out == text + "\n"
    assert main(["--config", config, "--format", "json", *argv]) == 0
    assert capsys.readouterr().out == json_text + "\n"


def test_qsh_under_a_non_yang_baxter_override_is_pinned(tmp_path, capsys):
    path = tmp_path / "non_yb.cfg"
    path.write_text(NON_YANG_BAXTER, encoding="utf-8")
    assert main(["--config", str(path), "check", "yb"]) == 1
    capsys.readouterr()
    for argv, text in NON_YANG_BAXTER_QSH:
        assert main(["--config", str(path), "qsh", *argv]) == 0
        assert capsys.readouterr().out == text + "\n"


def test_group_algebra_term_order():
    g = AbelianGroup(1, (3,))
    h = Element({g.element([1, 2]): Scalar.q_power(-1), g.element([-1, 0]): 2,
                 g.element([0, 1]): 1, g.element([1, 0]): -1,
                 g.identity(): Scalar.one() - Scalar.q_power(1)}, g)
    assert [(k.exponents(), str(c)) for k, c in h.terms()] == [
        ((-1, 0), "2"), ((0, 0), "1 - q"), ((0, 1), "1"), ((1, 0), "-1"),
        ((1, 2), "q^-1")]


def test_zero_elements_render_as_zero(clifford2):
    spec = clifford2.spec
    assert render_element(Element.zero(spec)) == "0"
    assert render_cotensor(CotensorElement.zero(spec)) == "0"
    assert render_smash(SmashElement.zero(spec)) == "0"
    assert render_pairs(spec, coproduct(CotensorElement.zero(spec))) == "0"


# -- the record classes: constructors, repr, equality and hashing ------------------


def _one_letter_spec() -> YDSpec:
    group = AbelianGroup(rank=1)
    return YDSpec(group, ("a",), (group.generator(0),), (diagonal_images([Scalar.q_power(1)]),))


def test_record_constructors_keep_their_parameters():
    expected = {
        CheckResult: [("ok", None), ("law", ""), ("witness", None), ("lhs", None),
                      ("rhs", None)],
        ConfigDocument: [("spec", None), ("override", None), ("notes", ())],
        AbelianGroup: [("rank", None), ("torsion", ())],
        YDSpec: [("group", None), ("names", None), ("degrees", None), ("action", None),
                 ("mult", None), ("unit", None), ("braiding", None)],
        Preset: [("spec", None)],
        RBInstance: [("product", None), ("operator", None), ("weight", None)],
    }
    for cls, params in expected.items():
        found = inspect.signature(cls).parameters.values()
        assert [(p.name, None if p.default is p.empty else p.default)
                for p in found] == params, cls
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in found), cls


def test_record_reprs_are_pinned():
    assert repr(AbelianGroup(rank=1, torsion=(2,))) == "AbelianGroup(rank=1, torsion=(2,))"
    assert repr(CheckResult(False, "law", (1,))) \
        == "CheckResult(ok=False, law='law', witness=(1,), lhs=None, rhs=None)"
    spec = _one_letter_spec()
    text = ("YDSpec(group=AbelianGroup(rank=1, torsion=()), names=('a',), "
            "degrees=(GroupElement(free=(1,), torsion=()),), "
            "action=((Element({'\\x00': Scalar({1: 1})}),),), "
            "mult={(0, 0): Element({})}, unit=None)")
    assert repr(spec) == text and "_cache" not in repr(spec)
    assert repr(ConfigDocument(spec)) \
        == f"ConfigDocument(spec={text}, override=None, notes=())"


def test_groups_compare_and_hash_by_value():
    first, second = AbelianGroup(rank=1, torsion=(2,)), AbelianGroup(rank=1, torsion=(2,))
    assert first is not second and first == second and not first != second
    assert hash(first) == hash(second) and len({first, second}) == 1
    assert first != AbelianGroup(rank=1) and first != (1, (2,))


def test_specs_compare_by_identity():
    first, second = _one_letter_spec(), _one_letter_spec()
    assert repr(first) == repr(second)
    assert first != second and first == first and len({first, second}) == 2
    assert ConfigDocument(first) != ConfigDocument(first)


def test_check_results_compare_by_value_and_are_unhashable():
    assert CheckResult(False, "law", (1,), 2, 3) == CheckResult(False, "law", (1,), 2, 3)
    assert CheckResult(False, "law", (1,)) != CheckResult(False, "other", (1,))
    assert CheckResult(True) != (True, "", None, None, None)
    weight = Scalar.coerce(1)
    assert RBInstance(len, abs, weight) == RBInstance(len, abs, weight)
    assert RBInstance(len, abs, weight) != RBInstance(abs, len, weight)
    for value in (CheckResult(True), RBInstance(len, abs, weight)):
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)


def _shape_errors():
    group, spec, other = AbelianGroup(rank=1), _one_letter_spec(), _one_letter_spec()
    hoffman, alphabet = hoffman_spec(2), object()
    empty, head = (Element.from_word(word, alphabet=hoffman.alphabet) for word in ((), (0,)))
    return [
        ("expected 1 exponents, got 2", lambda: group.element([1, 2])),
        ("one degree per letter", lambda: YDSpec(group, ("a", "b"), (group.identity(),),
                                                 (diagonal_images([1, 1]),))),
        ("spec already has a unit letter", lambda: spec.with_unit().with_unit()),
        (r"braiding entry for \(0, 0\) has an invalid word \(0,\)",
         lambda: BraidingTable(1, {(0, 0): Element.from_word((0,), alphabet=alphabet)})),
        ("braiding dimension does not match",
         lambda: YDSpec(AbelianGroup(0), ("a", "b"), (AbelianGroup(0).identity(),) * 2, (),
                        braiding=flip_braiding(1))),
        ("head-distinguished words must be nonempty", lambda: diamond_product(hoffman, empty, head)),
        ("head-distinguished words must be nonempty", lambda: diamond_product(hoffman, head, empty)),
        ("head-distinguished words must be nonempty",
         lambda: head_shift(hoffman.with_unit(), Element.from_word(()))),
        ("cotensor elements over different module data",
         lambda: star(CotensorElement.unit(spec), CotensorElement.unit(other))),
        ("smash elements over different module data",
         lambda: smash_product(SmashElement.unit(spec), SmashElement.unit(other))),
    ]


def test_library_shape_errors_are_structural():
    for message, call in _shape_errors():
        with pytest.raises(StructuralError, match=message):
            call()
    with pytest.raises(TypeError, match="exact rational expected, got float"):
        Scalar.coerce(0.5)

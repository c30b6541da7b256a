from __future__ import annotations

from fractions import Fraction

import pytest

from cofreehopf.braid import check_yang_baxter
from cofreehopf.config import ConfigDocument, emit_config
from cofreehopf.cotensor import (
    CotensorElement,
    SmashElement,
    chain_lift_word,
    star,
)
from cofreehopf.elements import Element
from cofreehopf.errors import StructuralError
from cofreehopf.grouphopf import check_yd_module_algebra, check_yetter_drinfeld
from cofreehopf.presets import build_clifford, build_uqg
from cofreehopf.scalars import Scalar

from conftest import (CARTAN_A2, check_clifford_relations, check_uqg_relations,
                      reference_module_projection)


def test_clifford_basis_sizes():
    assert build_clifford(1).spec.names == ("v1", "xi11")
    assert build_clifford(2).spec.names == ("v1", "v2", "xi11", "xi12", "xi22")
    assert len(build_clifford(3).spec.names) == 3 + 6


def test_clifford_indexing(clifford3):
    # a letter's index is its place here: the generators, then xi_ij by rows, i <= j
    assert clifford3.spec.names == (
        "v1", "v2", "v3", "xi11", "xi12", "xi13", "xi22", "xi23", "xi33")
    with pytest.raises(StructuralError):
        clifford3.spec.letter("xi21")


def test_clifford_rejects_degenerate_size():
    with pytest.raises(StructuralError):
        build_clifford(0)


def test_clifford_induced_braiding_signs(clifford2):
    spec = clifford2.spec
    table = spec.braiding
    for i in range(2):
        for j in range(2):
            assert table.entries[(i, j)] == Element.from_word((j, i), -1, spec)


def assert_valid(spec):
    """The three checkers a builder does not run, each passing on ``spec``:
    the oracle of the proof in the presets module docstring."""
    assert check_yetter_drinfeld(spec)
    assert check_yd_module_algebra(spec)
    assert check_yang_baxter(spec.braiding)


def test_clifford_validators():
    for n in range(1, 5):
        assert_valid(build_clifford(n).spec)


def test_clifford_relations(clifford2, clifford3):
    assert check_clifford_relations(clifford2, 2)
    assert check_clifford_relations(clifford3, 3)


def test_clifford_module_multiplication_matches_published_table(clifford2):
    spec = clifford2.spec
    e = spec.group.identity()
    eps = spec.group.element([1])
    v1, v2, xi12 = "\0", "\1", "\3"  # the letters as degree-1 keys hold them, packed
    # mu((v1, 1), (v2, h')) = (xi12, h')
    for tag in (e, eps):
        out = reference_module_projection(spec, (v1, e), (v2, tag))
        assert out == {(xi12, tag): Scalar.one()}
    # mu((v1, eps), (v2, h')) = -(xi12, eps h')
    for tag in (e, eps):
        out = reference_module_projection(spec, (v1, eps), (v2, tag))
        assert out == {(xi12, spec.group.multiply(eps, tag)): Scalar.rational(-1)}
    # reversed pairs are zero, the diagonal is halved
    assert reference_module_projection(spec, (v2, e), (v1, e)) == {}
    out = reference_module_projection(spec, (v1, e), (v1, e))
    assert out == {("\2", e): Scalar.rational(Fraction(1, 2))}


def test_clifford_degree_two_span_closure(clifford2):
    spec = clifford2.spec
    generators = [chain_lift_word(spec, (i,)) for i in range(2)]
    allowed_letters = set(range(spec.dim))
    for ka in generators:
        for kb in generators:
            out = star(CotensorElement.from_word(spec, ka),
                       CotensorElement.from_word(spec, kb))
            for key in out._terms:
                assert 1 <= len(key[0]) <= 2
                assert all(ord(v) in allowed_letters for v in key[0])


def test_uqg_basis_layout(uqg_a1, uqg_a2):
    assert uqg_a1.spec.names == ("E1", "F1", "xi1")
    assert uqg_a2.spec.names == ("E1", "E2", "F1", "F2", "xi1", "xi2")


def test_uqg_degrees_and_action(uqg_a2):
    spec = uqg_a2.spec
    g = spec.group
    e1, e2, f1, _, xi1, xi2 = map(spec.letter, spec.names)
    assert spec.degrees[e1] == g.element([1, 0])
    assert spec.degrees[xi2] == g.element([0, 2])
    k1 = g.generator(0)
    assert spec.act_letter(k1, e2) == Element.from_word((e2,), Scalar.q_power(-1), spec)
    assert spec.act_letter(k1, f1) == Element.from_word((f1,), Scalar.q_power(-2), spec)
    assert spec.act_letter(k1, xi1) == Element.from_word((xi1,), alphabet=spec)


def test_uqg_validators():
    # A1, A2, unsymmetrized B2 and G2, a non-symmetric and the zero 2x2, and a
    # 3x3 with negative entries
    for cartan in ([[2]], CARTAN_A2, [[2, -2], [-1, 2]], [[2, -1], [-3, 2]],
                   [[1, 3], [-2, 0]], [[0, 0], [0, 0]], [[2, -1, -3], [0, -2, 4], [-5, 1, 2]]):
        assert_valid(build_uqg(cartan).spec)


def test_uqg_relations(uqg_a1, uqg_a2):
    assert check_uqg_relations(uqg_a1, [[2]])
    assert check_uqg_relations(uqg_a2, CARTAN_A2)


def test_uqg_relation_checker_reports_asymmetric_matrices():
    cartan = [[2, 0], [-1, 2]]
    result = check_uqg_relations(build_uqg(cartan), cartan)
    assert not result
    assert result.law in ("uqg-commutator", "uqg-commutator-smash")


def test_uqg_module_multiplication_eigenvalue(uqg_a2):
    # mu((E_i, K), (F_j, K')) = delta_ij q^{-sum_k a_k c_kj} (xi_i, K K')
    spec = uqg_a2.spec
    g = spec.group
    cartan = CARTAN_A2
    for i in (1, 2):
        for j in (1, 2):
            for a in ([1, 0], [2, -1], [0, 0]):
                big_k = g.element(a)
                kp = g.generator(1)
                out = reference_module_projection(
                    spec, (chr(spec.letter(f"E{i}")), big_k), (chr(spec.letter(f"F{j}")), kp))
                if i != j:
                    assert out == {}
                    continue
                exponent = -sum(a[k] * cartan[k][j - 1] for k in range(2))
                target = (chr(spec.letter(f"xi{i}")), g.multiply(big_k, kp))
                assert out == {target: Scalar.q_power(exponent)}


def test_uqg_requires_square_matrix():
    with pytest.raises(StructuralError):
        build_uqg([[2, -1]])


@pytest.mark.parametrize("cartan", [[[2.7]], [["3"]], [[2, -1], [-1, 2.0]], [[None]], [2]],
                         ids=["float", "str", "float-entry", "none", "row-not-a-list"])
def test_uqg_refuses_a_non_integral_entry(cartan):
    # each entry is read as an integer index: no float is truncated, no string parsed
    with pytest.raises(StructuralError, match="a square integral matrix is required"):
        build_uqg(cartan)


class _Index:
    """An integer that is not an int: it converts only through ``__index__``."""

    def __init__(self, value: int):
        self.value = value

    def __index__(self) -> int:
        return self.value


def test_uqg_reads_each_entry_through_its_index(uqg_a2):
    built = build_uqg([[_Index(e) for e in row] for row in CARTAN_A2])
    assert emit_config(ConfigDocument(built.spec)) == emit_config(ConfigDocument(uqg_a2.spec))


def test_relation_checks_name_the_route_that_fails(clifford2, uqg_a2, monkeypatch):
    import conftest

    cartan = [[2, 0], [-1, 2]]
    asymmetric = check_uqg_relations(build_uqg(cartan), cartan)
    assert (asymmetric.law, asymmetric.witness) == ("uqg-commutator", (1, 2))
    monkeypatch.setattr(conftest, "smash_product", lambda x, y: x.scale(0))
    for result, law, bracket in (
            (check_clifford_relations(clifford2, 2), "clifford-anticommutator-smash",
             clifford2.spec.letter("xi11")),
            (check_uqg_relations(uqg_a2, CARTAN_A2), "uqg-commutator-smash",
             uqg_a2.spec.letter("xi1"))):
        assert (result.law, result.witness) == (law, (1, 1))
        assert result.lhs.is_zero()
        assert result.rhs == SmashElement.of(result.rhs.spec, (bracket,))

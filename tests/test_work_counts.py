"""Exact work counts as complexity gates.

A time spreads from run to run on a shared machine; the number of package
lines a call executes does not.  Each gate bounds the growth of that count
per doubling of the word length, count(2n) / count(n) <= 2.3 for n = 50,
100 and 200, for a call that is linear in n: a quadratic route reads
about 4 there.  Each count runs on a fresh spec, so no memo of an earlier
count is read; the words are the seed-5 random words over the letters of
``clifford2``, times its letter 0 in a product or a crossing.
"""

from __future__ import annotations

import random
import sys

import pytest

from cofreehopf import qalg
from cofreehopf.cotensor import (CotensorElement, SmashElement, chain_lift_word, coproduct,
                                 smash_product)
from cofreehopf.elements import Element, pack_word
from cofreehopf.presets import build_clifford, build_uqg
from cofreehopf.qalg import check_quasi_shuffle_bialgebra, crossing, quasi_shuffle
from cofreehopf.rotabaxter import check_rota_baxter, qsh_rb_instance, smash_rb_instance

from conftest import executed_lines


def _word(spec, n: int) -> tuple[int, ...]:
    r = random.Random(5)
    return tuple(r.randrange(spec.dim) for _ in range(n))


def _smash_n_times_1(n: int):
    spec = build_clifford(2).spec
    x, y = SmashElement.of(spec, _word(spec, n)), SmashElement.of(spec, (0,))
    return lambda: smash_product(x, y)


def _qsh(n: int, long_first: bool):
    spec = build_clifford(2).spec
    long, letter = (Element.from_word(w, alphabet=spec) for w in (_word(spec, n), (0,)))
    x, y = (long, letter) if long_first else (letter, long)
    return lambda: quasi_shuffle(spec, x, y)


ROUTES = {
    "smash-n-times-1": _smash_n_times_1,
    "qsh-n-times-1": lambda n: _qsh(n, True),
    "qsh-1-times-n": lambda n: _qsh(n, False),
}


def _crossing(n: int):
    spec = build_clifford(2).spec
    u = pack_word(_word(spec, n))
    return lambda: crossing(spec, u, "\0")


def _coproduct(n: int):
    spec = build_clifford(2).spec
    x = CotensorElement.from_word(spec, chain_lift_word(spec, _word(spec, n)))
    return lambda: coproduct(x)


# the crossing of one letter across a fresh word fills the memo of its n
# suffixes, one braiding each; the coproduct of a key writes its n + 1 cuts
READS = {
    "crossing-n-times-1": _crossing,
    "coproduct-n-letters": _coproduct,
}


def _assert_linear(make) -> None:
    counts = {n: executed_lines(make(n)) for n in (50, 100, 200, 400)}
    ratios = [counts[2 * n] / counts[n] for n in (50, 100, 200)]
    assert max(ratios) <= 2.3, (counts, ratios)


@pytest.mark.parametrize("route", ROUTES)
def test_a_long_product_with_one_letter_is_linear_in_its_line_count(route):
    _assert_linear(ROUTES[route])


@pytest.mark.parametrize("read", READS)
def test_a_crossing_and_a_coproduct_are_linear_in_their_line_count(read):
    _assert_linear(READS[read])


def test_the_line_count_reads_package_lines_and_restores_the_tracer():
    def outside():
        return sum(range(10))

    def failing():
        Element.zero()
        raise ValueError("raised inside the count")

    previous = sys.gettrace()
    assert executed_lines(outside) == 0
    assert executed_lines(Element.zero) == executed_lines(Element.zero) > 0
    with pytest.raises(ValueError):
        executed_lines(failing)
    assert sys.gettrace() is previous


# -- what the quasi-shuffle memo shares ---------------------------------------

CLAUSES = ("_qsh_general", "_qsh_one_letter", "_qsh_letter_times")
# the runs of each over the checks below, on fresh specs: the clause with
# two letters or more on both sides, and the loops for one letter on the
# right and on the left.  A memo that kept every level read the same.
CLAUSE_RUNS = {"clifford2": (389, 125, 98), "uqg_a2": (398, 132, 90)}


def _axiom_checks(spec) -> None:
    """check rb on the quasi-shuffle and smash instances and check bialg on
    fixed random pairs, as the criterion 06 and 08 checks sample them."""
    r = random.Random(48)

    def word(n: int, over) -> tuple[int, ...]:
        return tuple(r.randrange(over.dim) for _ in range(n))
    unital, yd_unital = spec.with_unit(), spec.with_unit()
    tags = (spec.group.identity(), spec.group.generator(0))
    for _ in range(30):
        pair = [Element.from_word(word(r.randint(0, 2), unital), alphabet=unital) for _ in "xy"]
        assert check_rota_baxter(qsh_rb_instance(unital), [pair])
        pair = [SmashElement.of(yd_unital, word(r.randint(0, 2), yd_unital), r.choice(tags))
                for _ in "xy"]
        assert check_rota_baxter(smash_rb_instance(yd_unital), [pair])
        du, dv = r.choice(((1, 1), (1, 2), (2, 1), (2, 3)))
        assert check_quasi_shuffle_bialgebra(spec, [(word(du, spec), word(dv, spec))])


@pytest.mark.parametrize("name", CLAUSE_RUNS)
def test_the_axiom_checks_run_the_clause_as_often_as_a_memo_of_every_level(name, monkeypatch):
    spec = build_clifford(2).spec if name == "clifford2" else build_uqg(((2, -1), (-1, 2))).spec
    runs = dict.fromkeys(CLAUSES, 0)
    for clause in CLAUSES:
        def counted(*args, run=getattr(qalg, clause), clause=clause):
            runs[clause] += 1
            return run(*args)
        monkeypatch.setattr(qalg, clause, counted)
    _axiom_checks(spec)
    assert tuple(runs.values()) == CLAUSE_RUNS[name], runs


# -- what a smash product and a Rota-Baxter check build ------------------------

# package lines of one warm pass of check rb over 30 seed-7 pairs at commit
# 576e30b, where a smash product built four dicts per pair of keys and the
# check applied P three times
BEFORE_ONE_PASS = {("clifford2", "smash"): 22405, ("clifford2", "qsh"): 10461,
                   ("uqg_a2", "smash"): 25256, ("uqg_a2", "qsh"): 10393}
# the smash instance builds each product's terms once; on the quasi-shuffle
# instance only P applied once is left, which three applications exceed
AT_MOST = {"smash": 0.75, "qsh": 0.95}


@pytest.mark.parametrize("name, instance", BEFORE_ONE_PASS)
def test_a_warm_rota_baxter_check_builds_each_product_once(name, instance):
    spec = (build_clifford(2) if name == "clifford2" else build_uqg(((2, -1), (-1, 2)))).spec
    spec = spec.with_unit()
    r = random.Random(7)
    tags = (spec.group.identity(), spec.group.generator(0))

    def word() -> tuple[int, ...]:
        return tuple(r.randrange(spec.dim) for _ in range(r.randint(0, 2)))
    if instance == "smash":
        inst = smash_rb_instance(spec)
        pairs = [[SmashElement.of(spec, word(), r.choice(tags)) for _ in "xy"] for _ in range(30)]
    else:
        inst = qsh_rb_instance(spec)
        pairs = [[Element.from_word(word(), alphabet=spec) for _ in "xy"] for _ in range(30)]
    assert check_rota_baxter(inst, pairs)  # fills the memos: the count below reads them
    count = executed_lines(lambda: check_rota_baxter(inst, pairs))
    assert count <= AT_MOST[instance] * BEFORE_ONE_PASS[name, instance], count

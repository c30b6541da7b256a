"""Exact work counts as complexity gates.

A time spreads from run to run on a shared machine; the number of package
lines a call executes does not.  Each gate bounds the growth of that count
per doubling of the word length, count(2n) / count(n) <= 2.3 for n = 50,
100 and 200, for a product that is linear in n: a quadratic route reads
about 4 there.  Each count runs on a fresh spec, so no memo of an earlier
count is read; the words are the seed-5 random words over the letters of
``clifford2``, times its letter 0.
"""

from __future__ import annotations

import random
import sys

import pytest

from cofreehopf.cotensor import SmashElement, smash_product
from cofreehopf.elements import Element
from cofreehopf.presets import build_clifford
from cofreehopf.qalg import quasi_shuffle

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


@pytest.mark.parametrize("route", ROUTES)
def test_a_long_product_with_one_letter_is_linear_in_its_line_count(route):
    counts = {n: executed_lines(ROUTES[route](n)) for n in (50, 100, 200, 400)}
    ratios = [counts[2 * n] / counts[n] for n in (50, 100, 200)]
    assert max(ratios) <= 2.3, (counts, ratios)


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

"""Random YD module algebras of rank 1 and 2 with a nonzero product
(``conftest.graded_yd_config``): every axiom holds by construction, so
each of the five checks must pass, ``star`` must be associative and
every product route must agree, the merge move of the quasi-shuffle and
the ``[mult]`` half of the degree-one projection included."""

from __future__ import annotations

import random

import pytest

from cofreehopf.cli import CHECKS
from cofreehopf.config import parse_config
from cofreehopf.cotensor import (CotensorElement, chain_lift, chain_lift_word,
                                 flatten_coinvariant, right_translate, smash_product, star,
                                 to_smash)
from cofreehopf.elements import Element
from cofreehopf.qalg import quasi_shuffle
from cofreehopf.scalars import Scalar

from conftest import graded_yd_config


@pytest.mark.parametrize("seed", range(20))
def test_graded_yd_data_passes_its_checks_and_its_routes_agree(seed):
    doc = parse_config(graded_yd_config(seed))
    spec, bspec = doc.spec, doc.braided()
    assert any(spec.mult.values())
    assert bspec is spec
    for law in ("yb", "alg", "yd", "bialg", "rb"):
        _, result = CHECKS[law](doc, 2)
        assert result, (law, result.describe())
    rnd = random.Random(seed)
    tags = [spec.group.element([rnd.randint(-2, 2) for _ in range(spec.group.rank)])
            for _ in range(5)]

    def word():
        return tuple(rnd.randrange(spec.dim) for _ in range(rnd.randint(1, 3)))

    def coeff():
        return Scalar.q_power(rnd.randint(-2, 2), rnd.choice((1, -1, 2)))

    def tagged():  # a basis key with a group tag, now and then a degree-0 key
        tag = rnd.choice(tags)
        return tag if rnd.random() < 0.2 else \
            right_translate(spec, chain_lift_word(spec, word()), tag)

    def cotensor():  # three terms
        return CotensorElement(spec, {tagged(): coeff() for _ in range(3)})

    def plain():
        return Element.from_word(word(), coeff(), spec) + Element.from_word(word(), coeff(), spec)

    for _ in range(6):
        x, y = cotensor(), cotensor()
        assert to_smash(star(x, y)) == smash_product(to_smash(x), to_smash(y)), (x, y)
        u, v = plain(), plain()
        assert flatten_coinvariant(star(chain_lift(spec, u), chain_lift(spec, v))) \
            == quasi_shuffle(bspec, u, v), (u, v)
    for _ in range(3):
        x, y, z = (CotensorElement(spec, {tagged(): coeff()}) for _ in range(3))
        assert star(star(x, y), z) == star(x, star(y, z)), (x, y, z)

"""The first products of ``star`` against the Element-core code they replace.

π₁ on letters (``cotensor._pi1``) and the composition of letter images
(``grouphopf._compose``) build their dicts from term dicts.  The
reference copies (``reference_module_projection`` in ``conftest`` and
``reference_compose`` below) build the same maps through
``Element.map_words`` and ``Element.relabel``.  Both must give the same
terms, in the same insertion order, with equal coefficients, on every
pair of keys of degree at most one whose group components have exponents
in -3..3 (on ``uqg_a2``, -1..1 for the right letter of a letter pair).

The Jordan and super Jordan planes act by Jordan blocks, so their letter
images have two terms: they are the first data on which the multi-term
image and compose paths meet the smash-route oracle.
"""

from __future__ import annotations

import itertools
import random

import pytest

from cofreehopf.config import parse_config
from cofreehopf.cotensor import (
    CotensorElement,
    _pi1,
    chain_lift_word,
    right_translate,
    smash_product,
    star,
    to_smash,
)
from cofreehopf.elements import Element
from cofreehopf.grouphopf import AbelianGroup, YDSpec, _compose, check_yetter_drinfeld
from cofreehopf.scalars import Scalar

from conftest import reference_module_projection

# -- the reference copies ------------------------------------------------------------


def reference_pi1(spec, a, b):
    """``_pi1``'s entry for the pair (a, b) of shape (group, letter) or
    (letter, letter), from the reference projection with its group parts
    removed.  The flag holds when each letter's left degree, deg(letter)
    times its component, is the component of the word it is appended to:
    rd(a') * rd(b'), a' and b' the keys before the last letters."""
    one, multiply = Scalar.one(), spec.group.multiply

    def before(key):  # the right degree of the key with its letter removed
        return key[1] if not key[0] else multiply(spec.degrees[ord(key[0])], key[1])

    end = multiply(before(a), before(b))
    projection = reference_module_projection(spec, a, b)
    return (tuple((v, None if d == one else d) for (v, _), d in projection.items()),
            all(multiply(spec.degrees[ord(v)], g) == end for v, g in projection))


def reference_compose(a, b):
    return tuple(image.map_words(lambda w: a[ord(w)]) for image in b)


def reference_power(spec, g):
    """The letter images of g by one composition per unit of each exponent."""
    group = spec.group
    images = spec.action_matrix(group.identity())
    for k, e in enumerate(g.exponents()):
        h = group.generator(k)
        base = spec.action_matrix(h if e >= 0 else group.inverse(h))
        for _ in range(abs(e)):
            images = reference_compose(images, base)
    return images


# -- the data --------------------------------------------------------------------------

JORDAN = "[group]\nrank = 1\n\n[basis]\nx1 = 1\nx2 = 1\n\n[action]\ng1.x1 = 1, 0\ng1.x2 = 1, 1\n"
SUPER_JORDAN = JORDAN.replace("g1.x1 = 1, 0\ng1.x2 = 1, 1", "g1.x1 = -1, 0\ng1.x2 = 1, -1")
TORSION = ("[group]\nrank = 1\ntorsion = 2\n\n[basis]\nu = 1, 1\nv = 0, 1\n\n[action]\n"
           "g1 = q, -q^-1\ng2 = -1, -1\n\n[mult]\nu u -> 1/2 v\n")


def _random_scalar(rnd):
    return Scalar({rnd.randint(-2, 2): rnd.choice([-2, -1, 1, 2, 3])})


def _random_column_spec(seed: int) -> YDSpec:
    """A rank-1 spec whose generator acts by a triangular matrix with q-power
    diagonal, its columns permuted, and whose multiplication sends most
    pairs to two-letter combinations: images have several terms, and
    their products meet on one letter."""
    rnd = random.Random(seed)
    dim = rnd.choice([2, 3])
    group = AbelianGroup(rank=1)
    rows = [[Scalar.zero()] * dim for _ in range(dim)]
    for i in range(dim):
        rows[i][i] = Scalar.q_power(rnd.randint(-1, 1), rnd.choice([1, -1]))
        for j in range(i + 1, dim):
            rows[i][j] = _random_scalar(rnd)
    order = rnd.sample(range(dim), dim)
    images = tuple(Element({chr(i): row[j] for i, row in enumerate(rows)}) for j in order)
    mult = {}
    for pair in itertools.product(range(dim), repeat=2):
        if rnd.random() < 0.8:
            mult[pair] = sum((Element.from_word((a,), _random_scalar(rnd))
                              for a in rnd.sample(range(dim), 2)), Element.zero())
    degrees = tuple(group.element([rnd.randint(-1, 1)]) for _ in range(dim))
    return YDSpec(group, tuple(f"x{i + 1}" for i in range(dim)), degrees, (images,), mult)


SPECS = ["clifford2", "uqg_a2", "jordan", "super-jordan", "torsion",
         *(f"random-{seed}" for seed in range(12))]


def _spec(name, request) -> YDSpec:
    if name in ("clifford2", "uqg_a2"):
        return request.getfixturevalue(name).spec
    if name.startswith("random-"):
        return _random_column_spec(int(name.split("-")[1]))
    text = {"jordan": JORDAN, "super-jordan": SUPER_JORDAN, "torsion": TORSION}[name]
    return parse_config(text).spec


def _tags(group, exponents=range(-3, 4)):
    """The group's elements with every exponent in ``exponents``, torsion reduced."""
    return list(dict.fromkeys(group.element(e) for e in
                              itertools.product(exponents, repeat=group.n_generators)))


# -- pi1 and the letter images against the references ----------------------------------


@pytest.mark.parametrize("name", SPECS)
def test_pi1_matches_the_reference_on_every_key_pair_of_degree_at_most_one(name, request):
    spec = _spec(name, request)
    tags = [("", g) for g in _tags(spec.group)]
    letters = [(chr(v), g) for v in range(spec.dim) for _, g in tags]
    right = letters
    if name == "uqg_a2":  # 49 tags: the right component of a letter pair, which
        # only shifts the target, runs over exponents -1..1
        right = [(chr(v), g) for v in range(spec.dim) for g in _tags(spec.group, range(-1, 2))]
    merged, flags = 0, set()
    for a, b in itertools.chain(itertools.product(tags + letters, tags),
                                itertools.product(tags, letters),
                                itertools.product(letters, right)):
        want = reference_module_projection(spec, a, b)
        if not b[0]:  # the right action, which _pi1 never reads: the letter itself
            assert want == ({} if not a[0] else
                            {(a[0], spec.group.multiply(a[1], b[1])): Scalar.one()}), (a, b)
            continue
        got = _pi1(spec, a[0] or None, a[1], b[0])
        assert got == reference_pi1(spec, a, b), (a, b)
        flags.add(got[1])
        if a[0]:
            (v, g1), (w, _) = a, b
            merged += len(got[0]) < sum(len(spec.mult[(ord(v), i)]._terms)
                                        for i in map(ord, spec.act_letter(g1, ord(w))._terms))
    degree, multiply = spec.degrees, spec.group.multiply
    graded = all(degree[ord(u)] == degree[j] for images in spec.action
                 for j, image in enumerate(images) for u in image._terms) and all(
        degree[ord(u)] == multiply(degree[a], degree[b]) for (a, b), product in spec.mult.items()
        for u in product._terms)
    assert flags == ({True} if graded else {False, True})  # false exactly off the grading
    if name.startswith("random-"):
        assert merged  # two terms met on one letter: the sum merged or cancelled them


@pytest.mark.parametrize("name", SPECS)
def test_letter_images_match_the_reference_composition(name, request):
    spec = _spec(name, request)
    tags = _tags(spec.group)
    for g in tags:
        assert spec.action_matrix(g) == reference_power(spec, g), g
    small = _tags(spec.group, range(-2, 3))
    for g, h in itertools.product(small, repeat=2):
        a, b = spec.action_matrix(g), spec.action_matrix(h)
        got, want = _compose(a, b), reference_compose(a, b)
        assert got == want
        assert [list(image._terms) for image in got] == [list(image._terms) for image in want]
        assert all(image.alphabet is spec for image in got)


# -- star on non-monomial data -----------------------------------------------------------


@pytest.mark.parametrize("text", [JORDAN, SUPER_JORDAN], ids=["jordan", "super-jordan"])
def test_star_matches_the_smash_route_on_the_jordan_planes(text):
    spec = parse_config(text).spec
    assert check_yetter_drinfeld(spec)
    rnd = random.Random(12)

    def key(n):  # a chain word of n letters, right-translated by K{-2} .. K{2}
        word = tuple(rnd.randrange(2) for _ in range(n))
        tag = spec.group.element([rnd.randint(-2, 2)])
        return CotensorElement(spec, {right_translate(spec, chain_lift_word(spec, word), tag):
                                      Scalar.one()})

    for m, n in itertools.product(range(1, 4), repeat=2):
        for _ in range(12):
            x, y = key(m), key(n)
            assert to_smash(star(x, y)) == smash_product(to_smash(x), to_smash(y))

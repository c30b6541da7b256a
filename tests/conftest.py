from __future__ import annotations

import itertools
import os
import random
import sys
from functools import lru_cache

import pytest

import cofreehopf
from cofreehopf.braid import BraidingTable
from cofreehopf.checks import PASS, fail
from cofreehopf.config import ConfigDocument, parse_config
from cofreehopf.cotensor import CotensorElement, SmashElement, chain_lift_word, smash_product, star
from cofreehopf.elements import Element
from cofreehopf.grouphopf import AbelianGroup, GroupElement, YDSpec
from cofreehopf.presets import build_clifford, build_uqg
from cofreehopf.scalars import Scalar


@pytest.fixture(scope="session")
def clifford2():
    return build_clifford(2)


@pytest.fixture(scope="session")
def clifford3():
    return build_clifford(3)


@pytest.fixture(scope="session")
def uqg_a1():
    return build_uqg([[2]])


CARTAN_A2 = ((2, -1), (-1, 2))


@pytest.fixture(scope="session")
def uqg_a2():
    return build_uqg(CARTAN_A2)


def hoffman_spec(n: int) -> YDSpec:
    """The rank-0 config with x_a * x_b = x_{a+b}, truncated above x_n: the
    trivial action induces the flip braiding."""
    lines = ["[group]", "rank = 0", "", "[basis]", *(f"x{a} =" for a in range(1, n + 1)),
             "", "[mult]"]
    lines += [f"x{a} x{b} -> x{a + b}" for a in range(1, n) for b in range(1, n + 1 - a)]
    return parse_config("\n".join(lines) + "\n").spec


@pytest.fixture(scope="session")
def hoffman4():
    return hoffman_spec(4)


PACKAGE = os.path.join(os.path.dirname(cofreehopf.__file__), "")  # with a trailing separator


def executed_lines(call) -> int:
    """The number of package lines that ``call()`` executes: the line events of
    ``sys.settrace`` in frames whose code lies in the package.  An exact work
    count, the same on every run, where a time spreads.  The tracer that was
    set before (a coverage tool's, a debugger's) is restored afterwards."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(PACKAGE) else None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        call()
    finally:
        sys.settrace(previous)
    return count


def letters(word: str) -> tuple[int, ...]:
    """A packed word, as the package holds tensor words, read back as its letters."""
    return tuple(map(ord, word))


def letter_key(letter):
    """The recursive sort key the package once used, kept as the oracle of
    the term order and as the reference order of chain words written out:
    integers, then group elements, then tuples compared letter by letter,
    each letter by this same key."""
    if isinstance(letter, int):
        return (0, letter)
    if type(letter) is tuple:  # a word; a group element is a tuple subclass
        return (3, tuple(letter_key(part) for part in letter))
    if isinstance(letter, GroupElement):
        return (1, (letter.free, letter.torsion))
    return (2, repr(letter))


def chain_word(spec, key) -> tuple:
    """A cotensor key (packed word, right degree) written letter by letter,
    as the canonical order and the chain condition read it: one (letter
    index, group component) pair per letter, each component the degree of
    the next letter times the next component; ("", g) gives ()."""
    word, g = key
    out = []
    for v in reversed(letters(word)):
        out.append((v, g))
        g = spec.group.multiply(spec.degrees[v], g)
    return tuple(reversed(out))


def packed_key(chain: tuple) -> tuple:
    """The key of a chain word written letter by letter: its packed letters
    and its last component."""
    return "".join(chr(v) for v, _ in chain), chain[-1][1]


def reference_module_projection(spec, a, b):
    """The degree-one projection pi1 on a pair of basis keys of degree at most
    one, as degree-1 keys (letter, group element), built through
    ``Element.map_words`` and ``Element.relabel``: the left action on
    (group, letter), the right action on (letter, group), the module
    multiplication in smash form on (letter, letter), zero otherwise.  A
    key of degree 0 is ("", g)."""
    da, db = len(a[0]), len(b[0])
    if da == 0 and db == 1:
        v, g2 = b
        image = spec.act_letter(a[1], ord(v))
        target = spec.group.multiply(a[1], g2)
    elif da == 1 and db == 0:
        v, g1 = a
        return {(v, spec.group.multiply(g1, b[1])): Scalar.one()}
    elif da == 1 and db == 1:
        (v, g1), (w, g2) = a, b
        image = spec.act_letter(g1, ord(w)).map_words(lambda i: spec.mult[(ord(v), ord(i))])
        target = spec.group.multiply(g1, g2)
    else:
        return {}
    return image.relabel(lambda i: (i, target))._terms


def graded_yd_config(seed: int) -> str:
    """The config text of a random YD module algebra over K[Z^r], r = 1 or 2,
    with a nonzero product, built to satisfy every axiom: letters x_a for a
    in a down-closed set D of nonzero a in N^r with |a| <= k, k = 2 or 3, of
    degree K{a}; generator i acts on x_a by q^((S a)_i), and x_a x_b =
    q^(a^T W b) x_{a+b} when a + b lies in D, else 0, for random integer
    matrices S and W.  The twist q^(a^T W b) is bilinear, so the product is
    associative, and D is down-closed, so the two bracketings of a triple
    vanish together; the induced braiding is the bicharacter q^(a^T S b) of
    the grading, with which a graded product is compatible.  x_a is named
    by the digits of a (x1, x2; x10, x01, x11).  Derandomized: one config
    per seed."""
    rnd = random.Random(seed)
    rank, k = rnd.choice((1, 2)), rnd.choice((2, 3, 3))
    S, W = ([[rnd.randint(-2, 2) for _ in range(rank)] for _ in range(rank)] for _ in range(2))
    units = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    cells = sorted((a for a in itertools.product(range(k + 1), repeat=rank) if 1 < sum(a) <= k),
                   key=sum)
    # D: a cell may join once every nonzero cell one step below it has, and the
    # first that may join does, so that some product is nonzero
    down = set(units)
    for a in cells:
        below = [tuple(e - (i == j) for j, e in enumerate(a)) for i in range(rank) if a[i]]
        if all(b in down for b in below if any(b)) and (rnd.random() < 0.6 or len(down) == rank):
            down.add(a)
    letters = sorted(down, key=lambda a: (sum(a), a))

    def name(a):
        return "x" + "".join(map(str, a))

    def dot(a, m, b):
        return sum(a[i] * m[i][j] * b[j] for i in range(rank) for j in range(rank))

    lines = ["[group]", f"rank = {rank}", "", "[basis]",
             *(f"{name(a)} = " + ", ".join(map(str, a)) for a in letters), "", "[action]"]
    lines += [f"g{i + 1} = " + ", ".join(f"q^{dot(units[i], S, a)}" for a in letters)
              for i in range(rank)]
    lines += ["", "[mult]"]
    lines += [f"{name(a)} {name(b)} -> q^{dot(a, W, b)} {name(c)}" for a in letters
              for b in letters if (c := tuple(map(sum, zip(a, b)))) in down]
    return "\n".join(lines) + "\n"


def column_images(*columns):
    """Letter images written as a config's column lines: the image of letter j
    by its coefficients in basis order."""
    return tuple(Element({chr(i): c for i, c in enumerate(column)}) for column in columns)


def assert_frozen(record, fields: tuple[str, ...]) -> None:
    """Assigning or deleting each of ``fields`` raises AttributeError and
    leaves the value as it was."""
    for name in fields:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value, name


def basis_words(dim: int, length: int):
    return list(itertools.product(range(dim), repeat=length))


def words_up_to(dim: int, total: int):
    out = []
    for length in range(total + 1):
        out.extend(basis_words(dim, length))
    return out


def diagonal_braiding(dim: int, exponents, alphabet=None) -> BraidingTable:
    """sigma(v_a, v_b) = q**exponents[a][b] * (v_b, v_a)."""
    return BraidingTable(dim, {
        (a, b): Element.from_word((b, a), Scalar.q_power(exponents[a][b]), alphabet)
        for a in range(dim) for b in range(dim)}, alphabet)


def given_spec(braiding: BraidingTable, mult=None, unit=None, names=None,
               over: YDSpec | None = None) -> YDSpec:
    """Hand-made braided-algebra data: a ``YDSpec`` with ``braiding`` given.
    Over the spec ``over`` it has that spec's group, letters, action and
    product, as a config's [braiding] override has; otherwise it is of
    rank 0 on ``braiding.dim`` letters, named ``names`` (x1, x2, ... by
    default), with the structure constants ``mult`` and the unit letter
    ``unit``.  Its words are tagged with the spec itself."""
    if over is not None:
        return YDSpec(over.group, over.names, over.degrees, over.action, over.mult,
                      braiding=braiding)
    group = AbelianGroup(0)
    if names is None:
        names = tuple(f"x{a + 1}" for a in range(braiding.dim))
    return YDSpec(group, names, (group.identity(),) * len(names), (), mult, unit, braiding)


def override_document(spec, table):
    """The config document of ``spec`` under the [braiding] override ``table``."""
    return ConfigDocument(spec, given_spec(table, over=spec))


# -- permutations and braid lifts, the oracles of the block braiding ---------------
#
# A permutation is a plain tuple in one-line notation, 1-based: w[k-1] is where
# position k goes, and the letter at position k of a word moves to position
# w(k).  ``compose(v, w)`` applies w first.  ``reduced_word(w)`` returns
# generator indices (i_1, ..., i_l) with w = s_{i_1} o ... o s_{i_l} and l the
# inversion count.  The braid lift along a generator word applies the braiding
# at adjacent positions, rightmost generator first; on a Yang-Baxter table it
# does not depend on the reduced word, and on the flip it moves letters as w.


def Permutation(images) -> tuple[int, ...]:
    """The permutation with these images, checked to permute 1..n."""
    images = tuple(images)
    if sorted(images) != list(range(1, len(images) + 1)):
        raise ValueError(f"not a permutation of 1..{len(images)}: {images}")
    return images


def compose(v: tuple, w: tuple) -> tuple:
    return tuple(v[k - 1] for k in w)


def transposition(n: int, i: int) -> tuple:
    images = list(range(1, n + 1))
    images[i - 1], images[i] = images[i], images[i - 1]
    return tuple(images)


def reduced_word(w: tuple) -> tuple[int, ...]:
    """One reduced word for w, built by stripping descents from the right."""
    images, strip = list(w), []
    while True:
        i = next((i for i in range(len(images) - 1) if images[i] > images[i + 1]), None)
        if i is None:
            return tuple(reversed(strip))
        images[i], images[i + 1] = images[i + 1], images[i]
        strip.append(i + 1)


@lru_cache(maxsize=None)
def all_reduced_words(w: tuple) -> tuple[tuple[int, ...], ...]:
    """Every reduced word of w (factorial growth: keep w small)."""
    descents = [i for i in range(1, len(w)) if w[i - 1] > w[i]]
    if not descents:
        return ((),)
    return tuple(prefix + (i,) for i in descents
                 for prefix in all_reduced_words(compose(w, transposition(len(w), i))))


def block_rotation(i: int, j: int) -> tuple:
    """Positions 1..i go to j+1..j+i, and i+1..i+j to 1..j."""
    return tuple(range(j + 1, j + i + 1)) + tuple(range(1, j + 1))


def braid_lift_word(table: BraidingTable, generators: tuple[int, ...], x: Element) -> Element:
    """Apply an explicit generator word, rightmost generator first."""
    for i in reversed(generators):
        x = table.apply(x, i)
    return x


# -- the relations each preset family is built to satisfy ---------------------------


def _routes(spec):
    """The two product routes of a relation check, by law-name suffix:
    ``star`` on chain-lifted letters, ``smash_product`` on smash letters."""
    return (
        ("", lambda v: CotensorElement.from_word(spec, chain_lift_word(spec, (v,))), star),
        ("-smash", lambda v: SmashElement.of(spec, (v,)), smash_product),
    )


def check_clifford_relations(preset, n):
    """Anticommutators of the n generator letters equal the bracket letters,
    along both product routes, plus the group-conjugation sign rule."""
    spec = preset.spec
    index_of = spec.letter
    eps = spec.group.element([1])
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            for suffix, letter, product in _routes(spec):
                vi, vj = letter(index_of(f"v{i}")), letter(index_of(f"v{j}"))
                got = product(vi, vj) + product(vj, vi)
                expected = letter(index_of(f"xi{i}{j}"))
                if got != expected:
                    return fail("clifford-anticommutator" + suffix, (i, j), got, expected)
    for i in range(1, n + 1):
        vi, xii = index_of(f"v{i}"), index_of(f"xi{i}{i}")
        lhs = smash_product(SmashElement.of(spec, (), eps), SmashElement.of(spec, (vi,)))
        rhs = SmashElement.of(spec, (vi,), eps).scale(-1)
        if lhs != rhs:
            return fail("clifford-conjugation", i, lhs, rhs)
        fixed = smash_product(SmashElement.of(spec, (), eps), SmashElement.of(spec, (xii,)))
        if fixed != SmashElement.of(spec, (xii,), eps):
            return fail("clifford-conjugation", (i, i), fixed, None)
    return PASS


def check_uqg_relations(preset, cartan):
    """E_i * F_j - q^{-c_ij} F_j * E_i = delta_ij xi_i along both routes,
    and conjugation by the group generators scales E_j by q^{c_ij}, for the
    matrix ``cartan`` the preset was built from."""
    spec = preset.spec
    index_of = spec.letter
    group = spec.group
    n = len(cartan)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            c_ij = cartan[i - 1][j - 1]
            for suffix, letter, product in _routes(spec):
                ei, fj = letter(index_of(f"E{i}")), letter(index_of(f"F{j}"))
                got = product(ei, fj) - product(fj, ei).scale(Scalar.q_power(-c_ij))
                expected = letter(index_of(f"xi{i}")).scale(1 if i == j else 0)
                if got != expected:
                    return fail("uqg-commutator" + suffix, (i, j), got, expected)
    for i in range(1, n + 1):
        k_i = group.generator(i - 1)
        k_inv = group.inverse(k_i)
        for j in range(1, n + 1):
            ej = index_of(f"E{j}")
            conj = smash_product(
                smash_product(SmashElement.of(spec, (), k_i), SmashElement.of(spec, (ej,))),
                SmashElement.of(spec, (), k_inv))
            expected = SmashElement.of(spec, (ej,)).scale(Scalar.q_power(cartan[i - 1][j - 1]))
            if conj != expected:
                return fail("uqg-conjugation", (i, j), conj, expected)
    return PASS

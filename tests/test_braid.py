from __future__ import annotations

import itertools
import random

import pytest

from cofreehopf.braid import BraidingTable, block_braiding, check_yang_baxter, flip_braiding
from cofreehopf.elements import Element
from cofreehopf.errors import StructuralError
from cofreehopf.scalars import Scalar

from conftest import (
    Permutation,
    all_reduced_words,
    block_rotation,
    braid_lift_word,
    compose,
    diagonal_braiding,
    reduced_word,
    transposition,
)

# The permutations, reduced words and braid lifts of conftest are the oracles
# of ``block_braiding`` and of acceptance criterion 05; these tests pin them.


def identity_permutation(n: int) -> tuple:
    return tuple(range(1, n + 1))


def inversions(w: tuple) -> int:
    return sum(1 for a in range(len(w)) for b in range(a + 1, len(w)) if w[a] > w[b])


def act_on_word(w: tuple, word: tuple) -> tuple:
    """Move the letter at position k to position w(k)."""
    out = [None] * len(w)
    for k, letter in enumerate(word, start=1):
        out[w[k - 1] - 1] = letter
    return tuple(out)


def test_block_rotation_values():
    assert block_rotation(1, 1) == (2, 1)
    assert block_rotation(2, 1) == (2, 3, 1)
    assert block_rotation(0, 3) == (1, 2, 3)
    assert block_rotation(3, 0) == (1, 2, 3)
    with pytest.raises(ValueError):
        Permutation((1, 1))


def test_block_rotation_inversions():
    for i in range(4):
        for j in range(4):
            if i + j == 0:
                continue
            assert inversions(block_rotation(i, j)) == i * j


def test_reduced_word_identity_and_transposition():
    assert reduced_word(identity_permutation(3)) == ()
    assert reduced_word(Permutation((2, 1))) == (1,)
    assert len(reduced_word(block_rotation(2, 1))) == 2


def test_reduced_word_reconstructs_all_of_s4():
    for images in itertools.permutations(range(1, 5)):
        w = Permutation(images)
        word = reduced_word(w)
        assert len(word) == inversions(w)
        prod = identity_permutation(4)
        for i in word:
            prod = compose(prod, transposition(4, i))
        assert prod == w


def test_all_reduced_words_are_reduced_and_complete():
    w0 = Permutation((4, 3, 2, 1))
    words = all_reduced_words(w0)
    assert len(words) == 16  # standard count for the longest element
    for word in words:
        assert len(word) == 6
        prod = identity_permutation(4)
        for i in word:
            prod = compose(prod, transposition(4, i))
        assert prod == w0


def test_flip_braiding_passes_yang_baxter():
    assert check_yang_baxter(flip_braiding(3))


def _diagonal_expected(h, word):
    # Independent oracle: both hexagon sides of a diagonal braiding send
    # (a, b, c) to q**(h[a][b] + h[a][c] + h[b][c]) times the reversal.
    a, b, c = word
    exponent = h[a][b] + h[a][c] + h[b][c]
    return Element.from_word((c, b, a), Scalar.q_power(exponent))


def test_diagonal_braiding_yang_baxter_with_oracle():
    rnd = random.Random(4)
    for _ in range(5):
        dim = rnd.randint(2, 3)
        h = [[rnd.randint(-2, 2) for _ in range(dim)] for _ in range(dim)]
        table = diagonal_braiding(dim, h)
        assert check_yang_baxter(table)
        for word in itertools.product(range(dim), repeat=3):
            x = Element.from_word(word)
            lhs = table.apply(table.apply(table.apply(x, 1), 2), 1)
            assert lhs == _diagonal_expected(h, word)


def test_scaling_one_flip_entry_stays_diagonal_type_and_passes():
    # Rescaling sigma(a, b) keeps the braiding diagonal-type, and every
    # diagonal-type table satisfies the hexagon identity; the brute-force
    # checker confirms that this corruption is NOT a counterexample.
    entries = dict(flip_braiding(2).entries)
    entries[(0, 1)] = Element.from_word((1, 0), 2)
    table = BraidingTable(2, entries)
    assert check_yang_baxter(table)


def test_identity_term_corruption_fails_with_counterexample():
    entries = dict(flip_braiding(2).entries)
    entries[(0, 1)] = Element.from_word((1, 0)) + Element.from_word((0, 1))
    table = BraidingTable(2, entries)
    result = check_yang_baxter(table)
    assert not result
    assert 0 in result.witness and 1 in result.witness
    assert result.lhs != result.rhs


def test_braiding_table_validation():
    with pytest.raises(StructuralError):
        BraidingTable(2, {(0, 0): Element.from_word((0, 0))})
    # non-invertible: two inputs collapse onto one output
    entries = dict(flip_braiding(2).entries)
    entries[(0, 1)] = Element.from_word((0, 1))
    entries[(1, 0)] = Element.from_word((0, 1))
    with pytest.raises(StructuralError):
        BraidingTable(2, entries)
    # every size is checked: nine letters, V tensor V of dimension 81
    big = {(a, b): Element.from_word((b, a)) for a in range(9) for b in range(9)}
    BraidingTable(9, big)
    # and singular there: (0, 1) and (1, 0) go to one two-term vector
    twice = Element.from_word((0, 1)) + Element.from_word((1, 0), Scalar.q_power(1))
    big[(0, 1)] = big[(1, 0)] = twice
    with pytest.raises(StructuralError, match="not invertible on V tensor V"):
        BraidingTable(9, big)


def test_braid_lift_matches_position_action_for_flip():
    for n in (2, 3, 4, 5):
        table = flip_braiding(2)
        count = 8 if n < 5 else 3
        words = list(itertools.product(range(2), repeat=n))[:count]
        for w in itertools.permutations(range(1, n + 1)):
            for word in words:
                lifted = braid_lift_word(table, reduced_word(w), Element.from_word(word))
                assert lifted == Element.from_word(act_on_word(w, word))


def test_braid_lift_identity_and_single_generator():
    table = diagonal_braiding(2, [[1, 2], [3, 4]])
    x = Element.from_word((0, 1))
    assert braid_lift_word(table, reduced_word(identity_permutation(2)), x) == x
    lifted = braid_lift_word(table, reduced_word(Permutation((2, 1))), x)
    assert lifted == Element.from_word((1, 0), Scalar.q_power(2))


def test_braid_lift_applies_the_rightmost_generator_first():
    # on the flip, the lift along s1 s2 moves letters as the composite s1 o s2
    table = flip_braiding(3)
    x = Element.from_word((0, 1, 2))
    s1, s2 = transposition(3, 1), transposition(3, 2)
    lifted = braid_lift_word(table, (1, 2), x)
    assert lifted == Element.from_word(act_on_word(compose(s1, s2), (0, 1, 2)))
    assert lifted == Element.from_word((2, 0, 1))
    assert braid_lift_word(table, (2, 1), x) == Element.from_word((1, 2, 0))


def test_compose_applies_its_right_argument_first():
    v, w = Permutation((2, 3, 1)), Permutation((2, 1, 3))
    assert compose(v, w) == (3, 2, 1)
    assert compose(w, v) == (1, 3, 2)
    for u in itertools.permutations(range(1, 4)):
        assert compose(u, identity_permutation(3)) == u == compose(identity_permutation(3), u)
        assert compose(u, compose(v, w)) == compose(compose(u, v), w)
    for i in (1, 2):
        assert compose(transposition(3, i), transposition(3, i)) == identity_permutation(3)


def test_reduced_word_independence_on_s4():
    h = [[1, -2], [0, 1]]
    table = diagonal_braiding(2, h)
    assert check_yang_baxter(table)
    words = list(itertools.product(range(2), repeat=4))
    for images in itertools.permutations(range(1, 5)):
        w = Permutation(images)
        for word in words[:6]:
            x = Element.from_word(word)
            outcomes = {tuple(sorted(braid_lift_word(table, rw, x)._terms.items()))
                        for rw in all_reduced_words(w)}
            assert len(outcomes) == 1


def test_block_braiding_examples():
    table = flip_braiding(3)
    x = Element.from_word((0, 1, 2))
    assert block_braiding(table, 2, 1, x) == Element.from_word((2, 0, 1))
    assert block_braiding(table, 0, 3, x) == x
    assert block_braiding(table, 3, 0, x) == x
    pair = Element.from_word((0, 1))
    assert block_braiding(table, 1, 1, pair) == table.apply(pair)
    for i, j in ((1, 1), (3, 1), (0, 2)):
        with pytest.raises(StructuralError):
            block_braiding(table, i, j, x)


def test_block_braiding_follows_the_reduced_word_of_the_block_rotation():
    # A generic table (invertible, not Yang-Baxter, non-monomial entries)
    # tells apart generator words that a flip or diagonal braiding would
    # confuse.  Block rotations are 321-avoiding, so every reduced word of
    # theirs gives the same operator even here.
    q = Scalar.q_power(1)
    table = BraidingTable(2, {
        (0, 0): Element.from_word((0, 0), q),
        (0, 1): Element.from_word((1, 0)) + Element.from_word((0, 1)),
        (1, 0): Element.from_word((0, 1)) + Element.from_word((1, 0), -q),
        (1, 1): Element.from_word((1, 1), Scalar.rational(2)),
    })
    assert not check_yang_baxter(table)
    for i in range(7):
        for j in range(7 - i):
            if i + j == 0:
                continue
            for word in itertools.product(range(2), repeat=i + j):
                x = Element.from_word(word)
                assert block_braiding(table, i, j, x) == braid_lift_word(
                    table, reduced_word(block_rotation(i, j)), x), (i, j, word)


def test_block_braiding_hexagon():
    # beta_{i+j,k} factors as (beta_{i,k} tensor id_j)(id_i tensor beta_{j,k})
    h = [[1, 0], [2, -1]]
    table = diagonal_braiding(2, h)
    for i, j, k in [(1, 1, 1), (1, 1, 2), (2, 1, 1), (1, 2, 1)]:
        for word in itertools.product(range(2), repeat=i + j + k):
            x = Element.from_word(word)
            inner = _apply_on_suffix(table, j, k, x, offset=i)
            two_step = _apply_on_prefix(table, i, k, inner, tail=j)
            assert two_step == block_braiding(table, i + j, k, x)


def _apply_on_suffix(table, j, k, x, offset):
    """id^offset tensor block_braiding(j, k)."""
    out = Element.zero(x.alphabet)
    for word, c in x._terms.items():
        head, tail = word[:offset], word[offset:]
        moved = block_braiding(table, j, k, Element.from_word(tail))
        for w2, c2 in moved._terms.items():
            out = out + Element.from_word(head + w2, c * c2)
    return out


def _apply_on_prefix(table, i, k, x, tail):
    """block_braiding(i, k) tensor id^tail."""
    out = Element.zero(x.alphabet)
    for word, c in x._terms.items():
        head, rest = word[:i + k], word[i + k:]
        assert len(rest) == tail
        moved = block_braiding(table, i, k, Element.from_word(head))
        for w2, c2 in moved._terms.items():
            out = out + Element.from_word(w2 + rest, c * c2)
    return out

from __future__ import annotations

import itertools

import pytest

from cofreehopf.braid import flip_braiding
from cofreehopf.elements import Element
from cofreehopf.presets import build_clifford, build_uqg
from cofreehopf.qalg import BraidedAlgebraSpec


@pytest.fixture(scope="session")
def clifford2():
    return build_clifford(2)


@pytest.fixture(scope="session")
def clifford3():
    return build_clifford(3)


@pytest.fixture(scope="session")
def uqg_a1():
    return build_uqg([[2]])


@pytest.fixture(scope="session")
def uqg_a2():
    return build_uqg([[2, -1], [-1, 2]])


def hoffman_spec(n: int) -> BraidedAlgebraSpec:
    """Flip braiding with x_a * x_b = x_{a+b}, truncated above x_n."""
    alphabet = ("hoffman", n)
    mult = {}
    for i in range(n):
        for j in range(n):
            k = i + j + 1
            if k < n:
                mult[(i, j)] = Element.from_word((k,), alphabet=alphabet)
    names = tuple(f"x{i + 1}" for i in range(n))
    return BraidedAlgebraSpec(n, flip_braiding(n, alphabet), mult,
                              names=names, alphabet=alphabet)


@pytest.fixture(scope="session")
def hoffman4():
    return hoffman_spec(4)


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

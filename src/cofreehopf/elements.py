"""The one sparse linear combination: finitely many basis keys with nonzero scalars.

Every space of the package is a free vector space on a basis of keys,
and :class:`Element` is the combination over any of them.  The key kinds:

* the tensor algebra T(V): a word, held packed as a ``str`` of one code
  point per letter, ``chr(letter)`` for a letter index, so a word hashes
  once and a concatenation copies characters.  :func:`pack_word` packs a
  tuple of letters, and ``tuple(map(ord, word))`` reads one back.  A
  pair of words (u, v) is the key of the tensor square;
* the cotensor coalgebra on V tensor K[G] (:class:`CotensorElement`):
  a chain word held as its smash key, (packed word, right degree), the
  right degree fixing every other group component, and ("", g) in
  degree 0;
* the smash product T(V) # K[G] (:class:`SmashElement`): a pair
  (packed word, group element), the same key;
* the coproduct of the cotensor coalgebra: a pair of cotensor keys.

Every structure of the package is given on basis keys and extended to
combinations here, and nowhere else: :meth:`Element.map_words` extends a
rule from a key to a combination linearly, :meth:`Element.bilinear` a
rule from a pair of keys to a combination bilinearly, and
:meth:`Element.rekey` / :meth:`Element.relabel` a rule from a key to keys
with coefficient 1.  Each builds its result in one dict.

Canonical form (no zero coefficients) holds after every operation.  The
``alphabet`` tag names the basis declaration the keys refer to: an
arbitrary hashable for plain words (``None`` combines with any tag), the
module data for cotensor and smash elements (read as ``spec``).  Adding
or comparing two elements needs the same class; adding them under
different tags is a structural error, and such elements are never equal.

There is one canonical term order: group elements (by free, then
torsion exponents) before tuples, and words compared letter by letter, a
word before its extensions.  No element mixes key kinds, so the keys of
one element sort by themselves in that order: a packed word compares
code point by code point, which is that order on its letters, a smash
key by word, then group tag, and a pair of words, or a (group element,
word) pair, by its first part, then its second.  A cotensor key is a
packed word with its right degree, which does not compare as its chain
word written out, letter by letter, each letter (index, group
component); ``cotensor.ChainWalk.order`` gives the order of the chain
words, ("", g) first and a pair of keys by its left key, then its right
key, and cotensor elements and their coproducts sort by it (``support``
and ``terms`` take a sort key as ``order``).  This is the order the CLI
renders and the golden tests freeze.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .errors import StructuralError
from .scalars import _ONE, Scalar, split_sign

Word = str


def pack_word(word) -> str:
    """A word of letter indices as a ``str`` of one code point per letter,
    through the Latin-1 codec, nearly twice as fast, when it can; a ``str``
    is a packed word already."""
    if type(word) is str:
        return word
    try:
        return bytes(word).decode("latin-1")
    except ValueError:  # a letter of 256 or more
        return "".join(map(chr, word))


def merge_alphabets(a, b):
    if a is None:
        return b
    if b is None or a is b or a == b:
        return a
    raise StructuralError(f"alphabet mismatch: {a!r} vs {b!r}")


def _pair_alphabet(alphabet):  # the tag of pairs of words over alphabet (the deconcatenation's)
    return ("tensor2", alphabet)


def accumulate(out: dict, key, c: Scalar) -> None:
    """Add ``c`` to ``out[key]``, dropping the key when the sum's term dict is empty."""
    s = out.get(key)
    s = c if s is None else s + c
    if not s._terms:
        out.pop(key, None)
    else:
        out[key] = s


class Element:
    """A finite scalar combination of basis keys over one alphabet."""

    __slots__ = ("_terms", "alphabet")

    def __init__(self, terms: Mapping | None = None, alphabet=None):
        canon: dict = {}
        if terms:
            for key, c in terms.items():
                c = Scalar.coerce(c)
                if not c.is_zero():
                    canon[key] = c
        self._terms = canon
        self.alphabet = alphabet

    @classmethod
    def _wrap(cls, terms: dict, alphabet):
        """An instance around ``terms``, which must already be canonical."""
        res = cls.__new__(cls)
        res._terms = terms
        res.alphabet = alphabet
        return res

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, alphabet=None):
        return cls._wrap({}, alphabet)

    @classmethod
    def from_word(cls, word, coeff: Scalar | int | Fraction = 1, alphabet=None) -> Element:
        """One word, packed by :func:`pack_word`, with coefficient ``coeff``."""
        return cls({pack_word(word): Scalar.coerce(coeff)}, alphabet)

    @classmethod
    def unit(cls, alphabet=None) -> Element:
        """The empty word with coefficient 1."""
        return cls({"": Scalar.one()}, alphabet)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def support(self, order=None) -> list:
        """The keys sorted by ``order``, by default by themselves."""
        return sorted(self._terms, key=order)

    def terms(self, order=None) -> Iterable[tuple[object, Scalar]]:
        """Term iteration in canonical order, sorted by ``order`` when given."""
        for key in self.support(order):
            yield key, self._terms[key]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        if type(other) is not type(self) or self._terms != other._terms:
            return False
        try:
            merge_alphabets(self.alphabet, other.alphabet)
        except StructuralError:
            return False
        return True

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._terms!r})"

    # -- linear operations --------------------------------------------------

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        alphabet = merge_alphabets(self.alphabet, other.alphabet)
        out = dict(self._terms)
        for key, c in other._terms.items():
            accumulate(out, key, c)
        return self._wrap(out, alphabet)

    def __neg__(self):
        return self._wrap({key: -c for key, c in self._terms.items()}, self.alphabet)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, factor: Scalar | int | Fraction):
        factor = Scalar.coerce(factor)
        if not factor._terms:
            return self.zero(self.alphabet)
        if factor is _ONE:
            return self
        return self._wrap({key: c * factor for key, c in self._terms.items()}, self.alphabet)

    def tensor(self, other: Element) -> Element:
        alphabet = merge_alphabets(self.alphabet, other.alphabet)
        out: dict[Word, Scalar] = {}
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                accumulate(out, w1 + w2, c1 * c2)
        return Element._wrap(out, alphabet)

    # -- linear extension of basis-level rules --------------------------------
    # The result is of class ``cls`` over ``alphabet``; both default to those
    # of ``self`` (for ``bilinear``, the alphabet both factors share).

    def map_words(self, image: Callable[[object], Element], *, cls=None, alphabet=None):
        """Linear extension of a rule ``image(key) -> Element``."""
        out = _extend((c, image(key)) for key, c in self._terms.items())
        return (cls or type(self))._wrap(out, self.alphabet if alphabet is None else alphabet)

    def bilinear(self, other: Element, product: Callable[[object, object], Element],
                 *, cls=None, alphabet=None):
        """Bilinear extension of a rule ``product(key, other_key) -> Element``."""
        if alphabet is None:
            alphabet = merge_alphabets(self.alphabet, other.alphabet)
        out = _extend((c * d, product(k, l)) for k, c in self._terms.items()
                      for l, d in other._terms.items())
        return (cls or type(self))._wrap(out, alphabet)

    def rekey(self, keys_of: Callable[[object], Iterable], *, cls=None, alphabet=None):
        """Linear extension of a rule sending a key to keys, each with coefficient 1."""
        out: dict = {}
        for key, c in self._terms.items():
            for new in keys_of(key):
                accumulate(out, new, c)
        return (cls or type(self))._wrap(out, self.alphabet if alphabet is None else alphabet)

    def relabel(self, key_of: Callable[[object], object], *, cls=None, alphabet=None):
        """Linear extension of a one-to-one rule from keys to keys: nothing
        merges, so nothing is accumulated.  Raises ``StructuralError`` when
        the rule sends two keys of ``self`` to one key."""
        out = {key_of(key): c for key, c in self._terms.items()}
        if len(out) < len(self._terms):
            raise StructuralError("relabel merged two keys: the rule is not one-to-one")
        return (cls or type(self))._wrap(out, self.alphabet if alphabet is None else alphabet)


def _extend(images) -> dict:
    """Sum ``c * image`` over ``(c, image)`` pairs; a coefficient of 1, the
    one interned unit, multiplies nothing.  Into an empty sum the terms
    go as they are: a product of two nonzero scalars is nonzero."""
    out: dict = {}
    for c, image in images:
        unit = c is _ONE
        if not out:
            out = dict(image._terms) if unit else {k: d * c for k, d in image._terms.items()}
        else:
            for key, d in image._terms.items():
                accumulate(out, key, d if unit else d * c)
    return out


def apply_local(table: Mapping, pos: int, x: Element) -> Element:
    """Rewrite the letters at positions (pos, pos+1), 1-based, of every word.

    ``table`` maps ordered pairs of letter indices to Elements over
    packed words, and a word's letters are read by ``ord``; values may
    have any word length (length 2 keeps words the same size, length 1
    merges two letters into one, a zero value drops the term).  Letters after
    pos+1 are carried along untouched, which lets a caller tag each word
    with a trailing letter that no rewrite reads.  The sum is built
    inline, and a coefficient of 1 multiplies nothing.
    """
    if pos < 1:
        raise StructuralError(f"position must be >= 1, got {pos}")
    out: dict[Word, Scalar] = {}
    get, i, j = table.get, pos - 1, pos + 1
    for word, c in x._terms.items():
        try:
            pair = (ord(word[i]), ord(word[pos]))
        except IndexError:
            raise StructuralError(
                f"position {pos} out of range for word of length {len(word)}") from None
        entry = get(pair)
        if entry is None:
            raise StructuralError(f"no table entry for letter pair {pair!r}")
        for mid, c2 in entry._terms.items():
            key = word[:i] + mid + word[j:]
            if c is not _ONE:
                c2 = c * c2
            s = out.get(key)
            if s is None:
                out[key] = c2
            elif (s := s + c2)._terms:
                out[key] = s
            else:
                del out[key]
    return Element._wrap(out, x.alphabet)


def letter_table(entries: Mapping, dim: int, alphabet) -> dict:
    """The total multiplication table on letters 0..dim-1 over ``alphabet``:
    ``entries`` copied, zero at every pair it does not give.  Each key of
    ``entries`` must be a pair of letters and each value a combination of
    letters; no entries at all is the zero multiplication."""
    zero = Element.zero(alphabet)
    table = {(a, b): zero for a in range(dim) for b in range(dim)}
    for pair, value in entries.items():
        if not (isinstance(pair, tuple) and len(pair) == 2
                and all(isinstance(l, int) and 0 <= l < dim for l in pair)):
            raise StructuralError(f"mult entry key {pair!r} is not a pair of letters")
        table[pair] = letters_over(value, dim, alphabet, f"mult entry for {pair}")
    return table


def letters_over(value: Element, dim: int, alphabet, what: str) -> Element:
    """A copy of ``value`` tagged with ``alphabet``, which must be a combination
    of the letters 0..dim-1, each a packed one-letter word; ``what`` names it
    in the error."""
    if not isinstance(value, Element) or any(
            type(word) is not str or len(word) != 1 or ord(word) >= dim for word in value._terms):
        raise StructuralError(f"{what} must be a combination of letters")
    return Element._wrap(dict(value._terms), alphabet)


MINUS = "−"  # canonical term separator uses the minus-sign character


def render_terms(x: Element, key_text: Callable, order=None) -> str:
    """Canonical text form: terms in canonical order (sorted by ``order``
    when given) joined by + / minus.

    A coefficient of 1 is omitted; a pure sign is folded into the join;
    any other coefficient is rendered as a grammar atom followed by a
    space.  A key with empty text (the empty word) renders as its
    coefficient alone.
    """
    if x.is_zero():
        return "0"
    chunks: list[str] = []
    for key, coeff in x.terms(order):
        neg, atom = split_sign(coeff)
        body = key_text(key)
        if not body:
            body = atom
        elif atom != "1":
            body = atom + " " + body
        if chunks:
            chunks.append((f" {MINUS} " if neg else " + ") + body)
        else:
            chunks.append((MINUS if neg else "") + body)
    return "".join(chunks)


def render_element(x: Element, letter_text: Callable = str) -> str:
    return render_terms(x, lambda word: "@".join(letter_text(letter) for letter in word))

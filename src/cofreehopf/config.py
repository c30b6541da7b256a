"""Sectioned text configs describing a module algebra over a group algebra.

A document has four sections plus an optional override:

    [group]     rank = <int>, torsion = <comma list of orders >= 2>
    [basis]     one line per letter: name = <degree exponent vector>
    [action]    per generator g1..gk, the images of the letters: a
                diagonal line ``g1 = c, c, ...`` scaling each letter, or
                column lines ``g1.<letter> = c, c, ...`` giving the image
                of that letter by its coefficients in basis order
    [mult]      structure-constant lines ``a b -> element``
    [braiding]  optional direct table ``a b -> element`` overriding the
                induced braiding

Lines may carry ``#`` comments.  Scalars use the expression grammar.
Letter names are identifiers of the expression grammar.  A malformed
list reports the expression parser's message and column.  A repeated
[group] key, a second value for ``rank``, an action line that gives a
column already given and a generator with no action line are errors
(over no letters the line is ``g1 =``).  Torsion exponents out of
range are normalized with a note, not an error.  Loading performs
structural validation only (declared letters, shapes, invertibility of
tables); the mathematical axiom checkers are exposed as commands so
that their failures are reportable.

A loaded document (:class:`ConfigDocument`) is the spec itself: the
module algebra as a :class:`YDSpec` (``doc.spec``), the braided algebra
of a [braiding] override (``None`` without one), and the loading notes.
The override is a second ``YDSpec`` over the same group, letters, action
and [mult], with the checked table given as its braiding.
``doc.braided()`` is the braided algebra the quasi-shuffle runs on: the
override when there is one, else ``doc.spec`` itself, whose braiding is
the induced one.
Emission reads the same objects back out, so a document written by
:func:`emit_config` parses to the same data and emits the same text.
"""

from __future__ import annotations

from functools import partial

from .elements import Element, accumulate, pack_word, render_element
from .errors import ConfigError, Frozen, StructuralError
from .expr import ParsedElement, parse_element_text, parse_int_list, parse_scalar_list, tokenize
from .grouphopf import AbelianGroup, GroupElement, YDSpec, diagonal_images
from .scalars import Scalar, split_sign
from .cotensor import (CotensorElement, SmashElement, chain_lift_word, check_chain_condition,
                       render_letter)

_SECTIONS = ("group", "basis", "action", "mult", "braiding")
_RESERVED = ("q", "K")


class ConfigDocument(Frozen):
    """A loaded config: its module algebra, the braided algebra of its
    [braiding] override (``None`` without one), and the loading notes.  A
    spec with a unit letter has no document: the format cannot name the
    letter, so the document would lose it."""

    _fields = ("spec", "override", "notes")

    def __init__(self, spec: YDSpec, override: YDSpec | None = None,
                 notes: tuple[str, ...] = ()):
        if spec.unit is not None:
            raise StructuralError("a spec with a unit letter has no config document")
        self._set(spec=spec, override=override, notes=notes)

    def braided(self) -> YDSpec:
        """The braided algebra of the document: the override, or else the
        module algebra itself, with the braiding it induces."""
        return self.spec if self.override is None else self.override


def _split_sections(text: str) -> dict[str, list[tuple[int, str]]]:
    sections: dict[str, list[tuple[int, str]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError("malformed section header", lineno)
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ConfigError(f"unknown section [{name}]", lineno)
            if name in sections:
                raise ConfigError(f"duplicate section [{name}]", lineno)
            sections[name] = []
            current = name
            continue
        if current is None:
            raise ConfigError("content before the first section", lineno)
        sections[current].append((lineno, line))
    return sections


def _parse_keyvalue(line: str, lineno: int) -> tuple[str, str]:
    if "=" not in line:
        raise ConfigError("expected 'key = value'", lineno)
    key, value = line.split("=", 1)
    return key.strip(), value.strip()


def parse_config(text: str) -> ConfigDocument:
    sections = _split_sections(text)
    if "group" not in sections:
        raise ConfigError("missing [group] section")
    if "basis" not in sections:
        raise ConfigError("missing [basis] section")

    values: dict[str, list[int]] = {}
    for lineno, line in sections["group"]:
        key, value = _parse_keyvalue(line, lineno)
        if key not in ("rank", "torsion"):
            raise ConfigError(f"unknown [group] key {key!r}", lineno)
        if key in values:
            raise ConfigError(f"duplicate [group] key {key!r}", lineno)
        values[key] = parse_int_list(value, lineno)
        if key == "rank" and len(values[key]) > 1:
            raise ConfigError("rank takes one integer", lineno)
    try:
        # an empty rank reads as 0
        group = AbelianGroup(sum(values.get("rank", ())), tuple(values.get("torsion", ())))
    except StructuralError as exc:
        raise ConfigError(str(exc)) from exc

    notes: list[str] = []
    names: list[str] = []
    degrees: list[GroupElement] = []
    for lineno, line in sections["basis"]:
        key, value = _parse_keyvalue(line, lineno)
        if key in _RESERVED:
            raise ConfigError(f"letter name {key!r} is reserved", lineno)
        if [tok.kind for tok in tokenize(key, lineno)] != ["IDENT", "END"]:
            raise ConfigError(f"letter name {key!r} is not an identifier", lineno)
        if key in names:
            raise ConfigError(f"duplicate letter {key!r}", lineno)
        exps = parse_int_list(value, lineno)
        if len(exps) != group.n_generators:
            raise ConfigError(
                f"degree vector needs {group.n_generators} exponents", lineno)
        element = group.element(exps)
        if tuple(exps) != element.exponents():
            notes.append(
                f"line {lineno}: torsion exponents normalized to {element.exponents()}")
        names.append(key)
        degrees.append(element)
    dim = len(names)
    index = {name: i for i, name in enumerate(names)}

    images: dict[int, dict[int, Element]] = {}  # generator -> letter -> its image
    generator_names = {f"g{k + 1}": k for k in range(group.n_generators)}
    for lineno, line in sections.get("action", []):
        key, value = _parse_keyvalue(line, lineno)
        entries = parse_scalar_list(value, lineno)
        if len(entries) != dim:
            raise ConfigError(f"expected {dim} scalars", lineno)
        gname, column, lname = key.partition(".")
        k = generator_names.get(gname.strip())
        if k is None:
            raise ConfigError(f"unknown generator {gname!r}", lineno)
        if column:
            j = index.get(lname.strip())
            if j is None:
                raise ConfigError(f"unknown letter {lname!r}", lineno)
            given = {j: Element({chr(i): c for i, c in enumerate(entries)})}
        else:  # a diagonal line gives every image
            given = dict(enumerate(diagonal_images(entries)))
        # a diagonal line gives every image, so it repeats any line, also over no letters
        if any(j in images.get(k, ()) for j in given) or (k in images and not column):
            raise ConfigError(f"duplicate action for {key!r}", lineno)
        images.setdefault(k, {}).update(given)  # a generator is given once it has a line
    for k in range(group.n_generators):
        if k not in images:
            raise ConfigError(f"no action given for generator g{k + 1}")
    zero = Element.zero()
    action = tuple(tuple(images[k].get(j, zero) for j in range(dim))
                   for k in range(group.n_generators))

    mult = _parse_rules(sections.get("mult", []), index, 1, "mult")
    braiding = None
    if "braiding" in sections:
        braiding = _parse_rules(sections["braiding"], index, 2, "braiding")
    # structural validation happens on construction
    spec = YDSpec(group, tuple(names), tuple(degrees), action, mult)
    override = None
    if braiding is not None:
        from .braid import BraidingTable
        try:  # the entries were parsed before the spec existed: tag them with it
            table = BraidingTable(dim, {pair: Element(value._terms, spec)
                                        for pair, value in braiding.items()}, alphabet=spec)
        except StructuralError as exc:
            raise ConfigError(f"braiding override: {exc}") from exc
        override = YDSpec(group, spec.names, spec.degrees, spec.action, mult, braiding=table)
    return ConfigDocument(spec, override, tuple(notes))


def _parse_rules(lines, index: dict[str, int], length: int, section: str) -> dict:
    """The ``a b -> element`` lines of a section, by letter pair; each
    element a combination of words of ``length`` letters."""
    rules: dict[tuple[int, int], Element] = {}
    for lineno, line in lines:
        pair, value = _parse_rule(line, lineno, index, length)
        if pair in rules:
            raise ConfigError(f"duplicate {section} entry for {pair}", lineno)
        rules[pair] = value
    return rules


def _parse_rule(line: str, lineno: int, index: dict[str, int], length: int):
    if "->" not in line:
        raise ConfigError("expected 'a b -> element'", lineno)
    lhs, rhs = line.split("->", 1)
    parts = lhs.split()
    if len(parts) != 2:
        raise ConfigError("left side must name two letters", lineno)
    try:
        pair = (index[parts[0]], index[parts[1]])
    except KeyError as exc:
        raise ConfigError(f"unknown letter {exc.args[0]!r}", lineno) from None
    parsed = parse_element_text(rhs.strip(), lineno)
    terms: dict[tuple, Scalar] = {}
    for coeff, letters in parsed:
        if not letters:
            if not coeff.is_zero():
                raise ConfigError("scalar terms are not allowed here", lineno)
            continue
        word = []
        for letter in letters:
            if letter[0] != "L" or letter[2] is not None:
                raise ConfigError("only bare letters are allowed here", lineno)
            if letter[1] not in index:
                raise ConfigError(f"unknown letter {letter[1]!r}", lineno)
            word.append(index[letter[1]])
        if len(word) != length:
            raise ConfigError(f"words here must have length {length}", lineno)
        accumulate(terms, pack_word(word), coeff)
    return pair, Element._wrap(terms, None)


# -- emission -------------------------------------------------------------------


def _entry(image: Element, i: int) -> str:
    """The coefficient of letter i in ``image``, as a signed atom."""
    neg, atom = split_sign(image._terms.get(chr(i), Scalar.zero()))
    return ("-" + atom) if neg else atom


def _rule_line(spec: YDSpec, pair: tuple[int, int], value: Element) -> str:
    left, right = (spec.names[i] for i in pair)
    return f"{left} {right} -> {render_element(value, partial(render_letter, spec))}"


def emit_config(doc: ConfigDocument) -> str:
    spec = doc.spec
    lines = ["[group]", f"rank = {spec.group.rank}"]
    if spec.group.torsion:
        lines.append("torsion = " + ", ".join(str(m) for m in spec.group.torsion))
    lines += ["", "[basis]"]
    for name, degree in zip(spec.names, spec.degrees):
        lines.append(f"{name} = " + ", ".join(str(e) for e in degree.exponents()))
    if spec.group.n_generators:
        lines += ["", "[action]"]
        for k, images in enumerate(spec.action):
            if all(word == chr(j) for j, image in enumerate(images) for word in image._terms):
                lines.append(f"g{k + 1} = " + ", ".join(
                    _entry(image, j) for j, image in enumerate(images)))
            else:
                for name, image in zip(spec.names, images):
                    lines.append(f"g{k + 1}.{name} = " + ", ".join(
                        _entry(image, i) for i in range(spec.dim)))
    mult = {pair: value for pair, value in spec.mult.items() if value}
    if mult:
        lines += ["", "[mult]"]
        lines += [_rule_line(spec, pair, mult[pair]) for pair in sorted(mult)]
    if doc.override is not None:
        entries = doc.override.braiding.entries
        lines += ["", "[braiding]"]
        lines += [_rule_line(spec, pair, entries[pair]) for pair in sorted(entries)]
    return "\n".join(lines) + "\n"


# -- binding parsed expressions against a spec -----------------------------------


def bind_group_element(spec: YDSpec, ref) -> GroupElement:
    group = spec.group
    if isinstance(ref, str):
        if ref == "e":
            return group.identity()
        if ref.startswith("g") and ref[1:].isdecimal():
            k = int(ref[1:]) - 1
            if 0 <= k < group.n_generators:
                return group.generator(k)
        raise ConfigError(f"unknown group element name {ref!r}")
    if len(ref) != group.n_generators:
        raise ConfigError(f"group element needs {group.n_generators} exponents")
    return group.element(ref)


def _bind_terms(cls, spec: YDSpec, parsed: ParsedElement, key_of):
    """The sum of the parsed terms, the letters of each read to one basis key."""
    out: dict = {}
    for coeff, letters in parsed:
        accumulate(out, key_of(letters), coeff)
    return cls._wrap(out, spec)


def _bare_letter(spec: YDSpec, letter, message: str) -> int:
    if letter[0] != "L" or letter[2] is not None:
        raise ConfigError(message)
    return spec.letter(letter[1])


def bind_plain_element(spec: YDSpec, parsed: ParsedElement) -> Element:
    message = "this command takes plain tensor words over the letters"
    return _bind_terms(Element, spec, parsed, lambda letters: pack_word(
        [_bare_letter(spec, letter, message) for letter in letters]))


def bind_cotensor_element(spec: YDSpec, parsed: ParsedElement) -> CotensorElement:
    """Bare words embed through the chain lift, the empty word as ("", e);
    annotated words are taken literally and must satisfy the chain
    condition; a lone group atom g is the degree-0 key ("", g)."""
    def key_of(letters):
        kinds = {letter[0] for letter in letters}
        if kinds == {"G"}:
            if len(letters) != 1:
                raise ConfigError("group elements cannot be tensored here")
            return "", bind_group_element(spec, letters[0][1])
        if kinds - {"L"}:
            raise ConfigError("cannot mix letters and group atoms in one word")
        annotated = [letter[2] is not None for letter in letters]
        if not any(annotated):
            return chain_lift_word(spec, tuple(spec.letter(name) for _, name, _ in letters))
        if all(annotated):
            word = tuple(
                (spec.letter(name), bind_group_element(spec, g))
                for _, name, g in letters)
            result = check_chain_condition(spec, [word])
            if not result:
                raise ConfigError(f"chain condition fails at cut {result.witness[1]}")
            return pack_word([v for v, _ in word]), word[-1][1]
        raise ConfigError("either annotate every letter with a group part or none")

    return _bind_terms(CotensorElement, spec, parsed, key_of)


def bind_smash_element(spec: YDSpec, parsed: ParsedElement) -> SmashElement:
    """Bare letters form the word leg; an optional trailing group atom is
    the group tag (identity when absent)."""
    message = "smash words are bare letters with an optional trailing group atom"

    def key_of(letters):
        tag = spec.group.identity()
        if letters and letters[-1][0] == "G":
            tag = bind_group_element(spec, letters[-1][1])
            letters = letters[:-1]
        return pack_word([_bare_letter(spec, letter, message) for letter in letters]), tag

    return _bind_terms(SmashElement, spec, parsed, key_of)

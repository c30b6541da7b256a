"""Sectioned text configs describing a module algebra over a group algebra.

A document has four sections plus an optional override:

    [group]     rank = <int>, torsion = <comma list of orders >= 2>
    [basis]     one line per letter: name = <degree exponent vector>
    [action]    per generator g1..gk: a diagonal line ``g1 = c, c, ...``
                or column lines ``g1.<letter> = c, c, ...`` giving the
                image of that letter in basis order
    [mult]      structure-constant lines ``a b -> element``
    [braiding]  optional direct table ``a b -> element`` overriding the
                induced braiding

Lines may carry ``#`` comments.  Scalars use the expression grammar.
Torsion exponents out of range are normalized with a note, not an
error.  Loading performs structural validation only (declared letters,
shapes, invertibility of tables); the mathematical axiom checkers are
exposed as commands so that their failures are reportable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .braid import BraidingTable
from .elements import Element, accumulate, render_element
from .errors import ConfigError, StructuralError
from .expr import (
    ParsedElement,
    parse_element_text,
    parse_scalar_text,
    split_top_level_commas,
    tokenize,
)
from .grouphopf import AbelianGroup, GroupElement, YDSpec, braided_spec
from .qalg import BraidedAlgebraSpec
from .scalars import Scalar, split_sign
from .cotensor import CotensorElement, SmashElement, chain_lift_word, chain_violation

_SECTIONS = ("group", "basis", "action", "mult", "braiding")
_RESERVED = ("q", "K")


@dataclass(frozen=True)
class ConfigDocument:
    group: AbelianGroup
    names: tuple[str, ...]
    degrees: tuple[GroupElement, ...]
    action: tuple[tuple[tuple[Scalar, ...], ...], ...]
    mult: dict[tuple[int, int], dict[int, Scalar]]
    braiding: dict[tuple[int, int], dict[tuple[int, int], Scalar]] | None = None
    notes: tuple[str, ...] = field(default=(), compare=False)
    # The specs built from this document: "spec", and "braided" for an override.
    _built: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def ydspec(self) -> YDSpec:
        spec = self._built.get("spec")
        if spec is None:
            mult = {pair: Element({(i,): c for i, c in entry.items()})
                    for pair, entry in self.mult.items()}
            spec = self._built["spec"] = YDSpec(
                self.group, self.names, self.degrees, self.action, mult)
        return spec

    def braided(self) -> BraidedAlgebraSpec:
        """The braided algebra of the document: the one its module algebra
        induces, or the same letters and products under the [braiding] table."""
        spec = self.ydspec()
        if self.braiding is None:
            return braided_spec(spec)
        bspec = self._built.get("braided")
        if bspec is None:
            entries = {pair: Element(dict(words), alphabet=spec)
                       for pair, words in self.braiding.items()}
            try:
                table = BraidingTable(spec.dim, entries, alphabet=spec)
            except StructuralError as exc:
                raise ConfigError(f"braiding override: {exc}") from exc
            bspec = self._built["braided"] = BraidedAlgebraSpec(
                spec.dim, table, spec.mult, names=spec.names, alphabet=spec)
        return bspec

    def braiding_table(self) -> BraidingTable:
        return self.braided().braiding


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


def _parse_int_list(text: str, lineno: int) -> list[int]:
    if not text.strip():
        return []
    out = []
    for chunk in split_top_level_commas(text, lineno):
        chunk = chunk.strip()
        tokens = tokenize(chunk, lineno)
        sign = 1
        pos = 0
        if tokens[pos].kind == "SYM" and tokens[pos].text == "-":
            sign = -1
            pos += 1
        if tokens[pos].kind != "INT" or tokens[pos + 1].kind != "END":
            raise ConfigError(f"expected an integer, found {chunk!r}", lineno)
        out.append(sign * int(tokens[pos].text))
    return out


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

    rank = 0
    torsion: list[int] = []
    for lineno, line in sections["group"]:
        key, value = _parse_keyvalue(line, lineno)
        if key == "rank":
            rank = _parse_int_list(value, lineno)[0] if value else 0
        elif key == "torsion":
            torsion = _parse_int_list(value, lineno)
        else:
            raise ConfigError(f"unknown [group] key {key!r}", lineno)
    try:
        group = AbelianGroup(rank, tuple(torsion))
    except StructuralError as exc:
        raise ConfigError(str(exc)) from exc

    notes: list[str] = []
    names: list[str] = []
    degrees: list[GroupElement] = []
    for lineno, line in sections["basis"]:
        key, value = _parse_keyvalue(line, lineno)
        if key in _RESERVED:
            raise ConfigError(f"letter name {key!r} is reserved", lineno)
        if key in names:
            raise ConfigError(f"duplicate letter {key!r}", lineno)
        exps = _parse_int_list(value, lineno)
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

    matrices: list[list[list[Scalar]] | None] = [None] * group.n_generators
    generator_names = {f"g{k + 1}": k for k in range(group.n_generators)}
    for lineno, line in sections.get("action", []):
        key, value = _parse_keyvalue(line, lineno)
        entries = [parse_scalar_text(chunk.strip(), lineno)
                   for chunk in split_top_level_commas(value, lineno)]
        if len(entries) != dim:
            raise ConfigError(f"expected {dim} scalars", lineno)
        if "." in key:
            gname, lname = key.split(".", 1)
            k = generator_names.get(gname.strip())
            if k is None:
                raise ConfigError(f"unknown generator {gname!r}", lineno)
            j = index.get(lname.strip())
            if j is None:
                raise ConfigError(f"unknown letter {lname!r}", lineno)
            if matrices[k] is None:
                matrices[k] = [[Scalar.zero()] * dim for _ in range(dim)]
            for i in range(dim):
                matrices[k][i][j] = entries[i]
        else:
            k = generator_names.get(key)
            if k is None:
                raise ConfigError(f"unknown generator {key!r}", lineno)
            if matrices[k] is not None:
                raise ConfigError(f"duplicate action for {key!r}", lineno)
            matrices[k] = [
                [entries[i] if i == j else Scalar.zero() for j in range(dim)]
                for i in range(dim)
            ]
    for k, matrix in enumerate(matrices):
        if matrix is None:
            raise ConfigError(f"no action given for generator g{k + 1}")
    action = tuple(tuple(tuple(row) for row in matrix) for matrix in matrices)

    mult: dict[tuple[int, int], dict[int, Scalar]] = {}
    for lineno, line in sections.get("mult", []):
        pair, entry = _parse_rule(line, lineno, index, names, expect_length=1)
        if pair in mult:
            raise ConfigError(f"duplicate mult entry for {pair}", lineno)
        if entry:
            mult[pair] = {w[0]: c for w, c in entry.items()}

    braiding = None
    if "braiding" in sections:
        braiding = {}
        for lineno, line in sections["braiding"]:
            pair, entry = _parse_rule(line, lineno, index, names, expect_length=2)
            if pair in braiding:
                raise ConfigError(f"duplicate braiding entry for {pair}", lineno)
            braiding[pair] = dict(entry)

    doc = ConfigDocument(group, tuple(names), tuple(degrees), action, mult,
                         braiding, tuple(notes))
    doc.ydspec()  # structural validation happens on construction
    if doc.braiding is not None:
        doc.braided()
    return doc


def _parse_rule(line: str, lineno: int, index: dict[str, int], names,
                expect_length: int):
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
    entry: dict[tuple, Scalar] = {}
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
        if len(word) != expect_length:
            raise ConfigError(
                f"words here must have length {expect_length}", lineno)
        accumulate(entry, tuple(word), coeff)
    return pair, entry


# -- emission -------------------------------------------------------------------


def _signed_atom(s: Scalar) -> str:
    neg, atom = split_sign(s)
    return ("-" + atom) if neg else atom


def emit_config(doc: ConfigDocument) -> str:
    lines = ["[group]", f"rank = {doc.group.rank}"]
    if doc.group.torsion:
        lines.append("torsion = " + ", ".join(str(m) for m in doc.group.torsion))
    lines.append("")
    lines.append("[basis]")
    for name, degree in zip(doc.names, doc.degrees):
        lines.append(f"{name} = " + ", ".join(str(e) for e in degree.exponents()))
    if doc.group.n_generators:
        lines.append("")
        lines.append("[action]")
        for k, matrix in enumerate(doc.action):
            dim = len(doc.names)
            diagonal = all(
                matrix[i][j].is_zero() for i in range(dim) for j in range(dim) if i != j)
            if diagonal:
                lines.append(f"g{k + 1} = " + ", ".join(
                    _signed_atom(matrix[i][i]) for i in range(dim)))
            else:
                for j, name in enumerate(doc.names):
                    lines.append(f"g{k + 1}.{name} = " + ", ".join(
                        _signed_atom(matrix[i][j]) for i in range(dim)))
    if doc.mult:
        lines.append("")
        lines.append("[mult]")
        for (a, b) in sorted(doc.mult):
            entry = doc.mult[(a, b)]
            value = Element({(i,): c for i, c in entry.items()})
            rhs = render_element(value, lambda i: doc.names[i])
            lines.append(f"{doc.names[a]} {doc.names[b]} -> {rhs}")
    if doc.braiding is not None:
        lines.append("")
        lines.append("[braiding]")
        for (a, b) in sorted(doc.braiding):
            value = Element(dict(doc.braiding[(a, b)]))
            rhs = render_element(value, lambda i: doc.names[i])
            lines.append(f"{doc.names[a]} {doc.names[b]} -> {rhs}")
    return "\n".join(lines) + "\n"


def document_from_spec(spec: YDSpec, braiding: BraidingTable | None = None) -> ConfigDocument:
    if spec.unit is not None:
        # the format cannot name a unit letter: the document would lose it
        raise StructuralError("a spec with a unit letter has no config document")
    mult: dict[tuple[int, int], dict[int, Scalar]] = {}
    for pair, value in (spec.mult or {}).items():
        if not value.is_zero():
            mult[pair] = {w[0]: c for w, c in value._terms.items()}
    override = None
    if braiding is not None:
        override = {
            pair: dict(entry._terms)
            for pair, entry in braiding.entries.items()
        }
    return ConfigDocument(spec.group, spec.names, spec.degrees, spec.action,
                          mult, override)


# -- binding parsed expressions against a spec -----------------------------------


def bind_group_element(spec: YDSpec, ref, line: int | None = None) -> GroupElement:
    group = spec.group
    if isinstance(ref, str):
        if ref == "e":
            return group.identity()
        if ref.startswith("g") and ref[1:].isdigit():
            k = int(ref[1:]) - 1
            if 0 <= k < group.n_generators:
                return group.generator(k)
        raise ConfigError(f"unknown group element name {ref!r}", line)
    if len(ref) != group.n_generators:
        raise ConfigError(
            f"group element needs {group.n_generators} exponents", line)
    return group.element(ref)


def bind_plain_element(spec: YDSpec, parsed: ParsedElement,
                       line: int | None = None) -> Element:
    out = Element.zero(spec)
    for coeff, letters in parsed:
        word = []
        for letter in letters:
            if letter[0] != "L" or letter[2] is not None:
                raise ConfigError(
                    "this command takes plain tensor words over the letters", line)
            word.append(spec.letter(letter[1]))
        out = out + Element.from_word(tuple(word), coeff, spec)
    return out


def bind_cotensor_element(spec: YDSpec, parsed: ParsedElement,
                          line: int | None = None) -> CotensorElement:
    """Bare words embed through the chain lift; annotated words are taken
    literally and must satisfy the chain condition; a lone group atom is a
    degree-0 key."""
    out = CotensorElement.zero(spec)
    for coeff, letters in parsed:
        if not letters:
            out = out + CotensorElement.unit(spec).scale(coeff)
            continue
        kinds = {letter[0] for letter in letters}
        if kinds == {"G"}:
            if len(letters) != 1:
                raise ConfigError("group elements cannot be tensored here", line)
            g = bind_group_element(spec, letters[0][1], line)
            out = out + CotensorElement.from_group(spec, g, coeff)
            continue
        if kinds != {"L"}:
            raise ConfigError("cannot mix letters and group atoms in one word", line)
        annotated = [letter[2] is not None for letter in letters]
        if all(annotated):
            word = tuple(
                (spec.letter(name), bind_group_element(spec, g, line))
                for _, name, g in letters)
            bad = chain_violation(spec, word)
            if bad is not None:
                raise ConfigError(f"chain condition fails at cut {bad}", line)
            out = out + CotensorElement.from_word(spec, word, coeff)
        elif not any(annotated):
            word = tuple(spec.letter(name) for _, name, _ in letters)
            out = out + CotensorElement.from_word(
                spec, chain_lift_word(spec, word), coeff)
        else:
            raise ConfigError(
                "either annotate every letter with a group part or none", line)
    return out


def bind_smash_element(spec: YDSpec, parsed: ParsedElement,
                       line: int | None = None) -> SmashElement:
    """Bare letters form the word leg; an optional trailing group atom is
    the group tag (identity when absent)."""
    out = SmashElement.zero(spec)
    for coeff, letters in parsed:
        tag = spec.group.identity()
        word_letters = letters
        if letters and letters[-1][0] == "G":
            tag = bind_group_element(spec, letters[-1][1], line)
            word_letters = letters[:-1]
        word = []
        for letter in word_letters:
            if letter[0] != "L" or letter[2] is not None:
                raise ConfigError(
                    "smash words are bare letters with an optional trailing group atom",
                    line)
            word.append(spec.letter(letter[1]))
        out = out + SmashElement.of(spec, tuple(word), tag, coeff)
    return out

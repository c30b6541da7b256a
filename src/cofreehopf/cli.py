"""Command-line front end: config ingestion, checks and computations.

Every value it prints goes through one renderer, which picks the text by
the value's type and never by a law's name.

Exit codes: 0 for success or a passing check, 1 for a failing check
(the counterexample is printed), 2 for parse, config or usage errors, for
a result too large for memory (one ``error: out of memory while computing
<command>`` line on stderr), for a stdout that its reader closed before
the output was written (one ``error: output closed ...`` line on stderr)
and for any internal error (one ``error: internal: <type>: <message>``
line on stderr), never with a traceback, so a crash never reads as a
failed check.

A shell call runs one command in a fresh process, which pays for every
module imported here.  So a module that some command never runs is
imported in the code that runs it: ``json`` in ``_emit``, ``presets`` in
``_cmd_preset``, ``rotabaxter`` (and with it ``qalg``) in
``_rb_operator`` and ``_check_rb``, ``qalg`` in ``_qsh`` and the
``alg`` and ``bialg`` checks, and ``braid`` with the first braiding a
command reads.  ``star``, ``comul``, ``psi``, ``phi`` and ``check yd``
load none of these three, on a config with a ``[braiding]`` override
too, and ``preset`` loads neither ``qalg`` nor ``braid``.  ``linalg``
loads only with such an override, the one braiding table checked for
invertibility.  Tests patch such a function on its own module
(``qalg``, ``rotabaxter``), and ``star`` here.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from functools import partial
from itertools import chain

from .checks import CheckResult
from .config import (
    ConfigDocument,
    bind_cotensor_element,
    bind_plain_element,
    bind_smash_element,
    emit_config,
    parse_config,
)
from .cotensor import (
    ChainWalk,
    CotensorElement,
    SmashElement,
    _pair_alphabet as _key_pairs,
    chain_lift,
    coproduct,
    flatten_coinvariant,
    render_cotensor,
    render_letter,
    render_pairs,
    render_smash,
    render_word,
    smash_product,
    star,
)
from .elements import Element, _pair_alphabet as _word_pairs, render_element, render_terms
from .errors import ConfigError, StructuralError
from .expr import parse_element_text, parse_int_list
from .grouphopf import GroupElement, YDSpec, check_yd_module_algebra, check_yetter_drinfeld
from .scalars import render_scalar


def _common_flags(suppress: bool) -> argparse.ArgumentParser:
    # Subparsers get SUPPRESS defaults: otherwise their defaults would
    # overwrite flags that were already parsed before the command word.
    common = argparse.ArgumentParser(add_help=False)
    default = (lambda value: argparse.SUPPRESS if suppress else value)
    common.add_argument("--config", metavar="FILE", default=default(None),
                        help="config document to load")
    common.add_argument("--max-degree", type=int, default=default(3), metavar="N",
                        help="total-degree cap for sampled checks (default 3)")
    common.add_argument("--format", choices=("text", "json"), default=default("text"))
    common.add_argument("--emit-config", action="store_true", default=default(False),
                        help="print the normalized config and exit")
    return common


def build_argparser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cofreehopf",
        parents=[_common_flags(False)],
        description="Exact computations in quasi-shuffle and cotensor algebras "
                    "over abelian group algebras.")
    sub = parser.add_subparsers(dest="command")
    common = _common_flags(True)

    p_check = sub.add_parser("check", parents=[common], help="run an axiom checker")
    p_check.add_argument("what", choices=CHECKS)
    for name, (arg_names, *_) in COMMANDS.items():
        p = sub.add_parser(name, parents=[common])
        for arg in arg_names:
            p.add_argument(arg)

    p_preset = sub.add_parser("preset", parents=[common], help="emit a built-in config")
    p_preset.add_argument("family", choices=("clifford", "uqg"))
    p_preset.add_argument("--n", type=int, help="number of generators (clifford)")
    p_preset.add_argument("--cartan", metavar="FILE",
                          help="file with the integral matrix rows (uqg)")
    return parser


def _load_document(args) -> ConfigDocument:
    if not args.config:
        raise ConfigError("this command needs --config FILE")
    try:
        with open(args.config, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    return parse_config(text)


def _is_word(value) -> bool:
    return type(value) is tuple and all(isinstance(letter, int) for letter in value)


def _render_any(spec: YDSpec):
    """The one renderer of the command line: the text of a value by its type
    alone, never by the law a check reports; an unknown kind reads as its repr."""
    def render(value) -> str:
        if isinstance(value, CotensorElement):
            return render_cotensor(value)
        if isinstance(value, SmashElement):
            return render_smash(value)
        if isinstance(value, Element):
            if value.alphabet == _key_pairs(spec):
                return render_pairs(spec, value)
            if value.alphabet == _word_pairs(spec):
                return render_terms(value, lambda pair: " (x) ".join(
                    render_word(spec, word) for word in pair))
            return render_element(value, partial(render_letter, spec))
        if isinstance(value, GroupElement):
            return render_letter(spec, value)
        if _is_word(value):
            return render_word(spec, value)
        if type(value) is tuple and len(value) == 2 \
                and all(_is_word(v) or isinstance(v, Element) for v in value):
            return " (x) ".join(map(render, value))
        return repr(value)
    return render


def _json_terms(kind: str, spec: YDSpec, value) -> list[dict]:
    """One dict per term: ``coeff`` and the key fields of its kind; cotensor
    keys are sorted and written through one ``ChainWalk``."""
    letter = partial(render_letter, spec)
    walk = ChainWalk(spec)

    def fields(key) -> dict:
        if kind == "pairs":
            return {"left": walk.text(key[0]), "right": walk.text(key[1])}
        if kind == "smash":
            return {"word": [letter(v) for v in key[0]], "group": letter(key[1])}
        if kind == "tensor":
            return {"word": [letter(v) for v in key]}
        return {"word": walk.text(key).split("[]")}

    order = walk.order if kind in ("cotensor", "pairs") else None
    return [{"coeff": render_scalar(c), **fields(key)} for key, c in value.terms(order)]


def _qsh(doc: ConfigDocument):
    from .qalg import quasi_shuffle
    return partial(quasi_shuffle, doc.braided())


def _rb_operator(doc: ConfigDocument):
    from .rotabaxter import cotensor_rb_operator
    return cotensor_rb_operator


# command -> (argument names, binder, operation, output kind).  Each
# operation is built from the document before any argument is read, and
# looks its function up when called, so patching ``cli.star`` takes effect.
COMMANDS = {
    "qsh": (("x", "y"), bind_plain_element, _qsh, "tensor"),
    "star": (("x", "y"), bind_cotensor_element, lambda doc: star, "cotensor"),
    "smash-star": (("x", "y"), bind_smash_element, lambda doc: smash_product, "smash"),
    "comul": (("x",), bind_cotensor_element, lambda doc: coproduct, "pairs"),
    # a config names no unit letter, so rb-apply binds over the spec with one adjoined
    "rb-apply": (("x",), lambda spec, parsed: bind_cotensor_element(spec.with_unit(), parsed),
                 _rb_operator, "cotensor"),
    "phi": (("x",), bind_cotensor_element, lambda doc: flatten_coinvariant, "tensor"),
    "psi": (("x",), bind_plain_element,
            lambda doc: partial(chain_lift, doc.spec), "cotensor"),
}


def _words_up_to(spec: YDSpec, total: int):
    return chain.from_iterable(spec.braiding.basis_words(length) for length in range(total + 1))


def _pairs_up_to(spec: YDSpec, total: int):
    """Each word u by length, then each word v with |v| <= total - |u|."""
    for u in _words_up_to(spec, total):
        for v in _words_up_to(spec, total - len(u)):
            yield u, v


def _check_yb(doc: ConfigDocument, n: int) -> tuple[YDSpec, CheckResult]:
    from .braid import check_yang_baxter
    return doc.braided(), check_yang_baxter(doc.braided().braiding)


def _check_alg(doc: ConfigDocument, n: int) -> tuple[YDSpec, CheckResult]:
    from .qalg import check_braided_algebra  # check_yd_module_algebra runs it too
    return doc.braided(), (check_yd_module_algebra(doc.spec) if doc.override is None
                           else check_braided_algebra(doc.override))


def _check_bialg(doc: ConfigDocument, n: int) -> tuple[YDSpec, CheckResult]:
    from .qalg import check_quasi_shuffle_bialgebra
    spec = doc.braided()
    return spec, check_quasi_shuffle_bialgebra(spec, _pairs_up_to(spec, n))


def _check_rb(doc: ConfigDocument, max_degree: int) -> tuple[YDSpec, CheckResult]:
    from .rotabaxter import check_rota_baxter, qsh_rb_instance
    unital = doc.braided().with_unit()  # a config names no unit letter
    return unital, check_rota_baxter(qsh_rb_instance(unital), (
        (Element.from_word(u, alphabet=unital.alphabet),
         Element.from_word(v, alphabet=unital.alphabet))
        for u, v in _pairs_up_to(unital, max_degree)))


# check name -> checker(document, --max-degree) -> (spec, result): the result
# renders through the spec the check ran on, whose words it holds: the
# override's for yb, alg and bialg, and for rb one with the unit letter adjoined
CHECKS = {
    "yb": _check_yb,
    "alg": _check_alg,
    "yd": lambda doc, n: (doc.spec, check_yetter_drinfeld(doc.spec)),
    "bialg": _check_bialg,
    "rb": _check_rb,
}


def _emit(payload: dict) -> None:
    import json

    print(json.dumps(payload, ensure_ascii=False, sort_keys=True))


# what argparse itself reads as a negative number, not an option
_NEGATIVE_NUMBER = re.compile(r"-\d+|-\d*\.\d+")


def _as_element(arg: str) -> str:
    """An ASCII '-' before a letter, '(' or a digit starts a negated element,
    not an option: it becomes the minus sign, which the expression grammar
    reads alike.  A plain negative number such as ``-2`` stays ASCII, since
    argparse reads it as a value and an integer option needs it so."""
    head = arg[1:2]
    if arg != "-h" and arg[:1] == "-" and (head.isalpha() or head == "(" or (
            "0" <= head <= "9" and not _NEGATIVE_NUMBER.fullmatch(arg))):
        return "−" + arg[1:]
    return arg


def main(argv=None) -> int:
    parser = build_argparser()
    try:
        args = parser.parse_args(map(_as_element, sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    # made before the work, so that reporting a lack of memory needs none
    out_of_memory = f"error: out of memory while computing {args.command or 'emit-config'}\n"
    try:
        return _dispatch(args)
    except (ConfigError, StructuralError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        pass  # reported below, once the traceback and what it holds are released
    except BrokenPipeError:
        # The reader closed stdout.  What is left in its buffer would raise
        # again when it is flushed at shutdown, so stdout now writes to
        # devnull, as the Python docs advise for SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: output closed by the reader before it was written", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    try:
        sys.stderr.write(out_of_memory)
    except MemoryError:
        pass  # no memory even for the line: the exit code alone reports it
    return 2


def _dispatch(args) -> int:
    if args.command == "preset":
        return _cmd_preset(args)
    if args.command is None and not args.emit_config:
        raise ConfigError("no command given (see --help)")
    doc = _load_document(args)
    for note in doc.notes:
        print(f"note: {note}", file=sys.stderr)
    if args.emit_config:
        print(emit_config(doc), end="")
        return 0
    spec = doc.spec

    if args.command == "check":
        if args.max_degree < 0:
            raise ConfigError(f"--max-degree must be >= 0, got {args.max_degree}")
        spec, result = CHECKS[args.what](doc, args.max_degree)
        render = _render_any(spec)
        if args.format == "json":
            payload = {"ok": bool(result)}
            if not result:
                payload.update(law=result.law, witness=render(result.witness),
                               **result.sides(render))
            _emit(payload)
        else:
            print(result.describe(render, render))
        return 0 if result else 1

    arg_names, bind, operation, kind = COMMANDS[args.command]
    apply = operation(doc)
    out = apply(*(bind(spec, parse_element_text(getattr(args, name))) for name in arg_names))
    spec = getattr(out, "spec", spec)  # rb-apply's output lives on the unital spec
    if args.format == "json":
        _emit({"kind": kind, "terms": _json_terms(kind, spec, out)})
    else:
        print(_render_any(spec)(out))
    return 0


# A --cartan row separates its entries by commas or blanks: a blank after
# a digit, followed by more than blanks and commas, reads as a comma.  The
# substitution keeps every column where it was.
_ROW_BLANK = re.compile(r"(?<=\d)\s(?=\s*[^\s,])")


def _read_cartan(path: str) -> list[list[int]]:
    """The rows of a --cartan file; an error names the line it is on."""
    try:
        with open(path, encoding="utf-8") as handle:
            rows = [(lineno, parse_int_list(_ROW_BLANK.sub(",", row), lineno))
                    for lineno, row in enumerate(
                        (raw.split("#", 1)[0] for raw in handle), start=1)
                    if row.strip()]
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read cartan matrix: {exc}") from exc
    except ConfigError as exc:
        raise ConfigError(f"cannot read cartan matrix: {exc.message}",
                          exc.line, exc.column) from exc
    for lineno, row in rows:
        if len(row) != len(rows):
            raise ConfigError(f"cannot read cartan matrix: a square matrix of {len(rows)} "
                              f"rows needs {len(rows)} entries per row, got {len(row)}",
                              lineno)
    return [row for _, row in rows]


def _cmd_preset(args) -> int:
    from .presets import build_clifford, build_uqg

    if args.family == "clifford":
        if args.n is None or args.n < 1:
            raise ConfigError("preset clifford needs --n N with N >= 1")
        preset = build_clifford(args.n)
    else:
        if not args.cartan:
            raise ConfigError("preset uqg needs --cartan FILE")
        preset = build_uqg(_read_cartan(args.cartan))
    print(emit_config(ConfigDocument(preset.spec)), end="")
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

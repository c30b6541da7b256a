"""Command-line front end: config ingestion, checks and computations.

Exit codes: 0 for success or a passing check, 1 for a failing check
(the counterexample is printed), 2 for parse, config or usage errors and
for any internal error (one ``error: internal: <type>: <message>`` line
on stderr, never a traceback), so a crash never reads as a failed check.
"""

from __future__ import annotations

import argparse
import json
import sys

from .braid import check_yang_baxter
from .checks import CheckResult
from .config import (
    ConfigDocument,
    bind_cotensor_element,
    bind_plain_element,
    bind_smash_element,
    document_from_spec,
    emit_config,
    parse_config,
)
from .cotensor import (
    CotensorElement,
    SmashElement,
    chain_lift,
    coproduct,
    flatten_coinvariant,
    render_cotensor,
    render_pairs,
    render_smash,
    smash_product,
    star,
)
from .elements import Element, render_element
from .errors import ConfigError, StructuralError
from .expr import parse_element_text
from .grouphopf import (
    GroupElement,
    YDSpec,
    braided_spec,
    check_yd_module_algebra,
    check_yetter_drinfeld,
)
from .presets import build_clifford, build_uqg
from .qalg import (
    BraidedAlgebraSpec,
    check_braided_algebra,
    check_quasi_shuffle_bialgebra,
    adjoin_unit,
    quasi_shuffle,
)
from .rotabaxter import check_rota_baxter, cotensor_rb_operator, qsh_rb_instance
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
    p_check.add_argument("what", choices=("yb", "alg", "yd", "bialg", "rb"))

    for name in ("qsh", "star", "smash-star"):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("x")
        p.add_argument("y")
    for name in ("comul", "rb-apply", "phi", "psi"):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("x")

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


def _braided(doc: ConfigDocument) -> BraidedAlgebraSpec:
    spec = doc.ydspec()
    if doc.braiding is None:
        return braided_spec(spec)
    key = "_braided_override"
    cached = getattr(doc, key, None)
    if cached is None:
        cached = BraidedAlgebraSpec(
            dim=spec.dim,
            braiding=doc.braiding_table(),
            mult={pair: Element(dict(v._terms), alphabet=spec)
                  for pair, v in (spec.mult or {}).items()},
            unit=None,
            names=spec.names,
            alphabet=spec,
        )
        setattr(doc, key, cached)
    return cached


def _letter_text(spec: YDSpec):
    def text(letter):
        if isinstance(letter, int):
            return spec.names[letter]
        if isinstance(letter, GroupElement):
            return letter.render()
        if isinstance(letter, tuple) and len(letter) == 2 \
                and isinstance(letter[0], int):
            return f"{spec.names[letter[0]]}.{letter[1].render()}"
        return str(letter)
    return text


def _render_any(spec: YDSpec):
    letter_text = _letter_text(spec)
    renderers = {Element: lambda x: render_element(x, letter_text),
                 CotensorElement: render_cotensor, SmashElement: render_smash}
    return lambda value: renderers.get(type(value), str)(value)


def _pairs_up_to(spec: BraidedAlgebraSpec, total: int):
    words: list[tuple] = []
    for length in range(total + 1):
        words.extend(spec.basis_words(length))
    for u in words:
        for v in words:
            if len(u) + len(v) <= total:
                yield u, v


def _element_pairs_up_to(spec: BraidedAlgebraSpec, total: int):
    for u, v in _pairs_up_to(spec, total):
        yield (Element.from_word(u, alphabet=spec.alphabet),
               Element.from_word(v, alphabet=spec.alphabet))


def _run_check(args, doc: ConfigDocument) -> CheckResult:
    if args.max_degree < 0:
        raise ConfigError(f"--max-degree must be >= 0, got {args.max_degree}")
    spec = doc.ydspec()
    if args.what == "yb":
        return check_yang_baxter(doc.braiding_table())
    if args.what == "yd":
        return check_yetter_drinfeld(spec)
    if args.what == "alg":
        if doc.braiding is None:
            return check_yd_module_algebra(spec)
        return check_braided_algebra(_braided(doc))
    if args.what == "bialg":
        bspec = _braided(doc)
        return check_quasi_shuffle_bialgebra(bspec, _pairs_up_to(bspec, args.max_degree))
    bspec = _braided(doc)
    unital = bspec if bspec.unit is not None else adjoin_unit(bspec)
    return check_rota_baxter(
        qsh_rb_instance(unital), _element_pairs_up_to(unital, args.max_degree))


def _json_terms_plain(spec: YDSpec, x: Element):
    text = _letter_text(spec)
    return [{"coeff": render_scalar(c), "word": [text(l) for l in w]}
            for w, c in x.terms()]


def _json_terms_cotensor(x: CotensorElement):
    from .cotensor import render_key
    out = []
    for key, c in x.terms():
        if isinstance(key, GroupElement):
            out.append({"coeff": render_scalar(c), "word": [key.render()]})
        else:
            out.append({"coeff": render_scalar(c),
                        "word": [render_key(x.spec, (pair,)) for pair in key]})
    return out


def _json_terms_pairs(spec: YDSpec, x: Element):
    from .cotensor import render_key
    return [{"coeff": render_scalar(c),
             "left": render_key(spec, a),
             "right": render_key(spec, b)}
            for (a, b), c in x.terms()]


def _json_terms_smash(x: SmashElement):
    return [{"coeff": render_scalar(c),
             "word": [x.spec.names[v] for v in word],
             "group": g.render()}
            for (word, g), c in x.terms()]


def _emit(payload: dict) -> None:
    print(json.dumps(payload, ensure_ascii=False, sort_keys=True))


def _output_element(args, kind: str, text: str, terms) -> None:
    if args.format == "json":
        _emit({"kind": kind, "terms": terms})
    else:
        print(text)


def main(argv=None) -> int:
    parser = build_argparser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _dispatch(args)
    except (ConfigError, StructuralError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "preset":
        return _cmd_preset(args)
    if args.command is None:
        if args.emit_config:
            doc = _load_document(args)
            print(emit_config(doc), end="")
            return 0
        raise ConfigError("no command given (see --help)")
    doc = _load_document(args)
    if args.emit_config:
        print(emit_config(doc), end="")
        return 0
    spec = doc.ydspec()

    if args.command == "check":
        result = _run_check(args, doc)
        render = _render_any(spec)
        if args.format == "json":
            payload = {"ok": bool(result)}
            if not result:
                payload.update({
                    "law": result.law,
                    "witness": repr(result.witness),
                    "lhs": render(result.lhs),
                    "rhs": render(result.rhs),
                })
            _emit(payload)
        else:
            print(result.describe(render))
        return 0 if result else 1

    if args.command == "qsh":
        bspec = _braided(doc)
        x = bind_plain_element(spec, parse_element_text(args.x))
        y = bind_plain_element(spec, parse_element_text(args.y))
        out = quasi_shuffle(bspec, x, y)
        _output_element(args, "tensor",
                        render_element(out, _letter_text(spec)),
                        _json_terms_plain(spec, out))
        return 0

    if args.command == "star":
        x = bind_cotensor_element(spec, parse_element_text(args.x))
        y = bind_cotensor_element(spec, parse_element_text(args.y))
        out = star(x, y)
        _output_element(args, "cotensor", render_cotensor(out),
                        _json_terms_cotensor(out))
        return 0

    if args.command == "comul":
        x = bind_cotensor_element(spec, parse_element_text(args.x))
        out = coproduct(x)
        _output_element(args, "pairs", render_pairs(spec, out),
                        _json_terms_pairs(spec, out))
        return 0

    if args.command == "smash-star":
        x = bind_smash_element(spec, parse_element_text(args.x))
        y = bind_smash_element(spec, parse_element_text(args.y))
        out = smash_product(x, y)
        _output_element(args, "smash", render_smash(out), _json_terms_smash(out))
        return 0

    if args.command == "rb-apply":
        unital = spec if spec.unit is not None else spec.with_unit()
        x = bind_cotensor_element(unital, parse_element_text(args.x))
        out = cotensor_rb_operator(x)
        _output_element(args, "cotensor", render_cotensor(out),
                        _json_terms_cotensor(out))
        return 0

    if args.command == "phi":
        x = bind_cotensor_element(spec, parse_element_text(args.x))
        out = flatten_coinvariant(x)
        _output_element(args, "tensor",
                        render_element(out, _letter_text(spec)),
                        _json_terms_plain(spec, out))
        return 0

    if args.command == "psi":
        x = bind_plain_element(spec, parse_element_text(args.x))
        out = chain_lift(spec, x)
        _output_element(args, "cotensor", render_cotensor(out),
                        _json_terms_cotensor(out))
        return 0

    raise ConfigError(f"unknown command {args.command!r}")


def _cmd_preset(args) -> int:
    if args.family == "clifford":
        if args.n is None or args.n < 1:
            raise ConfigError("preset clifford needs --n N with N >= 1")
        preset = build_clifford(args.n)
        spec = preset.spec
    else:
        if not args.cartan:
            raise ConfigError("preset uqg needs --cartan FILE")
        try:
            with open(args.cartan, encoding="utf-8") as handle:
                rows = []
                for raw in handle:
                    line = raw.split("#", 1)[0].strip()
                    if not line:
                        continue
                    rows.append([int(tok) for tok in line.replace(",", " ").split()])
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read cartan matrix: {exc}") from exc
        preset = build_uqg(rows)
        spec = preset.spec
    print(emit_config(document_from_spec(spec)), end="")
    return 0


def entry() -> None:
    sys.exit(main())

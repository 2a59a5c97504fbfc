"""Command-line front end.

Subcommands: ``analyze`` (star-freeness verdict with certificate),
``synthesize`` (verdict plus a star-free expression), ``verify``
(equivalence of a language and an expression file), ``bound`` (pumping
threshold of an expression), and ``oracle`` (brute-force membership
comparison of two language specs).

Exit codes: 0 star-free / equivalent / agreement, 1 the negative outcome,
2 input error (reported as one line ``error: <code>: <message>``).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from .automata import Alphabet, Dfa, dfa_equivalent, load_dfa, words
from .errors import AlphabetError, ParseError, SfreeError
from .monoid import (
    DEFAULT_MONOID_CAP,
    is_aperiodic,
    parse_monoid_table,
    transition_aperiodicity,
)
from .regex import RESERVED, parse_regex, regex_to_dfa
from .sfexpr import eval_expr, expr_letters, metrics, n_bound, parse_expr, render_expr
from .synthesis import decide_star_free

WORD_LIMIT_DEFAULT = 8


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _at_least(minimum: int):
    """An argparse type: an integer no smaller than ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


@functools.cache
def _parser() -> _Parser:
    """The argument parser, built on first use and kept for the process."""
    parser = _Parser(prog="sfree", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    monoid_cap = _at_least(1)

    def add_language_source(p):
        p.add_argument("--regex", help="regular expression for the input language")
        p.add_argument("--dfa", help="path to a DFA JSON file")
        p.add_argument(
            "--alphabet",
            help="alphabet for --regex as a string of letters (default: the "
            "letters occurring in the pattern)",
        )

    p = sub.add_parser("analyze", help="decide star-freeness")
    add_language_source(p)
    p.add_argument("--monoid", help="path to a monoid table file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--max-monoid", type=monoid_cap, default=DEFAULT_MONOID_CAP)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("synthesize", help="produce a star-free expression")
    add_language_source(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("--max-monoid", type=monoid_cap, default=DEFAULT_MONOID_CAP)
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("verify", help="check a language against an expression file")
    add_language_source(p)
    p.add_argument("--expr", required=True, help="path to an expression file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bound", help="pumping threshold of an expression")
    p.add_argument("--expr", required=True, help="path to an expression file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("oracle", help="compare two language specs word by word")
    sources = {"regex": "a regex", "dfa": "a DFA file", "expr": "an expression file"}
    for kind, what in sources.items():
        p.add_argument(
            f"--{kind}",
            action="append",
            dest="specs",
            type=lambda value, kind=kind: (kind, value),
            metavar=kind.upper(),
            help=f"language given by {what}",
        )
    p.add_argument("--alphabet", help="shared alphabet for regex/expression specs")
    p.add_argument("--maxlen", type=_at_least(0), default=WORD_LIMIT_DEFAULT)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_oracle)

    return parser


# ---------------------------------------------------------------------------
# input loading


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc


def _load_spec(kind: str, value: str, declared: str | None) -> Dfa:
    """The DFA of a language given by a regex, a DFA file or an expression
    file.  ``declared`` is the alphabet of a regex or an expression, by
    default the letters occurring in it; a DFA file carries its own."""
    if kind == "dfa":
        return load_dfa(value)
    if kind == "regex":
        if declared is None:
            declared = sorted({ch for ch in value if ch not in RESERVED})
        alphabet = Alphabet.of(declared)
        return regex_to_dfa(parse_regex(value, alphabet), alphabet)
    text = _read_text(value)
    alphabet = None if declared is None else Alphabet.of(declared)
    expr = parse_expr(text, alphabet)
    if alphabet is None:
        alphabet = Alphabet(tuple(sorted(expr_letters(expr))))
    return eval_expr(expr, alphabet)


def _load_language(args) -> Dfa:
    sources = [s for s in ("regex", "dfa") if getattr(args, s) is not None]
    if len(sources) != 1:
        raise _UsageError("exactly one of --regex/--dfa is required")
    kind = sources[0]
    d = _load_spec(kind, getattr(args, kind), args.alphabet)
    if kind == "dfa" and args.alphabet is not None and Alphabet.of(args.alphabet) != d.alphabet:
        raise AlphabetError(
            f"--alphabet {args.alphabet!r} does not match the DFA file's alphabet"
        )
    return d


# ---------------------------------------------------------------------------
# reports


def _witness_dict(witness):
    if witness is None:
        return None
    return {"element": witness.element, "index": witness.index, "period": witness.period}


def _print_analysis(size, witness, *, star_free_line=True):
    print(f"monoid size: {size}")
    print(f"aperiodic: {'yes' if witness is None else 'no'}")
    if witness is not None:
        print(
            f"witness: element {witness.element}, index {witness.index}, "
            f"period {witness.period}"
        )
    if star_free_line:
        print(f"star-free: {'yes' if witness is None else 'no'}")


def _report_json(size, witness, expression=None, expr_metrics=None):
    obj = {
        "verdict": "star-free" if witness is None else "not-star-free",
        "monoid_size": size,
        "witness": _witness_dict(witness),
        "expression": expression,
        "metrics": None if expr_metrics is None else dataclasses.asdict(expr_metrics),
    }
    print(json.dumps(obj))


# ---------------------------------------------------------------------------
# commands


def _cmd_analyze(args) -> int:
    if args.monoid is not None:
        if args.regex is not None or args.dfa is not None:
            raise _UsageError("--monoid cannot be combined with --regex/--dfa")
        if args.alphabet is not None:
            raise _UsageError("--monoid cannot be combined with --alphabet")
        monoid = parse_monoid_table(_read_text(args.monoid), max_size=args.max_monoid)
        witness = is_aperiodic(monoid)
        size = monoid.size
        language_input = False
    else:
        size, witness = transition_aperiodicity(
            _load_language(args), max_size=args.max_monoid
        )
        language_input = True
    if args.json:
        _report_json(size, witness)
    else:
        _print_analysis(size, witness, star_free_line=language_input)
    return 0 if witness is None else 1


def _cmd_synthesize(args) -> int:
    d = _load_language(args)
    verdict = decide_star_free(d, max_monoid=args.max_monoid)
    if not verdict.star_free:
        if args.json:
            _report_json(verdict.monoid_size, verdict.witness)
        else:
            _print_analysis(verdict.monoid_size, verdict.witness)
            print("no expression: language is not star-free")
        return 1
    expression = verdict.language_expression()
    text = render_expr(expression)
    m = metrics(expression)
    if args.json:
        _report_json(verdict.monoid_size, None, text, m)
    else:
        _print_analysis(verdict.monoid_size, None)
        print(f"expression: {text}")
        print(f"nodes: {m.node_count}")
        print(f"concat depth: {m.concat_depth}")
        print(f"n bound: {m.n_bound}")
    return 0


def _cmd_verify(args) -> int:
    d = _load_language(args)
    expr = parse_expr(_read_text(args.expr), d.alphabet)
    equivalent = dfa_equivalent(d, eval_expr(expr, d.alphabet))
    if args.json:
        print(json.dumps({"equivalent": equivalent}))
    else:
        print(f"equivalent: {'yes' if equivalent else 'no'}")
    return 0 if equivalent else 1


def _cmd_bound(args) -> int:
    expr = parse_expr(_read_text(args.expr), None)
    value = n_bound(expr)
    if args.json:
        print(json.dumps({"n_bound": value}))
    else:
        print(value)
    return 0


def _format_word(word: tuple[str, ...]) -> str:
    if all(len(a) == 1 for a in word):
        return "".join(word)
    return " ".join(word)


def _cmd_oracle(args) -> int:
    specs = args.specs or []
    if len(specs) != 2:
        raise _UsageError("oracle needs exactly two language specs")
    d1 = _load_spec(*specs[0], args.alphabet)
    d2 = _load_spec(*specs[1], args.alphabet)
    if d1.alphabet != d2.alphabet:
        raise AlphabetError(
            f"the two specs use different alphabets: "
            f"{list(d1.alphabet.letters)!r} vs {list(d2.alphabet.letters)!r}"
        )
    for word in words(d1.alphabet, args.maxlen):
        m1, m2 = d1.accepts(word), d2.accepts(word)
        if m1 != m2:
            if args.json:
                print(
                    json.dumps(
                        {
                            "agree": False,
                            "word": _format_word(word),
                            "left": m1,
                            "right": m2,
                        }
                    )
                )
            else:
                print(
                    f"disagree: word '{_format_word(word)}' "
                    f"left={'yes' if m1 else 'no'} right={'yes' if m2 else 'no'}"
                )
            return 1
    if args.json:
        print(json.dumps({"agree": True, "maxlen": args.maxlen}))
    else:
        print(f"agree: no disagreement up to length {args.maxlen}")
    return 0


# ---------------------------------------------------------------------------
# entry points


def run_cli(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 2
    except SfreeError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 2
    except RecursionError as exc:
        # expression walks recurse once per operator, so a long flat chain
        # can pass the parser's nesting limit and still exhaust the stack
        print(f"error: depth: input nests too deeply: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()

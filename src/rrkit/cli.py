"""Command-line interface.

Exit codes follow one convention across commands: 0 means true/nonempty,
1 means false/empty, 2 means any error (bad usage, unreadable file,
contract violation).  Words on the command line are space-separated
symbol tokens, e.g. --word "a1 a2 abar2 abar1".  JSON output is emitted
with sorted keys so golden files stay byte-stable.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from typing import NoReturn, Optional

from .automata import Nfa
from .engine import log2_check, nrr_decide, rational_index
from .errors import ContractError, InputError, UnsupportedFilterError
from .filters import parse_filter_name
from .grammars import format_grammar, parse_grammar
from .reductions import bar_hillel, cs_transducer, mark_automaton, reduce_d2_to_ssharpup


def _load(path: str, parse):
    """parse applied to the text of the file at path, with every error
    prefixed by the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read())
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc.reason}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    except RecursionError:
        raise InputError(f"{path}: nested too deeply") from None
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _print_json(data) -> None:
    print(json.dumps(data, indent=2, sort_keys=True))


def _emit_stats(stats: dict) -> None:
    print(json.dumps(stats, sort_keys=True), file=sys.stderr)


def _cmd_member(args) -> int:
    f = parse_filter_name(args.filter)
    word = tuple(args.word.split())
    result = f.contains(word)
    print("true" if result else "false")
    return 0 if result else 1


def _cmd_decide(args) -> int:
    """Serves both decide and witness; they differ in the plain-text line."""
    f = parse_filter_name(args.filter)
    a = _load(args.nfa, Nfa.from_json)
    report = nrr_decide(a, f, args.method)
    if args.json:
        _print_json(report.to_dict())
    elif args.command == "decide":
        print("nonempty" if report.nonempty else "empty")
    elif report.witness is None:
        print("none")
    else:
        print(" ".join(report.witness))
    return 0 if report.nonempty else 1


def _cmd_reduce(args) -> int:
    needs = {
        "bar-hillel": ("grammar", "nfa"),
        "cs": ("grammar",),
        "mark": ("nfa",),
        "ssharpup": ("nfa",),
    }[args.target]
    for name in needs:
        if getattr(args, name) is None:
            raise InputError(f"reduce {args.target} requires --{name}")
    if args.target == "bar-hillel":
        grammar = _load(args.grammar, parse_grammar)
        a = _load(args.nfa, Nfa.from_json)
        product = bar_hillel(grammar, a)
        sys.stdout.write(format_grammar(product))
        if args.emit_stats:
            _emit_stats(
                {"nonterminals": len(product.nonterminals), "rules": len(product.rules)}
            )
    elif args.target == "cs":
        grammar = _load(args.grammar, parse_grammar)
        t = cs_transducer(grammar)
        sys.stdout.write(t.to_json())
        if args.emit_stats:
            _emit_stats({"states": len(t.states), "transitions": len(t.transitions)})
    elif args.target == "mark":
        a = _load(args.nfa, Nfa.from_json)
        marked = mark_automaton(a)
        sys.stdout.write(marked.nfa.to_json())
        if args.emit_stats:
            _emit_stats(
                {"height_bound": max(marked.height.values()), "states": len(marked.nfa.states)}
            )
    else:
        a = _load(args.nfa, Nfa.from_json)
        reduced = reduce_d2_to_ssharpup(a)
        sys.stdout.write(reduced.to_json())
        if args.emit_stats:
            _emit_stats({"states": len(reduced.states)})
    return 0


def _cmd_index(args) -> int:
    f = parse_filter_name(args.filter)
    if args.sample is None:
        value = rational_index(f, args.states, mode="exhaustive")
        mode = "exhaustive"
    else:
        if args.sample < 1:
            raise InputError(f"--sample must be at least 1, got {args.sample}")
        seed = args.seed
        if seed is None:
            raw = os.environ.get("RR_SEED", "0")
            try:
                seed = int(raw)
            except ValueError:
                raise InputError(f"RR_SEED must be an integer, got {raw!r}") from None
        value = rational_index(
            f, args.states, mode="sample", sample_count=args.sample, seed=seed
        )
        mode = "sample"
    if args.json:
        _print_json({"index": value, "mode": mode, "states": args.states})
    else:
        print(value)
    return 0


def _cmd_check_log2(args) -> int:
    grammar = _load(args.grammar, parse_grammar).cnf()
    a = _load(args.nfa, Nfa.from_json)
    stats = log2_check(grammar, a)
    if args.stats:
        _print_json(stats.to_dict())
    else:
        print("nonempty" if stats.result else "empty")
    return 0 if stats.result else 1


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as an InputError, so main prints them as one
    `rr: error:` line; subcommand parsers inherit the class."""

    def error(self, message: str) -> NoReturn:
        raise InputError(message)


_FILTERS_HELP = "filter name: dyck1, dyck2, dyckN:k, sym, symsharp, ssharpup"


def _member_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--filter", required=True, help=_FILTERS_HELP)
    p.add_argument("--word", required=True, help="space-separated symbol tokens ('' is the empty word)")


def _decide_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--filter", required=True, help=_FILTERS_HELP)
    p.add_argument("--nfa", required=True, help="automaton JSON file")
    p.add_argument(
        "--method",
        choices=("auto", "bar-hillel", "counter", "log2"),
        default="auto",
        help="decision route; log2 runs the instrumented certificate search",
    )
    p.add_argument("--json", action="store_true", help="emit the decision report as JSON")


def _witness_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--filter", required=True, help=_FILTERS_HELP)
    p.add_argument("--nfa", required=True, help="automaton JSON file")
    p.add_argument(
        "--method", choices=("auto", "bar-hillel", "counter"), default="auto"
    )
    p.add_argument("--json", action="store_true", help="emit the decision report as JSON")


def _reduce_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "target",
        choices=("bar-hillel", "cs", "mark", "ssharpup"),
        help="bar-hillel: product grammar; cs: shape transducer; "
        "mark: height-marked automaton; ssharpup: one-filter embedding",
    )
    p.add_argument("--grammar", help="grammar text file (bar-hillel, cs)")
    p.add_argument("--nfa", help="automaton JSON file (bar-hillel, mark, ssharpup)")
    p.add_argument("--emit-stats", action="store_true", help="print a stats JSON line to stderr")


def _index_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--filter", required=True, help=_FILTERS_HELP)
    p.add_argument("--states", type=int, required=True)
    p.add_argument("--sample", type=int, default=None, help="sample this many machines instead of enumerating")
    p.add_argument(
        "--seed",
        type=int,
        default=None,
        help="sampling seed (default: RR_SEED env var, else 0)",
    )
    p.add_argument("--json", action="store_true")


def _check_log2_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grammar", required=True, help="grammar text file (converted to CNF)")
    p.add_argument("--nfa", required=True, help="automaton JSON file (epsilon moves allowed)")
    p.add_argument("--stats", action="store_true", help="print the instrumentation JSON instead of the verdict")


# (name, help line, adds the command's arguments, handler), in the order
# `rr --help` lists them
_COMMANDS = (
    ("member", "test one word against a filter", _member_args, _cmd_member),
    ("decide", "decide whether the automaton meets the filter", _decide_args, _cmd_decide),
    ("witness", "print a shortest witness word", _witness_args, _cmd_decide),
    ("reduce", "emit one of the constructions", _reduce_args, _cmd_reduce),
    ("index", "measure the rational index at one state count", _index_args, _cmd_index),
    ("check-log2", "run the instrumented certificate search", _check_log2_args, _cmd_check_log2),
)


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The `rr` parser: with every subcommand when command is None, else
    with only the named one.

    A command's subparser is the same either way, so `rr <command> ...`
    parses, and words its errors and help, alike on both.  Only the
    top-level choice list differs, and that shows only on `rr --help` and
    on a missing or unknown command, which main parses with every
    subcommand.
    """
    parser = _Parser(
        prog="rr",
        description="Decide regular realizability against fixed context-free filters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_line, add_arguments, handler in _COMMANDS:
        if command is None or command == name:
            p = sub.add_parser(name, help=help_line)
            add_arguments(p)
            p.set_defaults(func=handler)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Run one `rr` command (argv defaults to sys.argv[1:]); returns the
    exit code.

    Only the invoked command's parser is built when argv starts with a
    command name; help on rr itself and a missing or unknown command get
    the full parser.  A usage error or a bad input prints one
    `rr: error:` line and returns 2.
    """
    if argv is None:
        argv = sys.argv[1:]
    command = argv[0] if argv and any(argv[0] == entry[0] for entry in _COMMANDS) else None
    try:
        args = build_parser(command).parse_args(argv)
        return args.func(args)
    except (InputError, ContractError, UnsupportedFilterError, OSError) as exc:
        print(f"rr: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

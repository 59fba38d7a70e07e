"""Command-line interface.

Exit codes follow one convention across commands: 0 means true/nonempty,
1 means false/empty, 2 means any error (bad usage, unreadable file,
contract violation, internal error: see main).  Words on the command
line are space-separated symbol tokens, e.g. --word "a1 a2 abar2 abar1".
JSON output is emitted with sorted keys so golden files stay byte-stable.

Each input file is read with one unbuffered binary read and decoded as
strict UTF-8, with universal newlines: "\r\n" and a lone "\r" read as
"\n", as in text mode.  One leading byte-order mark is dropped.  The
--json and --stats reports are written by the package's JSON writer
(automata.report_json), byte for byte what json.dumps(report, indent=2,
sort_keys=True) prints.

Each command's options are declared once, as rows of _COMMANDS.  A
command line in the canonical spelling is read from a table built from
those rows once, at import; argparse, built from the same rows, handles
every other spelling and alone prints help screens and usage errors.  So
a launch that runs a well-formed command imports neither argparse nor
gettext.

The targets of `rr reduce` are the rows of _REDUCTIONS.  A row declares
the inputs its target reads, the name of its construction in
rrkit.reductions, the text it prints and its --emit-stats figures, and
_cmd_reduce runs every row on one path.

main runs each command handler with the cyclic garbage collector paused.
No rrkit command leaves a reference cycle behind (tests/test_cli.py checks
that gc.collect() finds nothing after each), so the collections that the
large outputs of `rr reduce` would set off find nothing; every object is
freed by reference counting as before.  Parsing runs outside the pause,
and no other module touches the collector, so a library caller keeps
whatever setting it has.
"""
from __future__ import annotations

import gc
import json
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, NoReturn, Optional

from . import reductions
from .automata import Nfa, report_json
from .engine import METHODS, log2_check, nrr_decide, rational_index
from .errors import ContractError, InputError, UnsupportedFilterError
from .filters import parse_filter_name
from .grammars import format_grammar, parse_grammar

if TYPE_CHECKING:
    import argparse


def _load(path: str, parse):
    """parse applied to the text of the file at path, with every error
    prefixed by the path.

    The file is read in one unbuffered read and decoded as strict UTF-8,
    dropping one leading byte-order mark, which would otherwise start the
    first symbol; "\r\n" and a lone "\r" become "\n", as text mode's
    universal newlines make them, so a JSON error names the same line.
    """
    try:
        with open(path, "rb", buffering=0) as fh:
            text = fh.read().decode("utf-8").removeprefix("\ufeff")
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        return parse(text)
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc.reason}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    except RecursionError:
        raise InputError(f"{path}: nested too deeply") from None
    except ValueError as exc:
        # the parser's InputError, or one of json's own, such as an
        # integer over the interpreter's digit limit
        raise InputError(f"{path}: {exc}") from exc


def _print_json(data) -> None:
    sys.stdout.write(report_json(data))


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


# One row per `rr reduce` target, in the order its help lists them: the
# inputs it reads, in load order, each parsed by _PARSERS; its construction,
# named in rrkit.reductions, looked up when the row runs and called on them;
# the text it prints of the result; and the figures that --emit-stats prints.
_PARSERS = {"grammar": parse_grammar, "nfa": Nfa.from_json}
_REDUCTIONS = {
    "bar-hillel": (
        ("grammar", "nfa"), "bar_hillel", format_grammar,
        lambda g: {"nonterminals": len(g.nonterminals), "rules": len(g.rules)},
    ),
    "cs": (
        ("grammar",), "cs_transducer", lambda t: t.to_json(),
        lambda t: {"states": len(t.states), "transitions": len(t.transitions)},
    ),
    "mark": (
        ("nfa",), "mark_automaton", lambda m: m.nfa.to_json(),
        lambda m: {"height_bound": max(m.height.values()), "states": len(m.nfa.states)},
    ),
    "ssharpup": (
        ("nfa",), "reduce_d2_to_ssharpup", Nfa.to_json,
        lambda a: {"states": len(a.states)},
    ),
}


def _cmd_reduce(args) -> int:
    inputs, construction, text, stats = _REDUCTIONS[args.target]
    for name in inputs:
        if getattr(args, name) is None:
            raise InputError(f"reduce {args.target} requires --{name}")
    build = getattr(reductions, construction)
    result = build(*[_load(getattr(args, name), _PARSERS[name]) for name in inputs])
    sys.stdout.write(text(result))
    if args.emit_stats:
        print(json.dumps(stats(result), sort_keys=True), file=sys.stderr)
    return 0


def _cmd_index(args) -> int:
    value = rational_index(parse_filter_name(args.filter), args.states, args.sample, args.seed)
    if args.json:
        mode = "exhaustive" if args.sample is None else "sample"
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


_FILTER = (
    "--filter",
    {"required": True, "help": "filter name: dyck1, dyck2, dyckN:k, sym, symsharp, ssharpup"},
)
_NFA = ("--nfa", {"required": True, "help": "automaton JSON file"})
_JSON_REPORT = ("--json", {"action": "store_true", "help": "emit the decision report as JSON"})

# One row per command, in the order `rr --help` lists them: (name, help
# line, options, handler).  Each option is (flag or positional name,
# add_argument keywords), in the order the command's help lists them.
# build_parser hands the rows to argparse and _plain_table reads them, so
# the keywords stay within what _plain_table knows: required, default,
# choices, type, action="store_true" and help.
_COMMANDS = (
    ("member", "test one word against a filter", (
        _FILTER,
        ("--word", {"required": True, "help": "space-separated symbol tokens ('' is the empty word)"}),
    ), _cmd_member),
    ("decide", "decide whether the automaton meets the filter", (
        _FILTER,
        _NFA,
        ("--method", {
            "choices": METHODS,
            "default": "auto",
            "help": "decision route; log2 runs the instrumented certificate search",
        }),
        _JSON_REPORT,
    ), _cmd_decide),
    ("witness", "print a shortest witness word", (
        _FILTER,
        _NFA,
        ("--method", {
            "choices": tuple(m for m in METHODS if m != "log2"),  # log2 gives no word
            "default": "auto",
            "help": "decision route",
        }),
        _JSON_REPORT,
    ), _cmd_decide),
    ("reduce", "emit one of the constructions", (
        ("target", {
            "choices": tuple(_REDUCTIONS),
            "help": "bar-hillel: product grammar; cs: shape transducer; "
            "mark: height-marked automaton; ssharpup: one-filter embedding",
        }),
        ("--grammar", {"help": "grammar text file (bar-hillel, cs)"}),
        ("--nfa", {"help": "automaton JSON file (bar-hillel, mark, ssharpup)"}),
        ("--emit-stats", {"action": "store_true", "help": "print a stats JSON line to stderr"}),
    ), _cmd_reduce),
    ("index", "measure the rational index at one state count", (
        _FILTER,
        ("--states", {"type": int, "required": True, "help": "states of each machine measured"}),
        ("--sample", {
            "type": int,
            "default": None,
            "help": "sample this many machines instead of enumerating",
        }),
        ("--seed", {"type": int, "default": 0, "help": "sampling seed (default: 0)"}),
        ("--json", {"action": "store_true", "help": "emit the index report as JSON"}),
    ), _cmd_index),
    ("check-log2", "run the instrumented certificate search", (
        ("--grammar", {"required": True, "help": "grammar text file (converted to CNF)"}),
        ("--nfa", {"required": True, "help": "automaton JSON file (epsilon moves allowed)"}),
        ("--stats", {
            "action": "store_true",
            "help": "print the instrumentation JSON instead of the verdict",
        }),
    ), _cmd_check_log2),
)


def _dest(name: str) -> str:
    """The attribute argparse stores an option or positional under."""
    return name.lstrip("-").replace("-", "_")


def _plain_table(command: str, options: tuple, handler) -> tuple:
    """What _parse_plain reads of one command's rows: its flags, each
    mapped to (dest, store_true, type, choices); its positionals' tuples
    of the same, in order; the namespace before any token is read, which
    holds the command, its handler and each optional flag's argparse
    default; and the set of dests that must be given."""
    flags = {}
    positionals = []
    start = {"command": command, "func": handler}
    required = set()
    for name, keywords in options:
        dest = _dest(name)
        store_true = keywords.get("action") == "store_true"
        spec = (dest, store_true, keywords.get("type"), keywords.get("choices"))
        if not name.startswith("-"):
            positionals.append(spec)
            required.add(dest)
            continue
        flags[name] = spec
        if keywords.get("required"):
            required.add(dest)
        else:
            start[dest] = False if store_true else keywords.get("default")
    return flags, tuple(positionals), start, frozenset(required)


# _parse_plain's tables, by command name, built once from _COMMANDS
_PLAIN = {
    command: _plain_table(command, options, handler)
    for command, _, options, handler in _COMMANDS
}


def _parse_plain(argv: list[str]) -> Optional[SimpleNamespace]:
    """The namespace that build_parser().parse_args(argv) returns,
    read from the command's _PLAIN table without argparse; None unless
    argv is spelled the canonical way, and main then hands it to argparse.

    Canonical means that argv[0] is a command name and each later token is
    one of that command's flags exactly (no `--flag=value`, no
    abbreviation), the value after a valued flag, which must not start
    with `-`, or the command's positional, given once.  A value goes
    through type, then choices, as in argparse; a ValueError from type, a
    value outside the choices, or a missing required option or positional
    declines.  The last occurrence of an option wins, and unset options
    get argparse's defaults.
    """
    table = _PLAIN.get(argv[0]) if argv else None
    if table is None:
        return None
    flags, positionals, start, required = table
    values = dict(start)
    positional = iter(positionals)
    tokens = iter(argv[1:])
    for token in tokens:
        if token in flags:
            dest, store_true, convert, choices = flags[token]
            if store_true:
                values[dest] = True
                continue
            token = next(tokens, None)
            if token is None:
                return None
        else:
            spec = next(positional, None)
            if spec is None:
                return None
            dest, _, convert, choices = spec
        if token.startswith("-"):
            return None
        if convert is not None:
            try:
                token = convert(token)
            except ValueError:
                return None
        if choices is not None and token not in choices:
            return None
        values[dest] = token
    if not required <= values.keys():
        return None
    return SimpleNamespace(**values)


def build_parser() -> argparse.ArgumentParser:
    """The `rr` argparse parser, with every subcommand, built from
    _COMMANDS.

    main reaches it only for what _parse_plain declines: help screens,
    usage errors and the spellings it does not read.  So argparse is
    imported here, not on every launch.
    """
    import argparse

    class _Parser(argparse.ArgumentParser):
        """Reports usage errors as an InputError, so main prints them as
        one `rr: error:` line; subcommand parsers inherit the class."""

        def error(self, message: str) -> NoReturn:
            raise InputError(message)

    parser = _Parser(
        prog="rr",
        description="Decide regular realizability against fixed context-free filters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_line, options, handler in _COMMANDS:
        p = sub.add_parser(name, help=help_line)
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
        p.set_defaults(func=handler)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Run one `rr` command (argv defaults to sys.argv[1:]); returns the
    exit code.

    A command line in the canonical spelling (see _parse_plain) is read
    straight from the command table, without argparse.  Anything else
    goes to the full argparse parser (build_parser), which alone prints
    help screens and usage errors.  A usage error or a bad input prints
    one `rr: error:` line and returns 2, also when that line cannot be
    written, as when stderr is a closed pipe.  Any other exception is an
    internal error: its traceback goes to stderr, with no `rr: error:`
    line, and main returns 2, never the 1 of "empty".  SystemExit and
    KeyboardInterrupt pass through.

    The handler runs with the cyclic garbage collector disabled, and main
    enables it again afterwards only if it was enabled on entry, however
    the handler ends.
    """
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse_plain(argv)
        if args is None:
            args = build_parser().parse_args(argv)
        enabled = gc.isenabled()
        gc.disable()
        try:
            return args.func(args)
        finally:
            if enabled:
                gc.enable()
    except (InputError, ContractError, UnsupportedFilterError, OSError) as exc:
        try:
            print(f"rr: error: {exc}", file=sys.stderr)
        except OSError:
            pass
        return 2
    except Exception:
        import traceback

        try:
            traceback.print_exc()
        except OSError:
            pass
        return 2


if __name__ == "__main__":
    sys.exit(main())

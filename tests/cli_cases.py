"""The golden CLI scenarios.

Each case is (name, argv).  Paths are relative to the tests/ directory;
runners chdir there so recorded output never contains machine-specific
paths.  Regenerate the golden files with `python3 tests/make_goldens.py`
after an intentional output change, and eyeball the diff.

CASES are the answers, one transcript each in tests/data/golden/.
FRONT_END_CASES are the parser's own output, every help screen and the
usage-error lines, recorded together in tests/data/front_end.json at a
terminal width of FRONT_END_COLUMNS, since argparse wraps help text to
the width in $COLUMNS.

DEMOS are the scripts under demos/, each pinned by its standard output
in tests/data/demos/<name>.txt.
"""
import pathlib

CASES = [
    ("member-true", ["member", "--filter", "dyck2", "--word", "a1 a2 abar2 abar1"]),
    ("index-json", ["index", "--filter", "dyck1", "--states", "2", "--json"]),
    ("decide-plain", ["decide", "--filter", "dyck1", "--nfa", "data/pair.json"]),
    ("decide-json-empty", ["decide", "--filter", "dyck1", "--nfa", "data/odd.json", "--json"]),
    ("decide-counter-json", ["decide", "--filter", "dyck1", "--nfa", "data/pair.json", "--method", "counter", "--json"]),
    ("decide-log2-json", ["decide", "--filter", "dyck1", "--nfa", "data/eps.json", "--method", "log2", "--json"]),
    ("witness-sym", ["witness", "--filter", "sym", "--nfa", "data/sympair.json"]),
    ("reduce-bar-hillel", ["reduce", "bar-hillel", "--grammar", "data/d1.txt", "--nfa", "data/pair.json", "--emit-stats"]),
    ("reduce-cs", ["reduce", "cs", "--grammar", "data/tiny.txt", "--emit-stats"]),
    ("reduce-mark", ["reduce", "mark", "--nfa", "data/d2loop.json", "--emit-stats"]),
    ("reduce-ssharpup", ["reduce", "ssharpup", "--nfa", "data/d2pair.json", "--emit-stats"]),
    ("check-log2-stats", ["check-log2", "--grammar", "data/d1.txt", "--nfa", "data/pair.json", "--stats"]),
]

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

COMMANDS = ["member", "decide", "witness", "reduce", "index", "check-log2"]

FRONT_END_COLUMNS = "80"

FRONT_END_CASES = [
    ("help", ["--help"]),
    ("help-short", ["-h"]),
    *((f"{cmd}-help", [cmd, "--help"]) for cmd in COMMANDS),
    ("unknown-command", ["frobnicate"]),
    ("missing-command", []),
    ("option-before-command", ["--json", "decide"]),
    *((f"{cmd}-no-options", [cmd]) for cmd in COMMANDS),
    ("decide-bad-method", ["decide", "--filter", "dyck1", "--nfa", "data/pair.json", "--method", "nope"]),
    ("witness-bad-method", ["witness", "--filter", "dyck1", "--nfa", "data/pair.json", "--method", "log2"]),
    ("reduce-bad-target", ["reduce", "nope", "--nfa", "data/pair.json"]),
    ("reduce-mark-no-nfa", ["reduce", "mark"]),
    ("reduce-bar-hillel-no-nfa", ["reduce", "bar-hillel", "--grammar", "data/d1.txt"]),
    ("decide-unknown-flag", ["decide", "--filter", "dyck1", "--nfa", "data/pair.json", "--bogus"]),
    ("index-bad-states", ["index", "--filter", "dyck1", "--states", "two"]),
]


def run_case(argv, allow_exit=False):
    """Run one scenario in-process; returns (exit, stdout, stderr).

    A help screen ends in SystemExit; with allow_exit its code is the
    exit, otherwise it propagates."""
    import contextlib
    import io

    from rrkit.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            if not allow_exit:
                raise
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_demo(path):
    """Run one demo script in-process as __main__; returns its stdout."""
    import contextlib
    import io
    import runpy

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    return out.getvalue()

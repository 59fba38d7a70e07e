"""Command-line behavior.

The heart is the golden corpus: every scenario in cli_cases.CASES is
replayed in-process and compared byte for byte against the transcript in
tests/data/golden/, and every help screen and usage-error line in
cli_cases.FRONT_END_CASES against tests/data/front_end.json.  The
remaining tests cover exit-code conventions and error paths that do not
belong in frozen transcripts (their messages may embed absolute paths or
evolve with Python's own error strings), line endings, the report
writer against json.dumps, and hold the plain command-line reader to
argparse on a seeded corpus.  Last come the collector's pause around
each command and the check that no command leaves a reference cycle.
"""

import gc
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

import rrkit
from rrkit import cli
from rrkit.cli import main
from rrkit.filters import symmetric_sharp_grammar
from rrkit.grammars import format_grammar
from rrkit.reductions import D2_ALPHABET

from cli_cases import CASES, FRONT_END_CASES, FRONT_END_COLUMNS, run_case
from generators import random_nfa

TESTS_DIR = pathlib.Path(__file__).resolve().parent


@pytest.fixture()
def in_tests_dir(monkeypatch):
    monkeypatch.chdir(TESTS_DIR)


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_golden(name, argv, in_tests_dir):
    expected = json.loads((TESTS_DIR / "data" / "golden" / f"{name}.json").read_text())
    code, out, err = run_case(argv)
    assert code == expected["exit"]
    assert out == expected["stdout"]
    assert err == expected["stderr"]


def test_golden_corpus_is_complete():
    recorded = {p.stem for p in (TESTS_DIR / "data" / "golden").glob("*.json")}
    assert recorded == {name for name, _ in CASES}
    assert len(CASES) == 12


FRONT_END = json.loads((TESTS_DIR / "data" / "front_end.json").read_text())


@pytest.mark.parametrize("name,argv", FRONT_END_CASES, ids=[c[0] for c in FRONT_END_CASES])
def test_front_end_bytes(name, argv, in_tests_dir, monkeypatch):
    # argparse wraps help to $COLUMNS; pin it so the terminal cannot matter
    monkeypatch.setenv("COLUMNS", FRONT_END_COLUMNS)
    expected = FRONT_END[name]
    assert expected["argv"] == argv
    code, out, err = run_case(argv, allow_exit=True)
    assert code == expected["exit"]
    assert out == expected["stdout"]
    assert err == expected["stderr"]


def test_front_end_corpus_is_complete():
    assert set(FRONT_END) == {name for name, _ in FRONT_END_CASES}
    help_screens = [name for name, _ in FRONT_END_CASES if FRONT_END[name]["exit"] == 0]
    assert len(help_screens) == 8  # rr -h, rr --help and one per command


def test_member_false_exit(capsys):
    assert main(["member", "--filter", "sym", "--word", "x1 xbar2"]) == 1
    assert capsys.readouterr().out == "false\n"


def test_member_empty_word(capsys):
    assert main(["member", "--filter", "dyck1", "--word", ""]) == 0
    assert capsys.readouterr().out == "true\n"


def test_main_reads_sys_argv_by_default(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["rr", "member", "--filter", "dyck1", "--word", "a1 abar1"])
    assert main() == 0
    assert capsys.readouterr().out == "true\n"


def test_witness_none(in_tests_dir, capsys):
    assert main(["witness", "--filter", "dyck1", "--nfa", "data/odd.json"]) == 1
    assert capsys.readouterr().out == "none\n"


def test_witness_empty_word_is_an_empty_line(tmp_path, capsys):
    """The empty witness prints as an empty line, apart from the `none`
    of an empty intersection."""
    path = tmp_path / "start.json"
    path.write_text(rrkit.Nfa.build(("a1", "abar1"), "q", {"q"}, set()).to_json())
    assert main(["witness", "--filter", "dyck1", "--nfa", str(path)]) == 0
    assert capsys.readouterr().out == "\n"


def test_unreadable_nfa_is_exit_2(in_tests_dir, capsys):
    assert main(["decide", "--filter", "dyck1", "--nfa", "data/bad.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("rr: error: data/bad.json: line 1")


def test_missing_file_is_exit_2(in_tests_dir, capsys):
    assert main(["decide", "--filter", "dyck1", "--nfa", "data/nope.json"]) == 2
    assert "rr: error:" in capsys.readouterr().err


def test_unknown_filter_is_exit_2(capsys):
    assert main(["member", "--filter", "dyck0x", "--word", ""]) == 2
    assert "unknown filter" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["auto", "bar-hillel", "counter", "log2"])
def test_reduction_only_filter_is_exit_2(method, tmp_path, capsys):
    # over the filter's own letters, so the alphabet check passes
    nfa = tmp_path / "a.json"
    nfa.write_text(rrkit.Nfa.build(("a", "abar"), "q0", {"q1"}, {("q0", "a", "q1")}).to_json())
    err = assert_usage_error(
        capsys, ["decide", "--filter", "ssharpup", "--nfa", str(nfa), "--method", method]
    )
    assert ("no counter realization" if method == "counter" else "reduction target only") in err


@pytest.mark.parametrize(
    "field,value",
    [("states", "q0"), ("alphabet", "a1"), ("accepting", "q2"), ("transitions", "q0")],
)
def test_string_for_list_field_is_exit_2(field, value, tmp_path, capsys):
    # a string is not read as the list of its characters
    a = json.loads((TESTS_DIR / "data" / "pair.json").read_text())
    a[field] = value
    nfa = tmp_path / "strings.json"
    nfa.write_text(json.dumps(a))
    err = assert_usage_error(capsys, ["decide", "--filter", "dyck1", "--nfa", str(nfa)])
    assert str(nfa) in err and repr(field) in err


def test_one_state_written_as_string_is_exit_2(tmp_path, capsys):
    nfa = tmp_path / "q.json"
    nfa.write_text(json.dumps(
        {"states": "q", "alphabet": ["a1", "abar1"], "initial": "q", "accepting": "q",
         "transitions": []}
    ))
    err = assert_usage_error(capsys, ["decide", "--filter", "dyck1", "--nfa", str(nfa)])
    assert f"{nfa}: field 'states' must be a list, got str" in err


AUTOMATON_FIELDS = "'states', 'alphabet', 'initial', 'accepting' and 'transitions'"
MOVE_FIELDS = "'from', 'label' and 'to'"


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda a: [1, 2],
         f"an automaton must be an object with fields {AUTOMATON_FIELDS}, got list"),
        (lambda a: "q0",
         f"an automaton must be an object with fields {AUTOMATON_FIELDS}, got str"),
        (lambda a: {**a, "transitions": [1]},
         f"transition 0 must be an object with fields {MOVE_FIELDS}, got int"),
        (lambda a: {**a, "transitions": [{"from": "q0", "to": "q1"}]},
         f"transition 0 must be an object with fields {MOVE_FIELDS}, got one without 'label'"),
        (lambda a: {k: v for k, v in a.items() if k != "initial"},
         f"an automaton must be an object with fields {AUTOMATON_FIELDS},"
         " got one without 'initial'"),
    ],
    ids=["list", "string", "int-transition", "no-label", "no-initial"],
)
def test_malformed_automaton_names_the_expected_shape(edit, message, tmp_path, capsys):
    # each of these once printed Python's exception text, such as
    # "'int' object is not subscriptable"
    nfa = tmp_path / "shape.json"
    nfa.write_text(json.dumps(edit(json.loads((TESTS_DIR / "data" / "pair.json").read_text()))))
    err = assert_usage_error(capsys, ["witness", "--filter", "dyck1", "--nfa", str(nfa)])
    assert err == f"rr: error: {nfa}: {message}\n"


def test_deeply_nested_json_is_exit_2(tmp_path, capsys):
    # json.loads recurses once per bracket and gives up with RecursionError
    nfa = tmp_path / "deep.json"
    nfa.write_text("[" * 100000 + "]" * 100000)
    err = assert_usage_error(capsys, ["decide", "--filter", "dyck1", "--nfa", str(nfa)])
    assert err == f"rr: error: {nfa}: nested too deeply\n"


def test_log2_method_foreign_symbol_is_exit_2(in_tests_dir, capsys):
    argv = ["decide", "--filter", "dyck1", "--nfa", "data/sympair.json", "--method", "log2"]
    assert_usage_error(capsys, argv)


def test_counter_method_without_counter_filter(in_tests_dir, capsys):
    code = main(
        ["decide", "--filter", "sym", "--nfa", "data/sympair.json", "--method", "counter"]
    )
    assert code == 2
    assert "no counter realization" in capsys.readouterr().err


def test_counter_method_names_the_pair_count(in_tests_dir, capsys):
    argv = ["decide", "--filter", "dyck2", "--nfa", "data/pair.json", "--method", "counter"]
    err = assert_usage_error(capsys, argv)
    assert err == (
        "rr: error: no counter realization is registered for the dyck filter with 2 bracket"
        " pairs; only dyck1 has a counter route\n"
    )


def test_reduce_missing_required_input(capsys):
    assert main(["reduce", "mark"]) == 2
    assert "requires --nfa" in capsys.readouterr().err
    assert main(["reduce", "cs", "--nfa", "data/pair.json"]) == 2
    assert "requires --grammar" in capsys.readouterr().err


def test_reduce_checks_its_inputs_in_load_order(in_tests_dir, capsys):
    """The grammar is checked and loaded before the automaton: with
    neither given, the one error names --grammar; with both missing
    files, the grammar's path is the one that fails."""
    err = assert_usage_error(capsys, ["reduce", "bar-hillel"])
    assert err == "rr: error: reduce bar-hillel requires --grammar\n"
    err = assert_usage_error(
        capsys, ["reduce", "bar-hillel", "--grammar", "missing.txt", "--nfa", "missing.json"]
    )
    assert "missing.txt" in err
    assert "missing.json" not in err


@pytest.mark.parametrize("name, argv", [
    ("reduce-mark", ["reduce", "mark", "--grammar", "missing.txt", "--nfa", "data/d2loop.json"]),
    ("reduce-cs", ["reduce", "cs", "--grammar", "data/tiny.txt", "--nfa", "missing.json"]),
], ids=["mark", "cs"])
def test_reduce_never_reads_an_input_it_does_not_use(name, argv, in_tests_dir, capsys):
    expected = json.loads((TESTS_DIR / "data" / "golden" / f"{name}.json").read_text())
    assert main([*argv, "--emit-stats"]) == 0
    captured = capsys.readouterr()
    assert captured.out == expected["stdout"]
    assert captured.err == expected["stderr"]


def test_reduce_input_help_names_the_targets_that_read_it():
    """The --grammar and --nfa help lines list, in parentheses, exactly
    the _REDUCTIONS rows that read that input, in the rows' order."""
    (options,) = [options for name, _, options, _ in cli._COMMANDS if name == "reduce"]
    helps = dict(options)
    assert helps["target"]["choices"] == tuple(cli._REDUCTIONS)
    for name in ("grammar", "nfa"):
        listed = helps[f"--{name}"]["help"].partition("(")[2].rstrip(")").split(", ")
        readers = [target for target, row in cli._REDUCTIONS.items() if name in row[0]]
        assert listed == readers, name


def test_every_option_has_a_help_line():
    missing = [(command, flag) for command, _, options, _ in cli._COMMANDS
               for flag, keywords in options if not keywords.get("help")]
    assert missing == []


def test_reduce_ssharpup_without_accepting_state(tmp_path, capsys):
    nfa = tmp_path / "a.json"
    nfa.write_text(rrkit.Nfa.build(
        ("a1", "a2", "abar1", "abar2"), "q0", set(), {("q0", "a1", "q1")}
    ).to_json())
    assert main(["reduce", "ssharpup", "--nfa", str(nfa)]) == 0
    out = capsys.readouterr().out
    assert '"accepting": []' in out
    assert '"transitions": []' in out
    assert json.loads(out)["states"] == ["pre0"]


def test_reduce_bar_hillel_refuses_state_names_the_text_cannot_carry(tmp_path, capsys):
    """Product nonterminals [q,S,p] take the state names: a space or a "|"
    in one would split the symbol on reading back, so the command refuses
    it instead of printing text that parses as another grammar."""
    grammar = tmp_path / "g.txt"
    grammar.write_text("S -> a1 S abar1 |\n")
    for state in ("q 0", "q|1"):
        nfa = tmp_path / "a.json"
        nfa.write_text(rrkit.Nfa.build(
            ("a1", "abar1"), state, {state}, {(state, "a1", state)}
        ).to_json())
        err = assert_usage_error(
            capsys, ["reduce", "bar-hillel", "--grammar", str(grammar), "--nfa", str(nfa)]
        )
        assert "cannot be written" in err


def test_reduce_bar_hillel_empty_product_reads_back_empty(tmp_path, capsys):
    """With no accepting state the product axiom S' has no rule; the text
    keeps it the axiom, so the grammar read back derives no word."""
    grammar = tmp_path / "g.txt"
    grammar.write_text("S -> a1 S abar1 |\n")
    nfa = tmp_path / "a.json"
    nfa.write_text(rrkit.Nfa.build(("a1", "abar1"), "q", set(), {("q", "a1", "q")}).to_json())
    assert main(["reduce", "bar-hillel", "--grammar", str(grammar), "--nfa", str(nfa)]) == 0
    read_back = rrkit.parse_grammar(capsys.readouterr().out)
    assert read_back.axiom == "S'"
    assert read_back.shortest_word() is None


@pytest.mark.parametrize("rules, moves, axiom", [
    ("S -> a S' |", [("q0", "a", "q1"), ("q1", "S'", "q2")], "S''"),
    ("S -> [q,S,q] a |", [("q", "[q,S,q]", "p"), ("p", "a", "q2")], "S'"),
])
def test_reduce_bar_hillel_primes_names_past_the_terminals(rules, moves, axiom, tmp_path, capsys):
    """A terminal spelled like the product axiom S' or the triple [q,S,q]
    is no collision: the product's own name is primed past it."""
    grammar = tmp_path / "g.txt"
    grammar.write_text(rules + "\n")
    nfa = tmp_path / "a.json"
    labels = tuple(label for _, label, _ in moves)
    nfa.write_text(rrkit.Nfa.build(labels, moves[0][0], {"q2"}, set(moves)).to_json())
    assert main(["reduce", "bar-hillel", "--grammar", str(grammar), "--nfa", str(nfa)]) == 0
    read_back = rrkit.parse_grammar(capsys.readouterr().out)
    assert read_back.axiom == axiom
    assert read_back.shortest_word() == labels


def test_reduce_bar_hillel_golden_reads_back_as_the_product():
    """The product that the reduce-bar-hillel golden records keeps its
    terminals in the rule bodies, so its text reads back with the
    product's terminals and least word, not with triples as letters."""
    golden = json.loads((TESTS_DIR / "data" / "golden" / "reduce-bar-hillel.json").read_text())
    read_back = rrkit.parse_grammar(golden["stdout"])
    assert read_back.axiom == "S'"
    assert read_back.terminals == {"a1", "abar1"}
    assert read_back.shortest_word() == ("a1", "abar1")


def test_member_ssharpup_answers_deep_nesting(capsys):
    """5,000 nested blocks: m_inf_member reads the word in one pass, so
    the nesting is no recursion depth and the answer is true."""
    word = " ".join(["a"] * 5000 + ["abar"] * 5000)
    assert main(["member", "--filter", "ssharpup", "--word", word]) == 0
    assert capsys.readouterr().out == "true\n"


def test_reduce_bar_hillel_answers_a_long_rule(tmp_path, capsys):
    """A 1,500-letter rule: bar_hillel grows its bodies in a loop, so the
    body's length is no recursion depth and the product reads back."""
    grammar = tmp_path / "g.txt"
    grammar.write_text("S -> " + "a1 " * 1500 + "|\n")
    nfa = tmp_path / "a.json"
    nfa.write_text(rrkit.Nfa.build(("a1",), "q", {"q"}, {("q", "a1", "q")}).to_json())
    assert main(["reduce", "bar-hillel", "--grammar", str(grammar), "--nfa", str(nfa)]) == 0
    read_back = rrkit.parse_grammar(capsys.readouterr().out)
    assert ("[q,S,q]", ("a1",) * 1500) in read_back.rules
    assert read_back.shortest_word() == ()


def test_index_seed_flag_defaults_to_0(capsys):
    argv = ["index", "--filter", "dyck1", "--states", "3", "--sample", "40"]
    dyck1 = rrkit.parse_filter_name("dyck1")
    # seed 2's sample reads 6 where seed 0's reads 4, so the flag is seen
    for seed in (7, 2):
        assert main(argv + ["--seed", str(seed)]) == 0
        assert capsys.readouterr().out == f"{rrkit.rational_index(dyck1, 3, 40, seed)}\n"
    assert main(argv) == 0
    assert capsys.readouterr().out == f"{rrkit.rational_index(dyck1, 3, 40, 0)}\n"


def assert_usage_error(capsys, argv):
    """Exit 2 with exactly one `rr: error:` line on stderr, no traceback;
    returns that line."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert err.startswith("rr: error: ")
    assert "Traceback" not in err
    return err


def test_index_names_a_sample_that_misses_the_filter(capsys):
    argv = ["index", "--filter", "dyck2", "--states", "2"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "4\n"
    err = assert_usage_error(capsys, argv + ["--sample", "1", "--seed", "2"])
    assert err == (
        "rr: error: none of the 1 sampled 2-state machines meets the filter, "
        "so the sample leaves the index undefined\n"
    )


@pytest.mark.parametrize("count", ["0", "-5"])
def test_index_nonpositive_sample_is_exit_2(count, capsys):
    assert_usage_error(capsys, ["index", "--filter", "dyck1", "--states", "2", "--sample", count])


def test_non_utf8_inputs_are_exit_2(tmp_path, capsys):
    blob = tmp_path / "blob"
    blob.write_bytes(b"\xff")
    assert_usage_error(capsys, ["decide", "--filter", "dyck1", "--nfa", str(blob)])
    assert_usage_error(capsys, ["reduce", "cs", "--grammar", str(blob)])


# a grammar over several lines, so that its line breaks separate rules
LINE_GRAMMAR = "S -> a1 S abar1 | T\n# T doubles\nT -> S S |\n"


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
@pytest.mark.parametrize(
    "argv",
    [
        ["witness", "--json", "--filter", "dyck1", "--nfa", "NFA"],
        ["check-log2", "--grammar", "GRAMMAR", "--nfa", "NFA", "--stats"],
        ["reduce", "bar-hillel", "--grammar", "GRAMMAR", "--nfa", "NFA"],
        ["reduce", "cs", "--grammar", "GRAMMAR"],
    ],
    ids=["witness", "check-log2", "reduce-bar-hillel", "reduce-cs"],
)
def test_line_endings_read_as_newlines(argv, newline, tmp_path):
    """Automaton and grammar files written with "\\r\\n" or a lone "\\r"
    give the output and exit code of the same files written with "\\n"."""
    nfa_text = (TESTS_DIR / "data" / "pair.json").read_text()

    def run(ending):
        nfa, grammar = tmp_path / f"{len(ending)}.json", tmp_path / f"{len(ending)}.txt"
        nfa.write_bytes(nfa_text.replace("\n", ending).encode())
        grammar.write_bytes(LINE_GRAMMAR.replace("\n", ending).encode())
        paths = {"NFA": str(nfa), "GRAMMAR": str(grammar)}
        return run_case([paths.get(token, token) for token in argv])

    code, out, err = run("\n")
    assert (code, err) == (0, "")
    assert run(newline) == (code, out, err)


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_json_error_line_counts_every_line_ending(newline, tmp_path, capsys):
    """A JSON syntax error names the line that text mode's universal
    newlines gave it: "\\r\\n" and a lone "\\r" each end one line."""
    nfa = tmp_path / "a.json"
    nfa.write_bytes('{\n  "states": [\n    "q0",\n  ]\n}\n'.replace("\n", newline).encode())
    err = assert_usage_error(capsys, ["decide", "--filter", "dyck1", "--nfa", str(nfa)])
    assert err == f"rr: error: {nfa}: line 4: Expecting value\n"


BOM = "\ufeff".encode()


@pytest.mark.parametrize(
    "argv,bommed",
    [
        (["reduce", "cs", "--grammar", "data/d1.txt"], "data/d1.txt"),
        (["check-log2", "--grammar", "data/d1.txt", "--nfa", "data/pair.json"], "data/d1.txt"),
        (["decide", "--filter", "dyck1", "--nfa", "data/pair.json"], "data/pair.json"),
    ],
    ids=["reduce-cs", "check-log2", "decide"],
)
def test_leading_byte_order_mark_is_dropped(argv, bommed, in_tests_dir, tmp_path):
    """A file saved with a leading UTF-8 byte-order mark prints exactly
    what the same file without it prints: the mark does not start the
    grammar's first symbol, and JSON does not refuse it."""
    copy = tmp_path / pathlib.Path(bommed).name
    copy.write_bytes(BOM + (TESTS_DIR / bommed).read_bytes())
    expected = run_case(argv)
    assert expected[0] == 0
    assert run_case([str(copy) if token == bommed else token for token in argv]) == expected


def test_byte_order_mark_is_dropped_only_once_and_only_first(tmp_path):
    """Only one leading mark is dropped: a second one, or one later in
    the file, is read as the character it is."""
    path = tmp_path / "g.txt"
    for text, read in (("\ufeffS -> a1", "S -> a1"), ("\ufeff\ufeffS", "\ufeffS"),
                       ("S -> a1\ufeff", "S -> a1\ufeff"), ("S\n\ufeffT", "S\n\ufeffT")):
        path.write_bytes(text.encode())
        assert cli._load(str(path), str) == read


class ClosedPipe:
    """A stream whose every write fails, as a pipe's does once its
    reader has exited."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize(
    "argv",
    [
        ["check-log2", "--grammar", "data/d1.txt", "--nfa", "data/pair.json", "--stats"],
        ["check-log2", "--grammar", "data/d1.txt", "--nfa", "data/pair.json"],
        ["witness", "--json", "--filter", "dyck1", "--nfa", "data/pair.json"],
    ],
    ids=["stats", "verdict", "witness-json"],
)
def test_closed_stdout_and_stderr_is_exit_2(argv, in_tests_dir, monkeypatch):
    """When stdout is a closed pipe, the failed write is an error, exit 2;
    when stderr is closed too, so that the `rr: error:` line cannot be
    written either, main still returns 2, not the 1 of "empty"."""
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    monkeypatch.setattr(sys, "stderr", ClosedPipe())
    assert main(argv) == 2


def test_closed_stdout_prints_one_error_line(in_tests_dir, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    argv = ["check-log2", "--grammar", "data/d1.txt", "--nfa", "data/pair.json", "--stats"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "rr: error: [Errno 32] Broken pipe\n"


def test_internal_error_is_exit_2_with_its_traceback(in_tests_dir, monkeypatch, capsys):
    """An internal failure, here the witness re-check against a filter
    oracle that rejects every word, exits 2, never the 1 of "empty", and
    prints its traceback instead of an `rr: error:` line, so it still
    reads apart from an input error."""
    monkeypatch.setattr(rrkit.FilterSpec, "contains", lambda self, word: False)
    assert main(["decide", "--filter", "dyck1", "--nfa", "data/pair.json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("Traceback") and "rr: error:" not in err
    assert err.endswith("RuntimeError: internal error: witness rejected by the filter oracle\n")


def test_keyboard_interrupt_passes_through(in_tests_dir, monkeypatch):
    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "nrr_decide", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["decide", "--filter", "dyck1", "--nfa", "data/pair.json"])


@pytest.mark.parametrize(
    "argv",
    [
        ["member", "--filter", "-y", "--word", ""],  # a value that reads as a flag
        ["decide", "--filter", "dyck1"],  # a missing required option
        ["decide", "--filter", "dyck1", "--nfa", "data/pair.json", "--bogus"],  # an unknown flag
        ["index", "--filter", "dyck1", "--states", "two"],  # a bad --states type
        ["witness", "--filter", "dyck1", "--nfa", "data/pair.json", "--method", "log2"],  # a bad choice
        ["frobnicate"],  # an unknown command
        [],  # no command
    ],
)
def test_usage_errors_are_one_line(argv, in_tests_dir, capsys):
    assert_usage_error(capsys, argv)


@pytest.mark.parametrize("argv", [["--help"], ["decide", "--help"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: rr")


def test_index_exhaustive_too_large_is_exit_2(capsys):
    assert main(["index", "--filter", "dyck1", "--states", "4"]) == 2
    assert "rr: error:" in capsys.readouterr().err


def test_index_sample_too_large_is_exit_2(capsys):
    assert_usage_error(capsys, ["index", "--filter", "dyck1", "--states", "3000", "--sample", "1"])


def test_huge_bracket_pair_count_is_exit_2(capsys):
    argv = ["member", "--filter", "dyckN:99999999999999999999", "--word", "a1"]
    assert "limited to k <= 10000" in assert_usage_error(capsys, argv)


@pytest.mark.parametrize("sample", [[], ["--sample", "6"]])
def test_index_reduction_only_filter_is_exit_2(sample, capsys):
    err = assert_usage_error(capsys, ["index", "--filter", "ssharpup", "--states", "1", *sample])
    assert "reduction target only" in err


def test_check_log2_verdict_exit(in_tests_dir, capsys):
    assert main(["check-log2", "--grammar", "data/d1.txt", "--nfa", "data/odd.json"]) == 1
    assert capsys.readouterr().out == "empty\n"


def test_check_log2_terminal_outside_nfa_alphabet_is_exit_2(in_tests_dir, tmp_path, capsys):
    a = json.loads((TESTS_DIR / "data" / "pair.json").read_text())
    a["alphabet"] = ["a1"]
    a["transitions"] = [t for t in a["transitions"] if t["label"] == "a1"]
    nfa = tmp_path / "a1-only.json"
    nfa.write_text(json.dumps(a))
    assert_usage_error(capsys, ["check-log2", "--grammar", "data/d1.txt", "--nfa", str(nfa)])


def run_module(argv):
    """`python -m rrkit.cli *argv` in a child process.

    Callers change the cwd, so a relative PYTHONPATH such as `src` would
    no longer resolve in the child; its env leads with the absolute source
    root of the `rrkit` imported here.
    """
    src_root = str(pathlib.Path(rrkit.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src_root, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "rrkit.cli", *argv], capture_output=True, text=True, env=env
    )


def test_console_entry_point_parity(in_tests_dir):
    """`python -m rrkit.cli` (the `__main__` guard, not the installed `rr`
    script) gives the same exit code and stdout as in-process `main`."""
    proc = run_module(["decide", "--filter", "dyck1", "--nfa", "data/pair.json"])
    code, out, _ = run_case(["decide", "--filter", "dyck1", "--nfa", "data/pair.json"])
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == out


@pytest.mark.parametrize(
    "argv",
    [
        ["witness", "--json", "--filter", "dyck1", "--nfa", "data/pair.json"],
        ["--help"],
        [],  # exit 2, one `rr: error:` line
    ],
    ids=["witness", "help", "no-arguments"],
)
def test_module_run_reads_sys_argv(argv, in_tests_dir, monkeypatch):
    """`python -m rrkit.cli` calls main() with no argv, so main reads
    sys.argv itself; stdout, stderr and the exit code match main(argv)."""
    monkeypatch.setenv("COLUMNS", FRONT_END_COLUMNS)
    proc = run_module(argv)
    code, out, err = run_case(argv, allow_exit=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
    if not argv:
        assert code == 2 and len(err.splitlines()) == 1 and err.startswith("rr: error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["decide", "--filter", "dyck1"],
        ["witness", "--filter", "dyck1"],
        ["reduce", "mark"],
        ["reduce", "ssharpup"],
        ["check-log2", "--grammar", "data/d1.txt"],
    ],
    ids=["decide", "witness", "reduce-mark", "reduce-ssharpup", "check-log2"],
)
def test_integer_over_digit_limit_is_exit_2(argv, in_tests_dir, tmp_path, capsys):
    # json.loads raises a plain ValueError for an integer past
    # sys.get_int_max_str_digits(), not a JSONDecodeError
    nfa = tmp_path / "big.json"
    nfa.write_text('{"states": [' + "7" * 5000 + "]}")
    err = assert_usage_error(capsys, [*argv, "--nfa", str(nfa)])
    assert err.startswith(f"rr: error: {nfa}: ")


# The plain reader (cli._parse_plain) against argparse.  Values drawn for
# each option of a valid command line, by the option's dest; choices
# options draw from their choices.
PLAIN_VALUES = {
    "filter": ["dyck1", "dyck2", "sym", "x=y", ""],
    "word": ["a1 abar1", "", "a1"],
    "nfa": ["data/pair.json", "m.json", "x y"],
    "grammar": ["data/d1.txt", "g"],
    "states": ["0", "2", "12", " 3", "+3", "3_0", "\u0663"],
    "sample": ["1", "40"],
    "seed": ["0", "7"],
}
# Tokens a mutation inserts: help, the `--` separator, `-` alone, a
# negative number, `=` and abbreviated spellings, flags of another
# command, empty and odd strings, bad choices and non-integers.
PLAIN_INSERTIONS = [
    "-h", "--help", "--", "-", "-1", "--filter=dyck1", "--fil", "--emit", "", "-a b",
    " 3", "+3", "3_0", "\u0663", "nope", "log2", "mark", "cs", "two", "1.5", "0x3",
    "--json", "--stats", "--emit-stats", "--nfa", "--word", "--states", "--method",
]


def plain_corpus(rng, count):
    """count command lines: valid ones from cli._COMMANDS, options in
    shuffled order, optional ones sometimes left out and valued ones
    sometimes given twice; and the same with one token deleted, inserted,
    repeated or replaced."""
    corpus = []
    for _ in range(count):
        command, _, options, _ = rng.choice(cli._COMMANDS)
        chunks = []
        for name, keywords in options:
            positional = not name.startswith("-")
            if not (positional or keywords.get("required")) and rng.random() < 0.4:
                continue
            if keywords.get("action") == "store_true":
                chunks.append([name])
                continue
            pool = keywords.get("choices") or PLAIN_VALUES[cli._dest(name)]
            if positional:
                chunks.append([rng.choice(pool)])
                continue
            for _ in range(2 if rng.random() < 0.2 else 1):
                chunks.append([name, rng.choice(pool)])
        rng.shuffle(chunks)
        argv = [command, *(token for chunk in chunks for token in chunk)]
        mutation = rng.randrange(5)
        if mutation == 1:
            del argv[rng.randrange(len(argv))]
        elif mutation == 2:
            argv.insert(rng.randrange(len(argv) + 1), rng.choice(PLAIN_INSERTIONS))
        elif mutation == 3:
            argv.insert(rng.randrange(len(argv) + 1), rng.choice(argv))
        elif mutation == 4:
            argv[rng.randrange(len(argv))] = rng.choice(PLAIN_INSERTIONS)
        corpus.append((mutation == 0, argv))
    return corpus


def test_plain_reader_agrees_with_argparse():
    """Whenever the plain reader accepts a command line, argparse accepts
    it too, with equal attributes; and it accepts every valid line whose
    values do not start with `-`."""
    parser = cli.build_parser()
    accepted = 0
    for valid, argv in plain_corpus(random.Random(19), 10000):
        plain = cli._parse_plain(argv)
        if plain is None:
            assert not valid, argv
            continue
        accepted += 1
        assert vars(plain) == vars(parser.parse_args(argv)), argv
    assert accepted > 1000


def test_plain_reader_rows_use_known_keywords():
    """_parse_plain reads these add_argument keywords and no others."""
    known = {"required", "default", "choices", "type", "action", "help"}
    for _, _, options, _ in cli._COMMANDS:
        for _, keywords in options:
            assert set(keywords) <= known
            assert keywords.get("action", "store_true") == "store_true"


@pytest.mark.parametrize(
    "argv",
    [
        ["witness", "--help"],
        ["witness", "-h", "--filter", "dyck1", "--nfa", "data/pair.json"],
        ["witness", "--filter=dyck1", "--nfa", "data/pair.json"],
        ["witness", "--fil", "dyck1", "--nfa", "data/pair.json"],
        ["witness", "--filter", "dyck1", "--nfa", "data/pair.json", "--js"],
        ["member", "--filter", "-y", "--word", ""],
        ["member", "--filter", "dyck1", "--word", "-a1"],
        ["index", "--filter", "dyck1", "--states", "-1"],
        ["reduce", "mark", "mark", "--nfa", "data/d2loop.json"],
        ["reduce", "--nfa", "data/d2loop.json"],
        ["decide", "--filter", "dyck1"],
        ["decide", "--filter", "dyck1", "--nfa"],
        ["decide", "--", "--filter", "dyck1", "--nfa", "data/pair.json"],
        ["check-log2", "--grammar", "data/d1.txt", "--nfa", "data/odd.json", "extra"],
    ],
)
def test_plain_reader_declines_to_argparse(argv, in_tests_dir, monkeypatch):
    """What the plain reader declines prints what argparse alone printed:
    help, `=` and abbreviated spellings, values that start with `-`, a
    repeated or missing positional, a missing option or value, `--` and a
    stray word."""
    monkeypatch.setenv("COLUMNS", FRONT_END_COLUMNS)
    assert cli._parse_plain(argv) is None
    through_main = run_case(argv, allow_exit=True)
    monkeypatch.setattr(cli, "_parse_plain", lambda argv: None)
    assert through_main == run_case(argv, allow_exit=True)


def report_shapes():
    """One document of each shape the CLI prints with --json or --stats."""
    data = TESTS_DIR / "data"
    pair = rrkit.Nfa.from_json((data / "pair.json").read_text())
    odd = rrkit.Nfa.from_json((data / "odd.json").read_text())
    at_start = rrkit.Nfa.build(("a1", "abar1"), "q0", {"q0"}, ())
    dyck1 = rrkit.parse_filter_name("dyck1")
    d1 = rrkit.parse_grammar((data / "d1.txt").read_text()).cnf()
    return {
        "witness-word": rrkit.nrr_decide(pair, dyck1).to_dict(),
        "witness-empty-word": rrkit.nrr_decide(at_start, dyck1).to_dict(),
        "witness-null": rrkit.nrr_decide(odd, dyck1).to_dict(),
        "witness-counter": rrkit.nrr_decide(pair, dyck1, "counter").to_dict(),
        "log2-report": rrkit.nrr_decide(pair, dyck1, "log2").to_dict(),
        "index-json": {"index": rrkit.rational_index(dyck1, 2), "mode": "exhaustive", "states": 2},
        "check-log2-stats": rrkit.log2_check(d1, pair).to_dict(),
        "non-ascii": {
            "method": "caf\u00e9",
            "nonempty": True,
            "stats": {"\u00f1": -3, "z": None, "\u2028": False},
            "witness": ["\u00e4", "\U0001d51e", "\"\\\t"],
        },
        "empty-stats": {"nonempty": False, "stats": {}, "witness": []},
    }


def test_report_writer_matches_json_dumps(capsys):
    """_print_json prints json.dumps(doc, indent=2, sort_keys=True) and a
    newline, byte for byte, for every shape of report the CLI prints."""
    shapes = report_shapes()
    assert shapes["witness-word"]["witness"] == ["a1", "abar1"]
    assert shapes["witness-empty-word"]["witness"] == []
    assert shapes["witness-null"]["witness"] is None
    assert shapes["log2-report"]["stats"]["result"] is True
    assert shapes["check-log2-stats"]["result"] is True
    for name, doc in shapes.items():
        cli._print_json(doc)
        assert capsys.readouterr().out == json.dumps(doc, indent=2, sort_keys=True) + "\n", name
    cli._print_json(shapes["non-ascii"])
    out = capsys.readouterr().out
    assert out.isascii() and '"caf\\u00e9"' in out and '"\\ud835\\udd1e"' in out
    cli._print_json({})
    assert capsys.readouterr().out == "{}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["witness", "--json", "--filter", "dyck1", "--nfa", "data/pair.json"],
        ["decide", "--json", "--filter", "dyck1", "--nfa", "data/eps.json", "--method", "log2"],
        ["index", "--filter", "dyck1", "--states", "2", "--json"],
        ["check-log2", "--grammar", "data/d1.txt", "--nfa", "data/pair.json", "--stats"],
    ],
    ids=["witness", "decide-log2", "index", "check-log2"],
)
def test_json_reports_skip_the_pure_python_encoder(argv, in_tests_dir, monkeypatch, capsys):
    """A well-formed request that prints a JSON report never reaches
    json's pure-Python encoder, a generator step per token."""

    def refuse(*args, **kwargs):
        raise AssertionError("json's pure-Python encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    assert main(argv) == 0
    out = capsys.readouterr().out
    monkeypatch.undo()
    assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out


@pytest.mark.parametrize(
    "argv",
    [
        ["reduce", "mark", "--nfa", "data/d2pair.json"],
        ["reduce", "ssharpup", "--nfa", "data/d2pair.json"],
        ["reduce", "cs", "--grammar", "data/d1.txt"],
    ],
    ids=["mark", "ssharpup", "cs"],
)
def test_reduce_skips_the_pure_python_encoder(argv, in_tests_dir, monkeypatch, capsys):
    """`rr reduce` writes its machine through automata.machine_json and
    never reaches json's pure-Python encoder, a generator step per token;
    the text is still what json.dumps(indent=2, sort_keys=True) writes."""

    def refuse(*args, **kwargs):
        raise AssertionError("json's pure-Python encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    assert main(argv) == 0
    out = capsys.readouterr().out
    monkeypatch.undo()
    doc = json.loads(out)
    assert doc["transitions"]
    assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == out


def test_command_launch_loads_no_argparse(in_tests_dir):
    """A launch that runs a well-formed command imports neither argparse
    nor gettext; `rr witness --help` still prints the pinned screen."""
    src_root = str(pathlib.Path(rrkit.__file__).resolve().parent.parent)
    code = f"""
import contextlib, io, json, sys
sys.path.insert(0, {src_root!r})
from rrkit.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    exit_code = main(["witness", "--json", "--filter", "dyck1", "--nfa", "data/pair.json"])
loaded = sorted({{"argparse", "gettext"}} & set(sys.modules))
screen = io.StringIO()
with contextlib.redirect_stdout(screen):
    try:
        main(["witness", "--help"])
    except SystemExit as exc:
        help_exit = exc.code
print(json.dumps([exit_code, loaded, help_exit, screen.getvalue()]))
"""
    env = {**os.environ, "COLUMNS": FRONT_END_COLUMNS}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    exit_code, loaded, help_exit, screen = json.loads(proc.stdout)
    assert exit_code == 0
    assert loaded == []
    assert (help_exit, screen) == (0, FRONT_END["witness-help"]["stdout"])


@pytest.fixture()
def collector():
    """Puts the collector back as the test found it."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize(
    "ending, nfa, code",
    [
        ("nonempty", "data/pair.json", 0),
        ("empty", "data/odd.json", 1),
        ("input-error", "data/nope.json", 2),
        ("internal-error", "data/pair.json", 2),
    ],
    ids=["nonempty", "empty", "input-error", "internal-error"],
)
@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_main_gives_the_collector_back_as_it_found_it(
    ending, nfa, code, enabled, collector, in_tests_dir, monkeypatch, capsys
):
    """The handler runs with the collector paused, and main leaves it as
    it was on entry after an answer, an `rr: error:` exit and an internal
    error alike."""
    paused = []
    load = cli._load

    def recording(path, parse):
        paused.append(not gc.isenabled())
        if ending == "internal-error":
            raise RuntimeError("handler failed")
        return load(path, parse)

    monkeypatch.setattr(cli, "_load", recording)
    if enabled:
        gc.enable()
    else:
        gc.disable()
    assert main(["decide", "--filter", "dyck1", "--nfa", nfa]) == code
    assert gc.isenabled() == enabled
    assert paused == [True]
    err = capsys.readouterr().err
    assert err.startswith("rr: error:") == (ending == "input-error")
    assert err.endswith("RuntimeError: handler failed\n") == (ending == "internal-error")


def leaves_no_cycles(argv):
    """The exit code of argv run through main with the collector off,
    once gc.collect() has found nothing left behind: every object the
    command made was freed by reference counting, so pausing the
    collector cannot grow memory."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        code, _, _ = run_case(argv)
        found = gc.collect()
    finally:
        if enabled:
            gc.enable()
    assert found == 0, f"{argv} left {found} objects in reference cycles"
    return code


@pytest.mark.parametrize(
    "argv",
    [argv for _, argv in CASES]
    + [
        ["decide", "--filter", "dyck1", "--nfa", "data/bad.json"],
        ["decide", "--filter", "dyck1", "--nfa", "data/nope.json"],
    ],
    ids=[name for name, _ in CASES] + ["bad-json", "missing-file"],
)
def test_command_leaves_no_cycles(argv, in_tests_dir):
    leaves_no_cycles(argv)


def test_large_reductions_leave_no_cycles(tmp_path):
    """The constructions with the largest outputs: ssharpup and mark on a
    4-state two-pair machine with epsilon moves, and cs on the symsharp
    grammar."""
    a = random_nfa(random.Random(5), max_states=4, min_states=4, alphabet=D2_ALPHABET,
                   allow_epsilon=True)
    nfa = tmp_path / "d2.json"
    nfa.write_text(a.to_json())
    grammar = tmp_path / "symsharp.txt"
    grammar.write_text(format_grammar(symmetric_sharp_grammar()))
    for argv in (
        ["reduce", "ssharpup", "--nfa", str(nfa)],
        ["reduce", "mark", "--nfa", str(nfa)],
        ["reduce", "cs", "--grammar", str(grammar)],
    ):
        assert leaves_no_cycles(argv) == 0

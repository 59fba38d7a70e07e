"""Seeded property test of the CLI error contract.

Every golden scenario is replayed in-process with one input corrupted:
a truncated file, a value of the wrong JSON type, bytes that are not
UTF-8, a state name that is not a string, or an unknown filter name.
Whatever the corruption, the command either answers (exit 0 or 1, no
error line) or fails with exit 2 and exactly one `rr: error:` line on
stderr; it never raises and never prints a traceback.
"""

import json
import pathlib
import random

from cli_cases import CASES, run_case

TESTS_DIR = pathlib.Path(__file__).resolve().parent

TRIALS = 400
WRONG_TYPES = [0, 7, 1.5, -2, True, False, None, "", "x", [], [1], ["q0", 3], {}, {"from": "q0"}]
NON_STRINGS = [0, 7, 1.5, True, False, None]
NEAR_MISSES = [
    "", "dyck", "dyck0x", "dyck3", "DYCK1", "dyck1 ", " sym", "symsharp2",
    "ssharp", "dyckN:", "dyckN:a1", "dyckN:1.5", "dyckN:0", "dyckN:-1",
    "dyckN:+3", "dyckN: 2", "dyckN:1_0", "dyckN:\u0663",
]


def truncate(data, rng):
    return data[: rng.randrange(len(data))]


def non_utf8(data, rng):
    pos = rng.randrange(len(data) + 1)
    return data[:pos] + rng.choice([b"\xff", b"\x80", b"\xc3\x28", b"\xed\xa0\x80"]) + data[pos:]


def wrong_type(data, rng):
    doc = json.loads(data)
    spot = rng.randrange(3)
    if spot == 0:
        doc = rng.choice(WRONG_TYPES)
    elif spot == 1 or not doc["transitions"]:
        doc[rng.choice(sorted(doc))] = rng.choice(WRONG_TYPES)
    else:
        move = rng.choice(doc["transitions"])
        move[rng.choice(["from", "label", "to"])] = rng.choice(WRONG_TYPES)
    return json.dumps(doc).encode()


def non_string_state(data, rng):
    doc = json.loads(data)
    old = rng.choice(doc["states"])
    new = rng.choice(NON_STRINGS)
    everywhere = rng.random() < 0.5

    def swap(value):
        return new if value == old and (everywhere or rng.random() < 0.5) else value

    doc["states"] = [swap(q) for q in doc["states"]]
    doc["accepting"] = [swap(q) for q in doc["accepting"]]
    doc["initial"] = swap(doc["initial"])
    for move in doc["transitions"]:
        move["from"], move["to"] = swap(move["from"]), swap(move["to"])
    return json.dumps(doc).encode()


def unknown_filter(rng):
    if rng.random() < 0.5:
        return rng.choice(NEAR_MISSES)
    return "".join(rng.choice("xyz#é:-_ \t") for _ in range(rng.randrange(1, 8)))


def mutate(argv, rng, tmp_path, trial):
    """One corrupted copy of argv and a label for the failure message."""
    argv = list(argv)
    files = [i + 1 for i, arg in enumerate(argv) if arg in ("--nfa", "--grammar")]
    if "--filter" in argv and (not files or rng.random() < 0.2):
        # the --filter=NAME form keeps a name such as "-y" from reading as a flag
        pos = argv.index("--filter")
        argv[pos : pos + 2] = [f"--filter={unknown_filter(rng)}"]
        return argv, argv[pos]
    if not files:
        return None, None
    pos = rng.choice(files)
    data = (TESTS_DIR / argv[pos]).read_bytes()
    mutators = [truncate, non_utf8]
    if argv[pos - 1] == "--nfa":
        mutators += [wrong_type, non_string_state]
    mutator = rng.choice(mutators)
    blob = mutator(data, rng)
    path = tmp_path / f"input{trial}"
    path.write_bytes(blob)
    argv[pos] = str(path)
    return argv, f"{mutator.__name__} of {argv[pos - 1]}: {blob[:200]!r}"


def test_near_miss_filter_names_fail_with_one_error_line():
    for name in NEAR_MISSES:
        code, out, err = run_case(["member", f"--filter={name}", "--word", "a1"])
        assert (code, out) == (2, ""), (name, code, out)
        assert len(err.splitlines()) == 1 and err.startswith("rr: error: "), (name, err)


def test_corrupted_inputs_fail_with_one_error_line(tmp_path, monkeypatch):
    monkeypatch.chdir(TESTS_DIR)
    rng = random.Random(2718)
    exits = {0: 0, 1: 0, 2: 0}
    for trial in range(TRIALS):
        name, argv = rng.choice(CASES)
        argv, label = mutate(argv, rng, tmp_path, trial)
        if argv is None:
            continue
        try:
            code, _, err = run_case(argv)
        except (Exception, SystemExit) as exc:
            raise AssertionError(f"{name}, {label}: raised {exc!r}") from exc
        lines = err.splitlines()
        errors = [line for line in lines if line.startswith("rr: error: ")]
        assert "Traceback" not in err, (name, label, err)
        assert code in exits, (name, label, code, err)
        assert (code == 2) == (len(errors) == 1), (name, label, code, err)
        if code == 2:
            assert lines == errors, (name, label, err)
        exits[code] += 1
    assert exits[2] > TRIALS // 2, exits

"""Regenerate the golden CLI transcripts in tests/data/golden/ and the
front-end transcript tests/data/front_end.json.

Run from anywhere: `python3 tests/make_goldens.py`.  Review the diff
before committing; the CLI tests compare byte for byte.
"""
import json
import os
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from cli_cases import CASES, FRONT_END_CASES, FRONT_END_COLUMNS, run_case


def main():
    os.chdir(HERE)
    golden = HERE / "data" / "golden"
    golden.mkdir(parents=True, exist_ok=True)
    for name, argv in CASES:
        code, out, err = run_case(argv)
        record = {"argv": argv, "exit": code, "stdout": out, "stderr": err}
        path = golden / f"{name}.json"
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"{name}: exit {code}, {len(out)}b stdout, {len(err)}b stderr")
    os.environ["COLUMNS"] = FRONT_END_COLUMNS
    front_end = {}
    for name, argv in FRONT_END_CASES:
        code, out, err = run_case(argv, allow_exit=True)
        front_end[name] = {"argv": argv, "exit": code, "stdout": out, "stderr": err}
    path = HERE / "data" / "front_end.json"
    path.write_text(json.dumps(front_end, indent=2, sort_keys=True) + "\n")
    print(f"front_end: {len(front_end)} cases")


if __name__ == "__main__":
    main()

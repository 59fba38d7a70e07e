"""Regenerate the golden CLI transcripts in tests/data/golden/, the
front-end transcript tests/data/front_end.json and the demo transcripts
in tests/data/demos/.

Run from anywhere: `python3 tests/make_goldens.py`.  The checkout's
src/ goes first on sys.path, so the goldens always come from the tree
beside them, with no install or PYTHONPATH.  Review the diff before
committing; the CLI tests compare byte for byte.
"""
import json
import os
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from cli_cases import CASES, DEMOS, FRONT_END_CASES, FRONT_END_COLUMNS, run_case, run_demo


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
    demos = HERE / "data" / "demos"
    demos.mkdir(exist_ok=True)
    for path in DEMOS:
        out = run_demo(path)
        (demos / f"{path.stem}.txt").write_text(out)
        print(f"demo {path.stem}: {len(out)}b stdout")


if __name__ == "__main__":
    main()

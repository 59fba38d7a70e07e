"""Each demo prints exactly its recorded transcript.

The demos run in-process, as `python3 demos/<name>.py` would run them,
and their standard output is compared byte for byte with
tests/data/demos/<name>.txt.  Regenerate with `python3 tests/make_goldens.py`
after an intentional output change.
"""
import pathlib

import pytest

from cli_cases import DEMOS, run_demo

RECORDED = pathlib.Path(__file__).resolve().parent / "data" / "demos"


def test_every_demo_is_recorded():
    assert len(DEMOS) == 8
    assert sorted(p.stem for p in DEMOS) == sorted(p.stem for p in RECORDED.glob("*.txt"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_transcript(path):
    assert run_demo(path).encode() == (RECORDED / f"{path.stem}.txt").read_bytes()

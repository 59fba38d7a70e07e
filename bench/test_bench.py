"""Tests of the benchmark itself: the checker, the seeded lists, smoke mode.

    python3 -m pytest -q bench/test_bench.py
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checker  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

POOL = workloads.load_pool()
ANSWERS = workloads.load_answers()


def first(cell: str, nonempty=None) -> dict:
    for item in POOL[cell]:
        if nonempty is None or ANSWERS[item["id"]]["nonempty"] is nonempty:
            return item
    raise LookupError(cell)


@pytest.fixture
def run_item(tmp_path):
    def run(item):
        code, out = workloads.execute(workloads.materialize([item], tmp_path)[0])
        assert checker.check(item, ANSWERS[item["id"]], code, out) is None
        return code, out

    return run


def test_checker_rejects_a_wrong_witness(run_item):
    item = first("witness/dyck2/4/plain/NE", nonempty=True)
    code, out = run_item(item)
    report = json.loads(out)
    wrong = dict(report, witness=report["witness"][::-1])
    assert checker.check(item, ANSWERS[item["id"]], code, json.dumps(wrong)) is not None
    # a valid but different witness breaks the recorded tie-break
    longer = dict(report, witness=["a1", "abar1"] + report["witness"])
    assert checker.check(item, ANSWERS[item["id"]], code, json.dumps(longer)) is not None


def test_checker_rejects_a_flipped_verdict(run_item):
    item = first("witness/sym/5/plain/E")
    code, out = run_item(item)
    flipped = dict(json.loads(out), nonempty=True)
    assert checker.check(item, ANSWERS[item["id"]], code, json.dumps(flipped)) is not None
    assert checker.check(item, ANSWERS[item["id"]], 1 - code, out) is not None
    item = first("log2/decide/dyck2/2")
    code, out = run_item(item)
    flipped = dict(json.loads(out), nonempty=False)
    assert checker.check(item, ANSWERS[item["id"]], code, json.dumps(flipped)) is not None


def test_checker_rejects_a_wrong_index_value(run_item):
    item = first("index/exhaustive/dyck1/2")
    code, out = run_item(item)
    assert checker.check(item, ANSWERS[item["id"]], code, f"{int(out) + 1}\n") is not None


def test_checker_rejects_a_changed_reduction(run_item):
    item = first("unfold/reduce-mark/2")
    code, out = run_item(item)
    assert checker.check(item, ANSWERS[item["id"]], code, out.replace("q0", "p0")) is not None


def test_membership_oracles():
    assert checker.dyck(("a1", "a2", "abar2", "abar1"), 2)
    assert not checker.dyck(("a1", "a2", "abar1", "abar2"), 2)
    assert checker.mirror(("x1", "x2", "xbar2", "xbar1"))
    assert checker.sharp_mirror(("#", "x1", "#", "xbar1"))
    assert not checker.sharp_mirror(("x1", "xbar1", "#"))
    assert checker.substituted_member(("a1", "abar1", "x1", "xbar1", "x2", "xbar2"))
    assert not checker.substituted_member(("a1", "x1", "xbar1", "abar1"))


def test_lists_are_seeded():
    ids = lambda seed: [it["id"] for it in workloads.build_list("witness", seed, POOL)]
    assert ids(3) == ids(3)
    assert ids(3) != ids(4)
    for name, cells in workloads.CELLS.items():
        assert sum(c["count"] for c in cells) >= 100, name


def test_times_are_taken_at_reference_pace():
    gc_was_on = run.gc.isenabled()
    assert run.pace() > 0
    assert run.gc.isenabled() == gc_was_on
    timed = run.Run.__new__(run.Run)
    # (measured seconds, pace) per pass: a pass at half speed, one at
    # reference pace, one slowed down inside the request only
    timed.times = [[(0.4, 2 * run.PACE_S), (0.2, run.PACE_S), (0.9, run.PACE_S)],
                   [(0.01, run.PACE_S), (0.02, 2 * run.PACE_S), (0.03, 3 * run.PACE_S)]]
    assert timed.latencies() == pytest.approx([0.2, 0.01])
    assert timed.wall() == pytest.approx(0.21)


def test_ticks_read_the_pace_inside_a_request(tmp_path):
    timed = run.Run("index", 1, True, tmp_path)
    timed.requests = [{"item": {"id": "spin"}, "argv": None}]
    timed.times = [[]]
    timed.check = lambda item, answer, code, out: None
    timed.answers = {"spin": {}}

    def spin(request):
        end = run.time.perf_counter() + 0.35
        while run.time.perf_counter() < end:
            pass
        return 0, None

    timed.execute = spin
    timed.replay(1)
    (elapsed, reference), = timed.times[0]
    assert len(timed.paces) >= 3  # the reading before, and a tick each 0.1 s
    assert timed.stolen > 0
    assert elapsed == pytest.approx(0.35 - timed.stolen, abs=0.005)  # the ticks' time is taken out
    assert reference == pytest.approx(sum(timed.paces) / len(timed.paces))


def test_smoke_prints_every_metric():
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    assert json.loads(lines[-1])["correct"] is True
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    printed = {tuple(line.split()[:2]) for line in lines[:-1]}
    for workload in spec["workloads"]:
        for metric in spec["end_to_end"] + spec["per_layer"]:
            assert (workload["name"], metric["name"]) in printed


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "witness", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert done.stdout == ""

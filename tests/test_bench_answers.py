"""Every benchmark request, replayed once, gives its recorded answer.

The benchmark under bench/ pins an answer for each of its requests: the
digest of each `rr reduce` output, each shortest witness, each rational
index value and each verdict.  Its own runs check them, but the unit
tests would not; so each workload's seed-1 request list is built,
written to a temporary directory and run in-process here, and every
output is checked by bench/checker.py, which does not import rrkit.
Nothing under bench/ is written.
"""
import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import checker  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.CELLS))
def test_every_request_gives_its_recorded_answer(workload, tmp_path):
    answers = workloads.load_answers()
    items = workloads.build_list(workload, 1, workloads.load_pool())
    requests = workloads.materialize(items, tmp_path)
    assert len(requests) >= 100
    wrong = {}
    for request in requests:
        item = request["item"]
        reason = checker.check(item, answers[item["id"]], *workloads.execute(request))
        if reason is not None:
            wrong[item["id"]] = reason
    assert wrong == {}

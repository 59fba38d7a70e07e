"""rrkit benchmark runner.

    python3 bench/run.py --workload witness --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

Run from the root of a source checkout; rrkit is imported from its
`src/` directory, nowhere else.  One process, one caller, closed loop:
the next request starts when the previous one has returned, and no other
thread or process runs while requests are timed.

A run writes the input files of the workload's request list, renamed
and ordered by the seed, then replays the list a fixed number of passes
(`workloads.PASSES`, scaled by `--seconds` over BENCHMARK.json's
run_seconds, at least one).  Right before each request, and every
TICK_S while it runs, the runner times a fixed piece of its own work
(`pace`); a request's time is taken at reference pace: its measured time
scaled by PACE_S over its mean pace, the median over the passes (see
`Run.latencies`).  Every
output is checked against the recorded known answers and the
independent checker; a wrong output, a wrong exit code or an exception
counts as failed.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  With `--trace 0` the metrics are BENCHMARK.json's
end_to_end list; with `--trace 1` the calls into rrkit's layers are
traced and the metrics are its per_layer list, each request counted at
its median pass.  The spans of the first traced pass, and each request's
sizes and time, are written to `.bench_work/` when the run ends.
`--smoke` runs the two smallest requests of each kind of every workload
and prints every metric of both kinds.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_LAUNCHES = 15
# Passes and set-up launches take turns on the cores the process may use.
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []

# Reference pace: about what `pace()` takes on the development machine
# (2-vCPU Xeon VM, Python 3.11) when its neighbours are quiet.
PACE_S = 0.0015
# While an untraced request runs, `pace` runs again every TICK_S seconds.
TICK_S = 0.1
_PACE_RNG = random.Random(7)
_PACE_GRAPH = [[_PACE_RNG.randrange(600) for _ in range(4)] for _ in range(600)]


def pace() -> float:
    """Seconds taken by a fixed breadth-first search over (node, small
    frozenset) pairs, written for the benchmark and sharing no code with
    rrkit.  It makes the dict, set, tuple and frozenset traffic of
    rrkit's constructions, so a neighbour on the shared host that slows
    those down slows it down by about as much; only ints are hashed, so
    it does the same work in every process.  The collector is off while
    it runs: its tuples die young and hold no cycles, and it must not
    collect the caller's garbage when it runs inside a request."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    seen = {(0, frozenset())}
    frontier = [(0, frozenset())]
    for depth in range(6):
        nxt = []
        for q, marks in frontier:
            for c, r in enumerate(_PACE_GRAPH[q]):
                key = (r, marks if len(marks) > 2 else marks | {2 * depth + c // 2})
                if key not in seen:
                    seen.add(key)
                    nxt.append(key)
        frontier = nxt
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


def fail(message: str) -> int:
    print(f"bench: error: {message}", file=sys.stderr)
    return 2


def measure_setup() -> float:
    """Median seconds, at reference pace, from a fresh interpreter start
    through `import rrkit.cli`, over several launches after one untimed
    warm-up launch (which also leaves compiled bytecode behind).  Each
    launch runs on the core where `pace` runs just before and just after
    it, and is scaled by the mean of the two: a launch does not touch the
    parent's heap, so the pace after it is as good a reading as the one
    before."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import rrkit.cli"
    times = []
    try:
        for k in range(SETUP_LAUNCHES + 1):
            if len(CPUS) > 1:
                os.sched_setaffinity(0, {CPUS[k % len(CPUS)]})
            before = pace()
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
            elapsed = time.perf_counter() - start
            if k:
                times.append(elapsed * 2 * PACE_S / (before + pace()))
    finally:
        if CPUS:
            os.sched_setaffinity(0, CPUS)
    return statistics.median(times)


def percentile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-th percentile.

    A weighted mean of all order statistics, the weights being the mass a
    Beta((n+1)p, (n+1)(1-p)) law puts between consecutive ranks.  It
    moves less between runs than one or two order statistics do, since
    each request near the percentile carries its own timing noise.
    """
    x = sorted(values)
    n, p = len(x), q / 100
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(t: float) -> float:
        if t <= 0.0 or t >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))

    sub = 50  # trapezoid steps per rank
    cdf, acc, prev = [0.0], 0.0, density(0.0)
    for j in range(1, n * sub + 1):
        cur = density(j / (n * sub))
        acc += (prev + cur) / (2 * n * sub)
        prev = cur
        if j % sub == 0:
            cdf.append(acc)
    return sum((cdf[k + 1] - cdf[k]) * x[k] for k in range(n)) / cdf[-1]


class Run:
    """One workload run: the request list, its passes and their checks."""

    def __init__(self, workload: str, seed: int, smoke: bool, workdir: Path):
        import checker
        import workloads

        self.check = checker.check
        self.execute = workloads.execute
        self.answers = workloads.load_answers()
        items = workloads.build_list(workload, seed, workloads.load_pool(), smoke)
        self.requests = workloads.materialize(items, workdir)
        # per request, one (measured seconds, mean pace seconds) per pass
        self.times: list[list[tuple[float, float]]] = [[] for _ in self.requests]
        self.pass_times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.paces: list[float] = []  # of the request running now
        self.stolen = 0.0  # seconds its ticks took

    def tick(self, signum, frame) -> None:
        """SIGALRM handler: read the pace inside a long request."""
        start = time.perf_counter()
        self.paces.append(pace())
        self.stolen += time.perf_counter() - start

    def one_pass(self, tracer=None) -> None:
        if len(CPUS) > 1:
            os.sched_setaffinity(0, {CPUS[len(self.pass_times) % len(CPUS)]})
        total = 0.0
        for k, request in enumerate(self.requests):
            item = request["item"]
            gc.collect()  # each request starts from a collected heap, as a fresh `rr` does
            self.paces, self.stolen = [pace()], 0.0
            if tracer is not None:
                tracer.request = k
                root = tracer.enter("request")
            else:
                signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
            start = time.perf_counter()
            try:
                code, out = self.execute(request)
            except Exception as exc:  # a crash is a wrong answer, and the run goes on
                code, out = None, f"{type(exc).__name__}: {exc}"
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - start - self.stolen
            if tracer is not None:
                tracer.leave(root)
            total += elapsed
            self.times[k].append((elapsed, statistics.fmean(self.paces)))
            self.attempted += 1
            problem = out if code is None else self.check(item, self.answers[item["id"]], code, out)
            if problem is not None:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append(f"{item['id']}: {problem}")
        self.pass_times.append(total)

    def replay(self, passes: int, tracer=None, on_pass=None) -> None:
        handler = signal.signal(signal.SIGALRM, self.tick)
        try:
            for _ in range(passes):
                self.one_pass(tracer)
                if on_pass is not None:
                    on_pass()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, handler)
            if CPUS:
                os.sched_setaffinity(0, CPUS)

    def latencies(self) -> list[float]:
        """Each request's time to verdict at reference pace: the median
        over the passes of its measured time scaled by PACE_S over its
        pace, the mean of the pace read right before it and, untraced,
        every TICK_S while it runs (the ticks' own time is taken out of
        the measured time).

        On a shared host, neighbours slow every instruction down by up to
        60%, for spells of seconds to tens of minutes, often on one core
        and not the other; a slow spell that covers a whole run leaves no
        fast pass to take.  `pace` slows down with the request it runs
        next to, so the scaled time stays put where the measured time
        does not.  A change to rrkit changes the measured time and not
        the pace, so it shows in full.
        """
        return [statistics.median(t * PACE_S / ref for t, ref in samples) for samples in self.times]

    def wall(self) -> float:
        """Time to finish the list, each request at its time to verdict."""
        return sum(self.latencies())

    def write_manifest(self, path: Path) -> None:
        """Each request's sizes, verdict and time, for later reading."""
        rows = []
        for request, latency in zip(self.requests, self.latencies()):
            item = request["item"]
            answer = self.answers[item["id"]]
            rows.append({
                "id": item["id"], "kind": item["kind"], "filter": item.get("filter"),
                "states": len(item["nfa"]["states"]) if "nfa" in item else item.get("states"),
                "transitions": len(item["nfa"]["transitions"]) if "nfa" in item else None,
                "empty": not answer["nonempty"] if "nonempty" in answer else None,
                "time_s": latency,
            })
        path.write_text(json.dumps(rows, indent=0) + "\n")


def end_to_end(run: Run, setup_s: float) -> dict[str, float]:
    latencies = run.latencies()
    paces = [ref for samples in run.times for _, ref in samples]
    print(f"bench: measured pass times {[round(t, 3) for t in run.pass_times]} s, "
          f"median pace {1000 * statistics.median(paces):.3f} ms (reference {1000 * PACE_S:g} ms)",
          file=sys.stderr)
    return {
        "wall_s": run.wall(),
        "verdict_p50_ms": 1000 * percentile(latencies, 50),
        "verdict_p90_ms": 1000 * percentile(latencies, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


def traced(run: Run, passes: int, trace_file: Path) -> dict[str, float]:
    """Replay with spans on.  Like the untraced figures, each request
    counts at reference pace in its median pass: the per-layer metrics
    add up the scaled tallies of that pass, so the self times add up to
    trace.wall_s.  No ticks run, since their time would fall inside
    spans; a request's pace is the one read before it."""
    from tracer import Tracer, layer_metrics, request_tallies

    tracer = Tracer()
    passes_of: dict[object, list[dict[str, float]]] = {}
    first: dict[str, object] = {}

    def fold() -> None:
        if not first:
            first.update(spans=list(tracer.spans), data=dict(tracer.data))
        for request, tally in request_tallies(tracer.spans, tracer.data).items():
            scale = PACE_S / run.times[request][-1][1]
            passes_of.setdefault(request, []).append(
                {name: value * scale if name == "duration" or name.endswith(".self_s") else value
                 for name, value in tally.items()})
        tracer.reset()

    tracer.install()
    try:
        run.replay(passes, tracer, fold)
    finally:
        tracer.uninstall()
    trace_file.write_text(json.dumps(first))
    chosen = [sorted(tallies, key=lambda t: t["duration"])[(len(tallies) - 1) // 2]
              for tallies in passes_of.values()]
    metrics = layer_metrics(chosen)
    metrics["trace.wall_s"] = sum(t["duration"] for t in chosen)
    return metrics


def report(metrics: dict[str, float], specs: list[dict]) -> dict[str, dict]:
    return {s["name"]: {"value": metrics[s["name"]], "unit": s["unit"]} for s in specs}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="a few requests of every workload")
    args = parser.parse_args(argv)

    if not (SRC / "rrkit" / "cli.py").is_file():
        return fail(f"no rrkit sources under {SRC}; run from a source checkout")
    names = [w["name"] for w in spec["workloads"]]
    if not args.smoke and args.workload not in names:
        return fail(f"--workload must be one of {', '.join(names)}")
    if args.seconds <= 0:
        return fail("--seconds must be positive")

    setup_s = measure_setup() if args.trace == 0 or args.smoke else None
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import rrkit.cli  # noqa: F401  (loads every rrkit module before any patching)
    import workloads

    if Path(rrkit.cli.__file__).resolve().parent != SRC / "rrkit":
        return fail(f"rrkit was imported from {rrkit.cli.__file__}, not from {SRC}")

    workdir = WORK / f"run-{args.workload or 'smoke'}-{args.seed}"
    try:
        if args.smoke:
            return smoke(args, spec, setup_s, workdir)
        run = Run(args.workload, args.seed, False, workdir)
        passes = max(1, round(workloads.PASSES[args.workload] * args.seconds / spec["run_seconds"]))
        gc.freeze()  # the benchmark's own data is no work for rrkit's collections
        stem = f"{args.workload}-{args.seed}"
        if args.trace:
            metrics = report(traced(run, passes, WORK / f"trace-{stem}.json"), spec["per_layer"])
        else:
            run.replay(passes)
            metrics = report(end_to_end(run, setup_s), spec["end_to_end"])
        run.write_manifest(WORK / f"requests-{stem}.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in run.failures:
        print(f"wrong: {line}", file=sys.stderr)
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


def smoke(args, spec: dict, setup_s: float, workdir: Path) -> int:
    attempted = failed = 0
    for name in (w["name"] for w in spec["workloads"]):
        run = Run(name, args.seed, True, workdir / name)
        run.replay(1)
        plain = end_to_end(run, setup_s)
        traced_run = Run(name, args.seed, True, workdir / name)
        layers = traced(traced_run, 1, WORK / f"trace-{name}-smoke.json")
        for s in spec["end_to_end"] + spec["per_layer"]:
            value = plain.get(s["name"], layers.get(s["name"]))
            print(f"{name:8} {s['name']:44} {value:14.6g} {s['unit']}")
        print(f"{name:8} {'wrong_ratio':44} {run.failed / run.attempted:14.6g} ratio")
        for line in run.failures + traced_run.failures:
            print(f"wrong: {line}", file=sys.stderr)
        attempted += run.attempted + traced_run.attempted
        failed += run.failed + traced_run.failed
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": {}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

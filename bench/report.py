"""Every metric of every workload, in one command.

    python3 bench/report.py                      # seed 1, one run per workload
    python3 bench/report.py --seeds 1 2 3 --out summary.json

For each workload and seed it runs `bench/run.py` untraced, then once
traced with the first seed, each run in its own process and one at a
time.  It prints each end-to-end metric with its unit (median over the
seeds, and the quartile spread as a share of the median when there are
several), wrong_ratio, the tracing overhead (traced minus untraced
wall_s, same seed), the per-layer metrics, and the outcome of the
three predictions the trace can decide (see README.md).
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload: str, seed: int, trace: int) -> dict:
    """One run of `run.py`, which measures for BENCHMARK.json's run_seconds."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    sys.stderr.write(done.stderr)
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdicts(workload: str, layers: dict[str, float]) -> list[str]:
    """The predictions the trace can decide on one workload, and the
    share of traced time of the layers predicted to be small."""
    out = []
    selfs = {k[: -len(".self_s")]: v for k, v in layers.items() if k.endswith(".self_s")}
    wall = layers["trace.wall_s"]
    if workload == "witness":
        top = max(selfs, key=selfs.get)
        out.append(f"largest self time is {top} ({selfs[top] / wall:.0%} of traced wall_s): "
                   f"{'holds' if top == 'grammars.shortest_word' else 'FAILS'}")
    if workload == "unfold":
        seen = layers["grammars.shortest_word.calls"] + layers["reductions.bar_hillel.calls"]
        out.append(f"no grammars.shortest_word or reductions.bar_hillel span: {'holds' if seen == 0 else 'FAILS'}")
    if workload == "log2":
        share = selfs["engine.log2_check"] / wall
        out.append(f"engine.log2_check self time is {share:.0%} of traced wall_s: "
                   f"{'holds' if share > 0.5 else 'FAILS'}")
    for layer in ("automata.accepts", "filters.contains", "cli.main"):
        out.append(f"{layer} self time is {selfs[layer] / wall:.1%} of traced wall_s")
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--out", type=Path, help="also write the summary as JSON")
    args = parser.parse_args(argv)

    summary = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run(workload, seed, 0) for seed in args.seeds]
        traced = run(workload, args.seeds[0], 1)
        attempted = sum(r["attempted"] for r in runs + [traced])
        failed = sum(r["failed"] for r in runs + [traced])
        print(f"== {workload}  seeds {args.seeds}  {attempted} requests checked")
        row = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            row[metric["name"]] = {"median": statistics.median(values), "values": values, "unit": metric["unit"]}
            extra = ""
            if len(values) >= 2:
                row[metric["name"]]["spread"] = spread(values)
                extra = f"  spread {spread(values):6.1%} (bound {metric['bound']:.0%})"
            print(f"  {metric['name']:16} {statistics.median(values):12.4f} {metric['unit']:6}{extra}")
        print(f"  {'wrong_ratio':16} {failed / attempted:12.4f} ratio")
        layers = {name: v["value"] for name, v in traced["metrics"].items()}
        overhead = layers["trace.wall_s"] - runs[0]["metrics"]["wall_s"]["value"]
        print(f"  {'trace overhead':16} {overhead:12.4f} s      (traced minus untraced wall_s, seed {args.seeds[0]})")
        for metric in spec["per_layer"]:
            value = layers[metric["name"]]
            if value:
                print(f"    {metric['name']:44} {value:14.6g} {metric['unit']}")
        absent = [m["name"] for m in spec["per_layer"] if not layers[m["name"]]]
        print(f"    zero on this workload (layer not reached): {', '.join(absent) or 'none'}")
        checks = verdicts(workload, layers)
        for line in checks:
            print(f"  prediction: {line}")
        summary[workload] = {"seeds": args.seeds, "wrong_ratio": failed / attempted,
                             "end_to_end": row, "per_layer": layers,
                             "trace_overhead_s": overhead, "predictions": checks}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

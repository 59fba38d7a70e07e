"""Workload definitions, seeded request lists and request execution.

Every workload is a fixed table of cells.  A cell names one shape of
request (kind, filter, size, epsilon moves, empty or not) and how many
recorded instances of that shape the workload's request list holds, so
the list itself is fixed.  The run seed makes the files rrkit reads: it
renames and reorders the states and transitions of every automaton
(renaming changes neither verdicts nor witnesses, which are the
(length, lexicographic) least words) and shuffles the order of the
requests.  The same seed gives the same files.  The instance set stays
fixed because, on a small shared machine, drawing a different set per
seed would spread the tail latency more than any regression bound.

The instances (`data/pool.json`) and their known answers
(`data/answers.json`) are written by `record.py`.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

FILTERS = ("dyck1", "dyck2", "sym", "symsharp")


def _shape_cells(prefix: str, sizes: dict[int, int], ties: bool = False, **shape) -> list[dict]:
    """Cells for `sizes` (size -> request count), slot by slot: a quarter of
    the slots get epsilon moves and half are empty, alternating so that
    every size gets both verdicts.  With `ties`, half of the nonempty
    slots need several shortest witnesses, so that the lexicographic
    tie-break decides the answer."""
    counts: dict[tuple[int, bool, bool, bool], int] = {}
    slot = 0
    for n, count in sizes.items():
        for _ in range(count):
            key = (n, slot % 8 in (0, 5), slot % 2 == 1, ties and slot % 4 == 2)
            counts[key] = counts.get(key, 0) + 1
            slot += 1
    return [
        {"cell": f"{prefix}/{n}/{'eps' if eps else 'plain'}/{'E' if empty else 'NE'}{'-tie' if tie else ''}",
         "states": n, "eps": eps, "empty": empty, "tie": tie, "count": count, **shape}
        for (n, eps, empty, tie), count in counts.items()
    ]


def _witness_cells() -> list[dict]:
    # Sizes 3-8 for every filter, weighted to small machines: a symsharp
    # product at 8 states takes about 0.8 s, and a pass must fit several
    # times into one run (see Run.latencies in run.py for why).
    sizes = {3: 8, 4: 7, 5: 5, 6: 3, 7: 1, 8: 1}
    return [cell for f in FILTERS
            for cell in _shape_cells(f"witness/{f}", sizes, ties=True, kind="witness", method="auto", filter=f)]


def _unfold_cells() -> list[dict]:
    sizes = {8: 4, 12: 4, 16: 4, 20: 3, 24: 3, 28: 2, 32: 2}
    cells = _shape_cells("unfold/counter", sizes, kind="witness", method="counter", filter="dyck1")
    for target in ("mark", "ssharpup"):
        for n, count in ((2, 12), (3, 12), (4, 14)):
            cells.append({"cell": f"unfold/reduce-{target}/{n}", "kind": "reduce", "target": target,
                          "states": n, "eps": True, "count": count})
    for grammar in ("dyck2", "symsharp"):
        cells.append({"cell": f"unfold/reduce-cs/{grammar}", "kind": "reduce", "target": "cs",
                      "grammar": grammar, "count": 2})
    return cells


def _index_cells() -> list[dict]:
    cells = [
        {"cell": f"index/exhaustive/dyck1/{n}", "kind": "index", "filter": "dyck1",
         "states": n, "sample": None, "count": 1}
        for n in (1, 2, 3)
    ]
    for f in ("sym", "dyck2", "symsharp"):
        cells.append({"cell": f"index/sample/{f}", "kind": "index", "filter": f,
                      "states": 3, "sample": 6, "count": 10})
    for n, count in ((3, 28), (4, 6)):
        for orientation in ("d1_first", "s_first"):
            cells.append({"cell": f"index/substituted/{n}/{orientation}", "kind": "substituted",
                          "states": n, "orientation": orientation, "count": count})
    return cells


def _log2_cells() -> list[dict]:
    cells = [
        {"cell": f"log2/path/{k}", "kind": "check_log2", "k": k, "count": 1}
        for k in range(2, 13)
    ]
    # random small machines rarely force a mirror witness of length 8
    for f, lengths, count in (("dyck2", (2, 4, 6, 8), 12), ("sym", (2, 4, 6), 16)):
        for length in lengths:
            cells.append({"cell": f"log2/decide/{f}/{length}", "kind": "decide_log2",
                          "filter": f, "length": length, "count": count})
    return cells


# Passes over the request list in a run of BENCHMARK.json's run_seconds.
# The count is fixed, not fitted to a deadline, so that every commit's
# medians are taken over the same number of samples; odd, so that the
# median is one pass's time.  At the recorded commit a pass takes 3-5 s
# on witness and log2, 2-4 s on unfold and 7-13 s on index, as the
# machine's neighbours allow; unfold's p90 spreads the most, so it gets
# the most passes.
PASSES = {"witness": 3, "unfold": 7, "index": 3, "log2": 3}

CELLS = {
    "witness": _witness_cells(),
    "unfold": _unfold_cells(),
    "index": _index_cells(),
    "log2": _log2_cells(),
}


def load_pool() -> dict[str, list[dict]]:
    """Pool items grouped by cell name, automata in rrkit's JSON form."""
    cells = json.loads((DATA / "pool.json").read_text())["cells"]
    for members in cells.values():
        for item in members:
            if "nfa" in item:
                item["nfa"] = expand_nfa(item["nfa"])
    return cells


def load_answers() -> dict[str, dict]:
    return json.loads((DATA / "answers.json").read_text())["answers"]


def build_list(workload: str, seed: int, pool: dict[str, list[dict]], smoke: bool = False) -> list[dict]:
    """The workload's request list for one seed, automata renamed by it.

    Smoke mode keeps the two smallest requests of each request kind.
    """
    rng = random.Random(f"{workload}:{seed}")
    items = []
    for cell in CELLS[workload]:
        members = pool[cell["cell"]]
        items.extend(members[k % len(members)] for k in range(cell["count"]))
    items = [dict(item, nfa=rename_nfa(item["nfa"], rng)) if "nfa" in item and item["kind"] != "reduce"
             else item for item in items]
    rng.shuffle(items)
    if smoke:
        by_kind: dict[str, list[dict]] = {}
        for item in sorted(items, key=lambda it: it["size"]):
            by_kind.setdefault(item["kind"] + item.get("method", ""), []).append(item)
        items = [it for group in by_kind.values() for it in group[:2]]
    return items


def rename_nfa(nfa: dict, rng: random.Random) -> dict:
    """The same automaton with permuted state names, states and moves.

    `reduce` outputs spell state names, so their inputs keep their names.
    """
    states = list(nfa["states"])
    names = dict(zip(states, rng.sample(states, len(states))))
    transitions = [{"from": names[t["from"]], "label": t["label"], "to": names[t["to"]]}
                   for t in nfa["transitions"]]
    rng.shuffle(transitions)
    renamed = list(names.values())
    rng.shuffle(renamed)
    return {"alphabet": nfa["alphabet"], "states": renamed, "initial": names[nfa["initial"]],
            "accepting": [names[q] for q in nfa["accepting"]], "transitions": transitions}


def expand_nfa(compact: dict) -> dict:
    """rrkit's automaton JSON from the pool's compact form."""
    name = lambda i: f"q{i}"
    return {
        "alphabet": list(compact["alphabet"]),
        "states": [name(i) for i in range(compact["n"])],
        "initial": name(0),
        "accepting": [name(i) for i in compact["accepting"]],
        "transitions": [
            {"from": name(src), "label": label, "to": name(dst)}
            for src, label, dst in compact["transitions"]
        ],
    }


def materialize(items: list[dict], workdir: Path) -> list[dict]:
    """Write each distinct item's input files; return one request per item.

    A request carries the item, its argv for `rr` (None for a library
    call) and the automaton file it reads.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    written: dict[str, dict] = {}
    requests = []
    for item in items:
        if item["id"] not in written:
            written[item["id"]] = _write_inputs(item, workdir / f"r{len(written)}")
        requests.append(written[item["id"]])
    return requests


def _write_inputs(item: dict, stem: Path) -> dict:
    nfa_path = grammar_path = None
    if "nfa" in item:
        nfa_path = stem.with_suffix(".json")
        nfa_path.write_text(json.dumps(item["nfa"]))
    if "grammar" in item:
        grammar_path = stem.with_suffix(".txt")
        grammar_path.write_text(item["grammar"])
    kind = item["kind"]
    if kind == "witness":
        argv = ["witness", "--json", "--filter", item["filter"], "--nfa", str(nfa_path)]
        if item["method"] != "auto":
            argv += ["--method", item["method"]]
    elif kind == "reduce":
        source = ["--grammar", str(grammar_path)] if grammar_path else ["--nfa", str(nfa_path)]
        argv = ["reduce", item["target"], *source]
    elif kind == "index":
        argv = ["index", "--filter", item["filter"], "--states", str(item["states"])]
        if item["sample"] is not None:
            argv += ["--sample", str(item["sample"]), "--seed", str(item["seed"])]
    elif kind == "check_log2":
        argv = ["check-log2", "--grammar", str(grammar_path), "--nfa", str(nfa_path)]
    elif kind == "decide_log2":
        argv = ["decide", "--json", "--method", "log2", "--filter", item["filter"], "--nfa", str(nfa_path)]
    elif kind == "substituted":
        argv = None
    else:
        raise ValueError(f"unknown request kind {kind!r}")
    return {"item": item, "argv": argv, "nfa_path": nfa_path}


def execute(request: dict) -> tuple[int, object]:
    """Run one request in-process: (exit code, output).

    CLI requests go through rrkit.cli.main with stdout captured; the
    output is the captured text.  Substitution requests call
    decide_substituted, the only route to it, and return (verdict,
    witness) with exit code 0/1 for nonempty/empty.  Names are looked up
    on the modules at call time, so the tracer's patches take effect.
    """
    import rrkit.cli
    import rrkit.engine

    if request["argv"] is None:
        from rrkit.automata import Nfa
        from rrkit.filters import parse_filter_name

        a = Nfa.from_json(Path(request["nfa_path"]).read_text())
        d1, sym = parse_filter_name("dyck1"), parse_filter_name("sym")
        sub = {"a1": d1, "abar1": sym}
        if request["item"]["orientation"] == "s_first":
            sub = {"a1": sym, "abar1": d1}
        report = rrkit.engine.decide_substituted(a, d1, sub)
        witness = list(report.witness) if report.witness is not None else None
        return (0 if report.nonempty else 1), (report.nonempty, witness)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = rrkit.cli.main(request["argv"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()

"""Record the benchmark's instance pool and known answers.

    python3 bench/record.py

Run once, from the repository root, at the commit whose answers become
the reference.  It generates every pool cell of `workloads.CELLS` from a
fixed generator seed, runs each instance through the same in-process
route the benchmark uses, and cross-checks each answer independently of
rrkit before writing `data/pool.json` and `data/answers.json`:

* nonempty witnesses are accepted by the automaton and lie in the filter,
  and where enumeration reaches their length they are the (length,
  lexicographic) least such word;
* empty verdicts have no accepted filter word up to the length recorded
  in `empty_up_to`;
* substitution verdicts are confirmed by an accepted word of the
  substituted language found by enumeration (empty ones: none up to the
  recorded length); nonempty instances the enumeration cannot confirm are
  left out of the pool and counted in the metadata;
* exhaustive dyck1 index values equal RHO_DYCK1 from tests/oracles.py;
* log2 verdicts agree with `rr witness` on the same automaton, whose
  witness is checked as above;
* reduce outputs and sampled index values are recorded as they are.

A disagreement stops the recording with an error: it is a defect of the
program or of the checker, never a reason to change the pool.
"""
from __future__ import annotations

import ast
import json
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checker  # noqa: E402
import workloads  # noqa: E402
from rrkit.automata import Nfa  # noqa: E402
from rrkit.filters import dyck_grammar, parse_filter_name, symmetric_sharp_grammar  # noqa: E402
from rrkit.grammars import format_grammar  # noqa: E402
from rrkit.reductions import intersection_nonempty, intersection_shortest  # noqa: E402

BUDGET = 200_000  # live prefixes per enumeration level
EMPTY_LEN = 14  # enumeration horizon for empty verdicts
SUB_INNER = ("a1", "abar1", "x1", "x2", "xbar1", "xbar2")
MAX_TRIES = 20_000


def random_nfa(rng: random.Random, n: int, alphabet, eps: bool) -> dict:
    """Compact NFA: 2n distinct symbol moves, n//3 (at least one) epsilon
    moves when asked, one or two accepting states, never the initial one."""
    cells = [(s, a, d) for s in range(n) for a in alphabet for d in range(n)]
    moves = set(rng.sample(cells, min(len(cells), 2 * n)))
    if eps:
        for _ in range(max(1, n // 3)):
            s, d = rng.sample(range(n), 2)
            moves.add((s, "", d))
    accepting = sorted(rng.sample(range(1, n), rng.randint(1, min(2, n - 1))))
    return {"alphabet": list(alphabet), "n": n, "accepting": accepting, "transitions": sorted(moves)}


def path_nfa(k: int) -> dict:
    """Accepts exactly a1^k abar1^k."""
    moves = [(i, "a1", i + 1) for i in range(k)] + [(k + i, "abar1", k + i + 1) for i in range(k)]
    return {"alphabet": ["a1", "abar1"], "n": 2 * k + 1, "accepting": [2 * k], "transitions": moves}


def rr_nfa(compact: dict) -> Nfa:
    return Nfa.from_dict(workloads.expand_nfa(compact))


def fill(cell: dict, rng: random.Random, make, accept) -> list[dict]:
    items = []
    for _ in range(MAX_TRIES):
        if len(items) == cell["count"]:
            return items
        candidate = make(rng)
        if accept(candidate):
            candidate["id"] = f"{cell['cell']}/{len(items)}"
            items.append(candidate)
    raise RuntimeError(f"cell {cell['cell']} did not fill in {MAX_TRIES} tries")


def generate(cell: dict) -> list[dict]:
    rng = random.Random(f"pool:{cell['cell']}")
    base = {k: cell[k] for k in ("kind", "method", "filter", "target", "states", "sample") if k in cell}
    kind = cell["kind"]
    if kind == "witness":
        f = parse_filter_name(cell["filter"])
        cnf = f.filter_grammar().cnf()

        def make(r):
            return {**base, "size": cell["states"],
                    "nfa": random_nfa(r, cell["states"], f.alphabet, cell["eps"])}

        def accept(c):
            if intersection_nonempty(cnf, rr_nfa(c["nfa"])) == cell["empty"]:
                return False
            return not cell["tie"] or shortest_words(c, cnf, cell["filter"]) > 1

        return fill(cell, rng, make, accept)
    if kind == "reduce" and cell["target"] == "cs":
        grammar = {"dyck2": dyck_grammar(2), "symsharp": symmetric_sharp_grammar()}[cell["grammar"]]
        return [{**base, "id": f"{cell['cell']}/0", "filter": cell["grammar"], "size": 0,
                 "grammar": format_grammar(grammar)}]
    if kind == "reduce":
        alphabet = parse_filter_name("dyck2").alphabet
        return fill(cell, rng, lambda r: {**base, "size": cell["states"],
                                          "nfa": random_nfa(r, cell["states"], alphabet, True)},
                    lambda c: True)
    if kind == "index":
        if cell["sample"] is None:
            return [{**base, "id": f"{cell['cell']}/0", "size": cell["states"]}]
        return [{**base, "id": f"{cell['cell']}/{s}", "seed": s, "size": 0} for s in range(cell["count"])]
    if kind == "substituted":
        def make(r):
            eps = r.random() < 0.25
            return {**base, "orientation": cell["orientation"], "size": cell["states"],
                    "nfa": random_nfa(r, cell["states"], SUB_INNER, eps)}

        return fill(cell, rng, make, confirm_substituted)
    if kind == "check_log2":
        return [{"kind": kind, "id": f"{cell['cell']}/0", "k": cell["k"], "size": cell["k"],
                 "grammar": format_grammar(dyck_grammar(1)), "nfa": path_nfa(cell["k"])}]
    if kind == "decide_log2":
        f = parse_filter_name(cell["filter"])
        cnf = f.filter_grammar().cnf()

        def make(r):
            n = r.randint(3, 8)
            return {**base, "size": n, "nfa": random_nfa(r, n, f.alphabet, False)}

        def has_length(c):
            w = intersection_shortest(cnf, rr_nfa(c["nfa"]))
            return w is not None and len(w) == cell["length"]

        return fill(cell, rng, make, has_length)
    raise ValueError(kind)


def shortest_words(item: dict, cnf, filter_name: str) -> int:
    """How many filter words of the shortest witness length the automaton
    accepts (0 when enumeration cannot reach that length)."""
    length = len(intersection_shortest(cnf, rr_nfa(item["nfa"])))
    a = checker.Automaton(workloads.expand_nfa(item["nfa"]))
    for covered, words in a.words_by_length(length, BUDGET):
        if covered == length:
            return len({w for w in words if checker.member(filter_name, w)})
    return 0


SKIPPED = {"unconfirmed substitution": 0}


def confirm_substituted(item: dict) -> bool:
    """Keep an instance only when enumeration settles its verdict."""
    from rrkit.engine import decide_substituted

    d1, sym = parse_filter_name("dyck1"), parse_filter_name("sym")
    sub = {"a1": d1, "abar1": sym} if item["orientation"] == "d1_first" else {"a1": sym, "abar1": d1}
    nonempty = decide_substituted(rr_nfa(item["nfa"]), d1, sub).nonempty
    a = checker.Automaton(workloads.expand_nfa(item["nfa"]))
    found, covered = checker.shortest_member(a, checker.substituted_member, EMPTY_LEN, BUDGET)
    if found is not None and not nonempty:
        raise RuntimeError(f"substitution instance: empty verdict, but {found} is accepted")
    if nonempty and found is None:
        SKIPPED["unconfirmed substitution"] += 1
        return False
    item["_covered"] = covered
    return True


def cross_check(item: dict, answer: dict, rho_dyck1: dict) -> str:
    kind = item["kind"]
    if kind == "witness":
        nfa = checker.Automaton(item["nfa"])
        test = lambda w: checker.member(item["filter"], w)
        if answer["nonempty"]:
            if checker.check_witness(item, answer, answer["nonempty"], answer["witness"]) is not None:
                raise RuntimeError(f"{item['id']}: invalid witness {answer['witness']}")
            length = len(answer["witness"])
            least, covered = checker.shortest_member(nfa, test, length, BUDGET)
            if covered < length:
                return "valid witness"
            if least != tuple(answer["witness"]):
                raise RuntimeError(f"{item['id']}: enumeration finds {least}, rrkit {answer['witness']}")
            return "least witness by enumeration"
        least, covered = checker.shortest_member(nfa, test, EMPTY_LEN, BUDGET)
        if least is not None:
            raise RuntimeError(f"{item['id']}: empty verdict, but {least} is accepted")
        answer["empty_up_to"] = covered
        return "no member by enumeration"
    if kind == "substituted":
        if answer["witness"] is not None and not checker.dyck(answer["witness"], 1):
            raise RuntimeError(f"{item['id']}: outer witness {answer['witness']} is unbalanced")
        if not answer["nonempty"]:
            answer["empty_up_to"] = item["_covered"]
        return "member by enumeration" if answer["nonempty"] else "no member by enumeration"
    if kind == "index" and item["sample"] is None:
        if answer["index"] != rho_dyck1[item["states"]]:
            raise RuntimeError(f"{item['id']}: index {answer['index']}, RHO_DYCK1 says {rho_dyck1[item['states']]}")
        return "RHO_DYCK1"
    if kind == "check_log2":
        word = ["a1"] * item["k"] + ["abar1"] * item["k"]
        if not (checker.Automaton(item["nfa"]).accepts(word) and checker.dyck(word, 1)):
            raise RuntimeError(f"{item['id']}: path word is not a dyck1 witness")
        if answer["verdict"] != "nonempty":
            raise RuntimeError(f"{item['id']}: verdict {answer['verdict']}")
        return "path word is a member"
    if kind == "decide_log2":
        twin = {**item, "kind": "witness", "method": "auto"}
        code, out = workloads.execute(workloads.materialize([twin], TMP)[0])
        report = json.loads(out)
        if checker.check_witness(twin, {"nonempty": answer["nonempty"], "witness": report["witness"]},
                                  report["nonempty"], report["witness"]) is not None:
            raise RuntimeError(f"{item['id']}: log2 verdict disagrees with a checked witness")
        return "agrees with a checked rr witness"
    return "recorded"


def record_answer(item: dict) -> dict:
    code, out = workloads.execute(workloads.materialize([item], TMP)[0])
    answer = {"exit": code}
    kind = item["kind"]
    if kind == "witness":
        report = json.loads(out)
        answer.update(nonempty=report["nonempty"], witness=report["witness"])
    elif kind == "substituted":
        answer.update(nonempty=out[0], witness=out[1])
    elif kind == "reduce":
        answer["sha256"] = checker.digest(out)
    elif kind == "index":
        answer["index"] = int(out)
    elif kind == "check_log2":
        answer["verdict"] = out.strip()
    elif kind == "decide_log2":
        answer["nonempty"] = json.loads(out)["nonempty"]
    return answer


def rho_dyck1() -> dict:
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "RHO_DYCK1" for t in node.targets):
            return ast.literal_eval(node.value)
    raise RuntimeError("RHO_DYCK1 not found in tests/oracles.py")


TMP = ROOT / ".bench_work" / "record"


def main() -> int:
    rho = rho_dyck1()
    pool: dict[str, list[dict]] = {}
    answers: dict[str, dict] = {}
    checks: dict[str, int] = {}
    for workload, cells in workloads.CELLS.items():
        for cell in cells:
            members = []
            for item in generate(cell):
                stored = dict(item)
                if "nfa" in item:
                    item = {**item, "nfa": workloads.expand_nfa(item["nfa"])}
                answer = record_answer(item)
                verdict = cross_check(item, answer, rho)
                checks[verdict] = checks.get(verdict, 0) + 1
                stored.pop("_covered", None)
                answer["cross_check"] = verdict
                answers[item["id"]] = answer
                members.append(stored)
            pool[cell["cell"]] = members
            print(f"{cell['cell']}: {len(members)} items", file=sys.stderr)
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    meta = {"commit": commit, "enumeration_budget": BUDGET, "empty_horizon": EMPTY_LEN,
            "cross_checks": checks, "skipped": SKIPPED}
    data = workloads.DATA
    data.mkdir(exist_ok=True)
    (data / "pool.json").write_text(json.dumps({"meta": meta, "cells": pool}, separators=(",", ":")) + "\n")
    (data / "answers.json").write_text(json.dumps({"meta": meta, "answers": answers}, indent=0, sort_keys=True) + "\n")
    print(json.dumps(meta, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())

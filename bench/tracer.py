"""Span tracing around rrkit's public functions, from outside the package.

`Tracer.install` wraps each traced function or method wherever it is
looked up: a module-level function is replaced under every name that
binds it in any loaded rrkit module (so both `rrkit.cli.nrr_decide` and
`rrkit.engine.nrr_decide`), a method on its class.  Each call records a
span [name, start, end, parent, request] in memory; counts taken from a
call's result are stored with its span.  Work the tracer itself does
after a call (sizing a product, say) runs inside a `trace.cost` span, so
it is charged to no layer.

`request_tallies` sums the spans of one pass per request, and
`layer_metrics` turns chosen tallies into the per-layer metrics.
"""
from __future__ import annotations

import functools
import sys
import time

COST = "trace.cost"


def _states(result) -> dict:
    return {"states": len(result.states)}


def _product(result) -> dict:
    return {"nonterminals": len(result.nonterminals), "rules": len(result.rules),
            "productive": _productive_count(result)}


def _productive_count(g) -> int:
    """Nonterminals deriving a terminal word, by a linear worklist."""
    waiting: list[int] = []
    uses: dict[str, list[int]] = {}
    ready = []
    for k, (lhs, rhs) in enumerate(g.rules):
        pending = [s for s in rhs if s in g.nonterminals]
        waiting.append(len(pending))
        for s in pending:
            uses.setdefault(s, []).append(k)
        if not pending:
            ready.append(lhs)
    good: set[str] = set()
    while ready:
        nt = ready.pop()
        if nt in good:
            continue
        good.add(nt)
        for k in uses.get(nt, ()):
            waiting[k] -= 1
            if waiting[k] == 0:
                ready.append(g.rules[k][0])
    return len(good)


def _checker(result) -> dict:
    return {"depth": result.max_recursion_depth, "live": result.max_live_triples}


# (layer name, module, function, what to count from the result)
FUNCTIONS = (
    ("reductions.bar_hillel", "rrkit.reductions", "bar_hillel", _product),
    ("reductions.mark_automaton", "rrkit.reductions", "mark_automaton", lambda r: _states(r.nfa)),
    ("reductions.reduce_d2_to_ssharpup", "rrkit.reductions", "reduce_d2_to_ssharpup", _states),
    ("reductions.cs_transducer", "rrkit.reductions", "cs_transducer", _states),
    ("engine.nrr_decide", "rrkit.engine", "nrr_decide", None),
    ("engine.rational_index", "rrkit.engine", "rational_index", None),
    ("engine.substitution_collapse", "rrkit.engine", "substitution_collapse", None),
    ("engine.log2_check", "rrkit.engine", "log2_check", _checker),
    ("cli.main", "rrkit.cli", "main", None),
)

# (layer name, module, class, method, what to count from the result)
METHODS = (
    ("grammars.shortest_word", "rrkit.grammars", "Cfg", "shortest_word", None),
    ("grammars.cnf", "rrkit.grammars", "Cfg", "cnf", None),
    ("transducers.compose", "rrkit.transducers", "Transducer", "compose", None),
    ("counter.product", "rrkit.counter", "CounterAutomaton", "product", None),
    ("counter.to_nfa", "rrkit.counter", "CounterAutomaton", "to_nfa", _states),
    ("counter.accepts", "rrkit.counter", "CounterAutomaton", "accepts", None),
    ("automata.shortest_witness", "rrkit.automata", "Nfa", "shortest_witness", None),
    ("automata.accepts", "rrkit.automata", "Nfa", "accepts", None),
    ("filters.contains", "rrkit.filters", "FilterSpec", "contains", None),
)

LAYERS = tuple(entry[0] for entry in FUNCTIONS + METHODS)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.data: dict[int, dict] = {}
        self.stack: list[int] = []
        self.request: object = None
        self._undo: list[tuple[object, str, object]] = []

    def enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.request])
        self.stack.append(index)
        return index

    def leave(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, measure):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave(index)
            if measure is not None:
                cost = tracer.enter(COST)
                try:
                    tracer.data[index] = measure(result)
                finally:
                    tracer.leave(cost)
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "rrkit" or name.startswith("rrkit.")]
        for name, module_name, attr, measure in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            traced = self.wrap(name, original, measure)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, traced)
        for name, module_name, cls_name, attr, measure in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            self._patch(cls, attr, self.wrap(name, vars(cls)[attr], measure))

    def _patch(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def reset(self) -> None:
        self.spans.clear()
        self.data.clear()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time covered by its child spans."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


MAXIMA = ("engine.log2_check.max_recursion_depth", "engine.log2_check.max_live_triples")
_SIZES = {
    "reductions.bar_hillel": ("nonterminals", "rules", "productive"),
    "reductions.mark_automaton": ("states",),
    "reductions.reduce_d2_to_ssharpup": ("states",),
    "reductions.cs_transducer": ("states",),
    "counter.to_nfa": ("states",),
}


def request_tallies(spans: list[list], data: dict[int, dict]) -> dict[object, dict[str, float]]:
    """Per request: calls and self time of each layer, and result sizes."""
    own = self_times(spans)
    collapse = {k for k, span in enumerate(spans) if span[0] == "engine.substitution_collapse"}
    tallies: dict[object, dict[str, float]] = {}
    for k, (name, start, end, parent, request) in enumerate(spans):
        tally = tallies.setdefault(request, {})
        if name == "request":
            tally["duration"] = end - start
        if name not in LAYERS:
            continue
        tally[f"{name}.calls"] = tally.get(f"{name}.calls", 0) + 1
        tally[f"{name}.self_s"] = tally.get(f"{name}.self_s", 0.0) + own[k]
        for field in _SIZES.get(name, ()):
            tally[f"{name}.{field}"] = tally.get(f"{name}.{field}", 0) + data[k][field]
        if name == "engine.nrr_decide" and parent in collapse:
            tally["engine.substitution_collapse.decide_calls"] = (
                tally.get("engine.substitution_collapse.decide_calls", 0) + 1)
        if name == "engine.log2_check":
            for metric, field in zip(MAXIMA, ("depth", "live")):
                tally[metric] = max(tally.get(metric, 0), data[k][field])
    return tallies


def layer_metrics(tallies: list[dict[str, float]]) -> dict[str, float]:
    """Per-layer metrics, named as in BENCHMARK.json, from request tallies."""
    total: dict[str, float] = {f"{layer}.{field}": 0 for layer in LAYERS for field in ("calls", "self_s")}
    for tally in tallies:
        for name, value in tally.items():
            total[name] = max(total.get(name, 0), value) if name in MAXIMA else total.get(name, 0) + value
    created = total.get("reductions.bar_hillel.nonterminals", 0)
    return {
        **total,
        "reductions.bar_hillel.nonterminals": created,
        "reductions.bar_hillel.rules": total.get("reductions.bar_hillel.rules", 0),
        "reductions.bar_hillel.productive_ratio":
            total.get("reductions.bar_hillel.productive", 0) / created if created else 0.0,
        "reductions.output_states": sum(
            total.get(f"{layer}.states", 0)
            for layer in ("reductions.mark_automaton", "reductions.reduce_d2_to_ssharpup",
                          "reductions.cs_transducer")),
        "counter.unfolded_states": total.get("counter.to_nfa.states", 0),
        "engine.substitution_collapse.decide_calls": total.get("engine.substitution_collapse.decide_calls", 0),
        **{metric: total.get(metric, 0) for metric in MAXIMA},
    }

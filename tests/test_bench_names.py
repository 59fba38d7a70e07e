"""The rrkit names the benchmark reaches by name must exist.

bench/tracer.py patches the functions and methods listed in its FUNCTIONS
and METHODS tables, looking methods up in the class's own namespace, and
the scripts under bench/ import names from rrkit.  A deleted or renamed
name breaks only the traced and smoke runs, which the unit tests do not
launch, so both lists are read here with ast and every name resolved.
"""
import ast
import importlib
import pathlib

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def traced_names():
    """(module, attribute path) for each entry of the tracer's tables:
    the string fields after the span name, i.e. module and function, or
    module, class and method."""
    tree = ast.parse((BENCH / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("FUNCTIONS", "METHODS") for t in node.targets
        ):
            for entry in node.value.elts:
                fields = [
                    e.value
                    for e in entry.elts[1:]
                    if isinstance(e, ast.Constant) and isinstance(e.value, str)
                ]
                yield fields[0], tuple(fields[1:])


def imported_names():
    """(module, attribute path) for each rrkit import in a bench script."""
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "rrkit":
                for alias in node.names:
                    yield node.module, (alias.name,)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "rrkit":
                        yield alias.name, ()


NAMES = sorted(set(traced_names()) | set(imported_names()))


def test_readers_find_both_kinds_of_name():
    assert ("rrkit.cli", ("main",)) in NAMES
    assert ("rrkit.automata", ("Nfa", "shortest_witness")) in NAMES
    assert ("rrkit.reductions", ("intersection_nonempty",)) in NAMES
    assert ("rrkit.cli", ()) in NAMES


@pytest.mark.parametrize(
    "module, path", NAMES, ids=[":".join((m, ".".join(p))) for m, p in NAMES]
)
def test_bench_name_resolves(module, path):
    obj = importlib.import_module(module)
    for attr in path:
        assert attr in vars(obj), f"{module} has no {'.'.join(path)}"
        obj = vars(obj)[attr]

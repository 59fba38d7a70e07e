"""The benchmark's tracer sees every function it patches.

bench/tracer.py wraps each function of its FUNCTIONS table under every
module-level name that binds it, and each method of its METHODS table on
its class.  A call made through any other reference, such as a table
entry holding the function object taken at import, runs unwrapped, and
its layer reads 0 in the traced runs.  So `rr reduce` is run here under
an installed Tracer, and no module-level table of rrkit may hold a
traced function.  Nothing under bench/ is written.
"""
import importlib
import pathlib
import pkgutil
import sys

import rrkit
from rrkit import cli

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
DATA = pathlib.Path(__file__).resolve().parent / "data"
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402


def test_tracer_sees_every_reduce_construction():
    runs = [
        ["bar-hillel", "--grammar", DATA / "d1.txt", "--nfa", DATA / "pair.json"],
        ["cs", "--grammar", DATA / "d1.txt"],
        ["mark", "--nfa", DATA / "d2pair.json"],
        ["ssharpup", "--nfa", DATA / "d2pair.json"],
    ]
    traced = tracer.Tracer()
    traced.install()
    try:
        for run in runs:
            assert cli.main(["reduce", *map(str, run)]) == 0
    finally:
        traced.uninstall()
    spans = {span[0] for span in traced.spans}
    assert {
        "reductions.bar_hillel",
        "reductions.cs_transducer",
        "reductions.mark_automaton",
        "reductions.reduce_d2_to_ssharpup",
    } <= spans


def _held(value, depth=4):
    """The objects a module-level value holds, itself included: the keys
    and items of dicts, tuples, lists and sets, down to `depth` levels."""
    yield value
    if depth == 0:
        return
    if isinstance(value, dict):
        items = [*value.keys(), *value.values()]
    elif isinstance(value, (tuple, list, set, frozenset)):
        items = value
    else:
        return
    for item in items:
        yield from _held(item, depth - 1)


def test_no_module_table_holds_a_traced_function():
    modules = [rrkit] + [
        importlib.import_module(f"rrkit.{info.name}") for info in pkgutil.iter_modules(rrkit.__path__)
    ]
    traced = {
        id(getattr(sys.modules[module], attr)): name for name, module, attr, _ in tracer.FUNCTIONS
    }
    traced.update(
        (id(vars(getattr(sys.modules[module], cls))[attr]), name)
        for name, module, cls, attr, _ in tracer.METHODS
    )
    held = [
        f"{module.__name__}.{key} holds {traced[id(item)]}"
        for module in modules
        for key, value in vars(module).items()
        if isinstance(value, (dict, tuple, list, set, frozenset))
        for item in _held(value)
        if id(item) in traced
    ]
    assert held == []

"""No function in src/rrkit calls itself.

A recursion as deep as its input raises RecursionError past Python's
limit, which no handler turns into an `rr: error:` line: `rr` would print
a traceback and exit 1, the code for "false".  So every walk over an
input is a loop, with no exception: even log2_check's certificate walk,
whose depth is only logarithmic in the witness, runs on a stack of
frames.  The sources are read with ast, and a function fails when its
own body names it, as a bare name or as a `self.` attribute.  Only
src/rrkit is read; test code may recurse.
"""
import ast
import pathlib

import rrkit

SRC = pathlib.Path(rrkit.__file__).resolve().parent


def self_naming(tree):
    """The name of each function in tree whose body names it."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                bare = isinstance(inner, ast.Name) and isinstance(inner.ctx, ast.Load)
                if (bare and inner.id == node.name) or (
                    isinstance(inner, ast.Attribute)
                    and isinstance(inner.value, ast.Name)
                    and inner.value.id == "self"
                    and inner.attr == node.name
                ):
                    yield node.name
                    break


def test_reader_finds_both_spellings():
    source = (
        "def walk(n):\n    return walk(n - 1)\n"
        "class C:\n    def walk(self, n):\n        return self.walk(n - 1)\n"
        "def other(n):\n    return walk(n)\n"
    )
    assert list(self_naming(ast.parse(source))) == ["walk", "walk"]


def test_no_function_calls_itself():
    found = {
        (path.stem, name)
        for path in sorted(SRC.glob("*.py"))
        for name in self_naming(ast.parse(path.read_text()))
    }
    assert found == set()

"""No module in src/rrkit but cli.py touches the garbage collector.

`rr` pauses the cyclic collector around each command, in cli.main alone,
so a library caller (the tests, the demos, a program that calls
`decide_substituted`) keeps whatever collector setting it chose.  The
sources are read with ast, and a module other than cli.py fails on an
import of gc, an import of a name from gc, or any use of the name `gc`.
"""
import ast
import pathlib

import rrkit

SRC = pathlib.Path(rrkit.__file__).resolve().parent


def collector_uses(tree):
    """(line, spelling) of each import or use of gc in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "gc":
                    yield node.lineno, "import gc"
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            yield node.lineno, "from gc import"
        elif isinstance(node, ast.Name) and node.id == "gc":
            yield node.lineno, "gc"


def test_reader_finds_every_spelling():
    source = (
        "import gc\n"
        "gc.disable()\n"
        "from gc import collect\n"
        "import os, gc as collector\n"
        "x = {'gc': 1}['gc']\n"
    )
    assert sorted(collector_uses(ast.parse(source))) == [
        (1, "import gc"),
        (2, "gc"),
        (3, "from gc import"),
        (4, "import gc"),
    ]


def test_only_the_command_line_touches_the_collector():
    found = {
        (path.stem, line, spelling)
        for path in sorted(SRC.glob("*.py"))
        if path.name != "cli.py"
        for line, spelling in collector_uses(ast.parse(path.read_text()))
    }
    assert found == set()
    assert list(collector_uses(ast.parse((SRC / "cli.py").read_text())))

"""No module in src/rrkit reads the environment.

Every input to `rr` and to the library is an argument: a setting read
from an environment variable is one more value that changes the output
and that no command line, golden or benchmark request shows.  The
sources are read with ast, and a module fails on `os.environ`,
`os.environb`, `os.getenv`, or an import of one of those names from os.
Only src/rrkit is read; test code may set its children's environment.
"""
import ast
import pathlib

import rrkit

SRC = pathlib.Path(rrkit.__file__).resolve().parent
READERS = {"environ", "environb", "getenv"}


def environment_reads(tree):
    """(line, spelling) of each read of the environment in tree."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
            and node.attr in READERS
        ):
            yield node.lineno, f"os.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                if alias.name in READERS:
                    yield node.lineno, f"from os import {alias.name}"


def test_reader_finds_every_spelling():
    source = (
        "import os\n"
        "a = os.environ.get('A')\n"
        "b = os.environb[b'B']\n"
        "c = os.getenv('C')\n"
        "from os import environ, getenv as g\n"
        "from os import environb\n"
        "d = os.path.join('x', 'y')\n"
        "from os import path\n"
    )
    assert sorted(environment_reads(ast.parse(source))) == [
        (2, "os.environ"),
        (3, "os.environb"),
        (4, "os.getenv"),
        (5, "from os import environ"),
        (5, "from os import getenv"),
        (6, "from os import environb"),
    ]


def test_no_module_reads_the_environment():
    found = {
        (path.stem, line, spelling)
        for path in sorted(SRC.glob("*.py"))
        for line, spelling in environment_reads(ast.parse(path.read_text()))
    }
    assert found == set()

"""No private name in src/rrkit is left without a reader there.

A private name (one `_` prefix, not a dunder) is a promise that only the
package reads it, so one that nothing in the package reads is dead code.
The sources are read with ast.  A private name is a `def`, a `class`, or
a name assigned at module or class level; a read is a `Name` load, an
attribute, an import alias, or a string constant equal to the name.
Only src/rrkit is read, so a name that only tests read counts as dead.
"""
import ast
import pathlib

import rrkit

SRC = pathlib.Path(rrkit.__file__).resolve().parent


def is_private(name):
    return name.startswith("_") and not name.endswith("__")


def private_definitions(tree):
    """(line, name) of each private def, class and module- or class-level
    assignment in tree."""
    scopes = [tree] + [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    for scope in scopes:
        for node in scope.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            yield from ((node.lineno, name) for name in names if is_private(name))


def reads(tree):
    """Every name tree reads: Name loads, attributes, import aliases and
    string constants."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def dead_private(trees):
    """(module, line, name) of each private definition in trees, a map
    from module name to tree, that no tree reads."""
    read = {name for tree in trees.values() for name in reads(tree)}
    return {
        (module, line, name)
        for module, tree in trees.items()
        for line, name in private_definitions(tree)
        if name not in read
    }


def test_reader_flags_an_unread_function():
    source = (
        "def _used():\n"
        "    return 1\n"
        "def _unused():\n"
        "    return _used()\n"
    )
    assert dead_private({"snippet": ast.parse(source)}) == {("snippet", 3, "_unused")}


def test_no_private_name_is_dead():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert dead_private(trees) == set()

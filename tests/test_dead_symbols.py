"""No symbol of the package is dead.

Every function, class and constant defined at the top level of a module in
``src/hypertoric`` must be named somewhere in ``src/`` or ``tests/`` outside
its own definition: read as a name, as an attribute, or imported.
"""

import ast
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def names_read(tree):
    """Names a syntax tree reads, as loads, attributes or imports."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name] += 1
    return out


def top_level_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node


def test_every_top_level_symbol_is_named_outside_its_definition():
    package = sorted((SRC / "hypertoric").rglob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in package + sorted(TESTS.rglob("*.py"))}
    reads = sum((names_read(tree) for tree in trees.values()), Counter())
    dead = [f"{path.relative_to(SRC)}: {name}"
            for path in package
            for name, node in top_level_definitions(trees[path])
            if not name.startswith("__")
            and reads[name] == names_read(node)[name]]
    assert dead == []

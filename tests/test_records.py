"""The package defines five record classes, and errors.py its error classes.

Every other value that passes between modules is a plain tuple, pair or
dict in a fixed order that its producer's docstring states.  The five
records stay because something reads them by more than position:
``TorusSetup``, ``Trajectory`` and ``GroupRep`` have properties or methods,
the benchmark's tracer reads ``RingPresentation.gens`` and ``.nvars``, and
``Analysis`` has seven fields read by name.  Read from the syntax trees;
nothing is imported.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hypertoric"
RECORDS = {"torus.TorusSetup", "ringcalc.RingPresentation",
           "crosscheck.Analysis", "flowlab.flow.Trajectory",
           "flowlab.reps.GroupRep"}
FACTORIES = {"namedtuple", "NamedTuple", "make_dataclass"}


def classes(tree):
    """The name of each class a syntax tree defines, and "line N" for a
    class made by a call to a record factory."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            yield node.name
        elif isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Name) and node.func.id in FACTORIES
                or isinstance(node.func, ast.Attribute)
                and node.func.attr in FACTORIES):
            yield f"line {node.lineno}"


def test_the_classes_are_the_five_records():
    found = set()
    for path in PACKAGE.rglob("*.py"):
        if path.name == "errors.py":
            continue
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        found |= {f"{module}.{name}"
                  for name in classes(ast.parse(path.read_text()))}
    assert found == RECORDS


def test_classes_reads_every_form_of_a_class():
    source = ("import collections, typing\n"
              "from dataclasses import dataclass, make_dataclass\n"
              "@dataclass(frozen=True)\nclass A:\n    x: int\n"
              "def f():\n    class B: pass\n"
              "C = collections.namedtuple('C', 'x')\n"
              "D = typing.NamedTuple('D', [('x', int)])\n"
              "E = make_dataclass('E', ['x'])\n")
    assert set(classes(ast.parse(source))) == {"A", "B", "line 8", "line 9",
                                               "line 10"}

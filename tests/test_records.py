"""The package defines five record classes, and errors.py its error classes.

Every other value that passes between modules is a plain tuple, pair or
dict in a fixed order that its producer's docstring states.  The five
records stay because something reads them by more than position:
``TorusSetup``, ``Trajectory`` and ``GroupRep`` have properties or methods,
the benchmark's tracer reads ``RingPresentation.gens`` and ``.nvars``, and
``Analysis`` has seven fields read by name.  No field of a record has a
default: a field a caller may leave out is a shape only some callers need.
Read from the syntax trees; nothing is imported.
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


def modules():
    """(dotted module name, syntax tree) for each module of the package but
    errors.py."""
    for path in PACKAGE.rglob("*.py"):
        if path.name != "errors.py":
            yield (".".join(path.relative_to(PACKAGE).with_suffix("").parts),
                   ast.parse(path.read_text()))


def defaults(tree):
    """"Class.field" for each annotated field a class body gives a value."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                    yield f"{node.name}.{stmt.target.id}"


def test_the_classes_are_the_five_records():
    found = set()
    for module, tree in modules():
        found |= {f"{module}.{name}" for name in classes(tree)}
    assert found == RECORDS


def test_no_record_field_has_a_default():
    found = [f"{module}.{field}" for module, tree in modules()
             for field in defaults(tree)]
    assert found == []


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


def test_defaults_reads_every_field_value():
    source = ("from dataclasses import dataclass, field\n"
              "@dataclass\nclass A:\n    x: int\n    y: int = 0\n"
              "    z: list = field(default_factory=list)\n"
              "class B:\n    w: int\n    def f(self):\n        v: int = 1\n")
    assert list(defaults(ast.parse(source))) == ["A.y", "A.z"]

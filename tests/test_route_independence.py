"""The exact routes and the benchmark oracle do not read each other.

``arrangement`` (the census), ``morse`` (the recursion) and ``ringcalc``
(the ring) share inputs through ``exact``, ``flats`` and ``torus``, but no
route module imports another, so none can read another's answer.  Only
``crosscheck``, which compares the answers, imports more than one route.
``perfbench/oracle.py`` imports no module of the package at all.  Both are
read from the syntax trees; nothing is imported or run.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hypertoric"
ROUTES = ("arrangement", "morse", "ringcalc")


def imported_modules(tree, package="hypertoric"):
    """Dotted names a syntax tree imports: each module, and each name taken
    from a module as module.name.  Relative imports resolve against
    package, the package of the module the tree was parsed from."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            parts = package.split(".")
            if node.level:
                parts = parts[:len(parts) - node.level + 1]
            else:
                parts = []
            base = ".".join(parts + ([node.module] if node.module else []))
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def reads_module(names, module) -> bool:
    return any(name == module or name.startswith(module + ".") for name in names)


@pytest.mark.parametrize("route", ROUTES)
def test_no_route_imports_another(route):
    tree = ast.parse((PACKAGE / f"{route}.py").read_text(encoding="utf-8"))
    names = set(imported_modules(tree))
    assert [other for other in ROUTES
            if other != route and reads_module(names, f"hypertoric.{other}")] == []


def test_only_crosscheck_imports_two_routes():
    readers = set()
    for path in PACKAGE.rglob("*.py"):
        module = path.relative_to(PACKAGE).with_suffix("")
        package = ".".join(("hypertoric", *module.parent.parts))
        names = set(imported_modules(ast.parse(path.read_text(encoding="utf-8")),
                                     package))
        if sum(reads_module(names, f"hypertoric.{r}") for r in ROUTES) >= 2:
            readers.add(module.as_posix())
    assert readers == {"crosscheck"}


def test_oracle_imports_no_package_module():
    tree = ast.parse((ROOT / "perfbench" / "oracle.py").read_text(encoding="utf-8"))
    assert not reads_module(set(imported_modules(tree, package="")), "hypertoric")


@pytest.mark.parametrize("source", [
    "from .morse import sign_split",
    "from . import morse",
    "import hypertoric.morse",
    "from hypertoric.morse import poincare_morse",
    "def f():\n    from .morse import poincare_morse",
])
def test_imported_modules_finds_each_form(source):
    assert reads_module(set(imported_modules(ast.parse(source))), "hypertoric.morse")


def test_imported_modules_ignores_other_modules():
    source = "from .torus import sign_split\nfrom .exact import int_rank\nimport morsel"
    assert not reads_module(set(imported_modules(ast.parse(source))),
                            "hypertoric.morse")

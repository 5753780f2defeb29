"""The exact routes and the benchmark oracle do not read each other.

``arrangement`` (the census), ``morse`` (the recursion) and ``ringcalc``
(the ring) share inputs through ``exact``, ``flats`` and ``torus``, but no
route module imports another, so none can read another's answer.  Only
``crosscheck``, which compares the answers, imports more than one route.
``perfbench/oracle.py`` imports no module of the package at all, and no
module of the package imports another's single-underscore name.  Only
``torus`` names its wall table ``walls_of``: every other module asks its
level questions through ``torus``, only ``torus`` raises the refusal of
a non-generic level, and only ``torus`` scales a level to integers (names
``denominator`` or ``lcm``).  ``flowlab.moments`` imports no module of
the package but ``errors``.  All are read from the syntax trees; nothing
is imported or run.
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


def named_identifiers(tree):
    """Every identifier a syntax tree names: each variable, each attribute,
    and each part of each name an import takes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")


def raised_names(tree):
    """The class each ``raise`` of a syntax tree names, called or not: the
    last part of a dotted name.  A bare ``raise`` names none."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id
            elif isinstance(exc, ast.Attribute):
                yield exc.attr


def package_trees():
    """(module, its package, its syntax tree) for every module of the
    package."""
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).with_suffix("")
        package = ".".join(("hypertoric", *module.parent.parts))
        yield module.as_posix(), package, ast.parse(path.read_text(encoding="utf-8"))


def package_imports():
    """(module, the names it imports) for every module of the package."""
    for module, package, tree in package_trees():
        yield module, set(imported_modules(tree, package))


def is_private_import(name) -> bool:
    """Whether a dotted import name is a single-underscore name of the
    package."""
    head, _, last = name.rpartition(".")
    return (reads_module({head}, "hypertoric") and last.startswith("_")
            and not last.startswith("__"))


@pytest.mark.parametrize("route", ROUTES)
def test_no_route_imports_another(route):
    tree = ast.parse((PACKAGE / f"{route}.py").read_text(encoding="utf-8"))
    names = set(imported_modules(tree))
    assert [other for other in ROUTES
            if other != route and reads_module(names, f"hypertoric.{other}")] == []


def test_only_crosscheck_imports_two_routes():
    readers = {module for module, names in package_imports()
               if sum(reads_module(names, f"hypertoric.{r}") for r in ROUTES) >= 2}
    assert readers == {"crosscheck"}


def test_no_module_imports_a_private_name():
    # A helper named with one leading underscore stays inside its module.
    assert {module: sorted(filter(is_private_import, names))
            for module, names in package_imports()
            if any(map(is_private_import, names))} == {}


@pytest.mark.parametrize("source, private", [
    ("from .torus import _integral", True),
    ("from hypertoric.exact import _pivots_mod_p", True),
    ("def f():\n    from . import _helpers", True),
    ("from .torus import walls_of", False),
    ("from . import __version__", False),
    ("from numpy import _core", False),
])
def test_is_private_import_reads_each_form(source, private):
    assert any(map(is_private_import, imported_modules(ast.parse(source)))) == private


def test_only_torus_names_the_wall_table():
    assert {module for module, _, tree in package_trees()
            if "walls_of" in named_identifiers(tree)} == {"torus"}


@pytest.mark.parametrize("source, named", [
    ("from .torus import walls_of", True),
    ("from .torus import walls_of as table", True),
    ("import hypertoric.torus.walls_of", True),
    ("table = torus.walls_of(w)", True),
    ("def f(w):\n    return walls_of(w)[()]", True),
    ("levels = critical_levels(setup)", False),
    ("note = 'walls_of'", False),
])
def test_named_identifiers_reads_each_form(source, named):
    assert ("walls_of" in named_identifiers(ast.parse(source))) == named


def test_only_torus_scales_a_level():
    # torus.integral is the one level scaler; every other module calls it.
    scalers = {"denominator", "lcm"}
    assert {module for module, _, tree in package_trees()
            if scalers & set(named_identifiers(tree))} == {"torus"}


@pytest.mark.parametrize("source, named", [
    ("scale = lcm(*(a.denominator for a in alpha))", {"denominator", "lcm"}),
    ("from math import lcm", {"lcm"}),
    ("import math\nscale = math.lcm(2, 3)", {"lcm"}),
    ("least = reduce(lcm, dens)", {"lcm"}),
    ("def f(q):\n    return q.denominator", {"denominator"}),
    ("_, level = integral(alpha)", set()),
    ("note = 'the lcm of the denominators'", set()),
])
def test_named_identifiers_reads_each_scaling(source, named):
    assert {"denominator", "lcm"} & set(named_identifiers(ast.parse(source))) == named


def test_only_torus_raises_a_level_refusal():
    # The readers of the two decisions, negative_rows and critical_levels,
    # refuse a non-generic level; every other module asks them.
    refusals = {"NonGenericAlpha", "NonGenericBeta"}
    assert {module for module, _, tree in package_trees()
            if refusals & set(raised_names(tree))} == {"torus"}


@pytest.mark.parametrize("source, raised", [
    ("raise NonGenericBeta(witness)", {"NonGenericBeta"}),
    ("raise errors.NonGenericAlpha(w) from exc", {"NonGenericAlpha"}),
    ("raise NonGenericAlpha", {"NonGenericAlpha"}),
    ("def f(w):\n    if w:\n        raise NonGenericBeta(w)", {"NonGenericBeta"}),
    ("try:\n    f()\nexcept NonGenericBeta:\n    raise", set()),
    ("error = NonGenericBeta(w)", set()),
])
def test_raised_names_reads_each_form(source, raised):
    assert set(raised_names(ast.parse(source))) == raised


def test_moments_imports_no_package_module_but_errors():
    # The moment maps read a basis array, not a GroupRep.
    tree = ast.parse((PACKAGE / "flowlab" / "moments.py").read_text(encoding="utf-8"))
    names = set(imported_modules(tree, package="hypertoric.flowlab"))
    assert {name for name in names if reads_module({name}, "hypertoric")
            and not reads_module({name}, "hypertoric.errors")} == set()


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

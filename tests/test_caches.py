"""The package keeps one process-wide cache per table, and no other.

``flats.lattice`` is the flat table, ``torus.walls_of`` the wall table, and
``torus._alpha_signs`` and ``torus._beta_levels`` keep the α and β decisions
of a level.  Every other reader of flats, coatoms, walls or levels derives
its view from one of them, so no second cache of the same data can go
stale or grow beside it.  Read from the syntax trees; nothing is imported.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hypertoric"
TABLES = {"flats.lattice", "torus.walls_of", "torus._alpha_signs",
          "torus._beta_levels"}
CACHES = {"lru_cache", "cache"}


def loads_a_cache(node) -> bool:
    return any(isinstance(n, ast.Name) and n.id in CACHES
               or isinstance(n, ast.Attribute) and n.attr in CACHES
               for n in ast.walk(node))


def cached_functions(tree):
    """The name of each function a syntax tree decorates with a functools
    cache, and "line N" for a cache applied any other way."""
    in_decorators = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in node.decorator_list:
                in_decorators.update(map(id, ast.walk(decorator)))
                if loads_a_cache(decorator):
                    yield node.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and id(node) not in in_decorators
                and loads_a_cache(node.func)):
            yield f"line {node.lineno}"


def test_the_cached_functions_are_the_four_tables():
    found = set()
    for path in PACKAGE.rglob("*.py"):
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        found |= {f"{module}.{name}"
                  for name in cached_functions(ast.parse(path.read_text()))}
    assert found == TABLES


def test_cached_functions_reads_every_form_of_a_cache():
    source = ("import functools\n"
              "from functools import cache, lru_cache\n"
              "@lru_cache(maxsize=None)\ndef a(): pass\n"
              "@functools.lru_cache\ndef b(): pass\n"
              "@cache\ndef c(): pass\n"
              "@staticmethod\ndef d(): pass\n"
              "e = lru_cache(maxsize=None)(d)\n"
              "f = functools.cache(d)\n")
    assert set(cached_functions(ast.parse(source))) == {
        "a", "b", "c", "line 11", "line 12"}

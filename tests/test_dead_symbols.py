"""No symbol of the package is dead.

Every function, class and constant defined at the top level of a module in
``src/hypertoric`` must be loaded somewhere in ``src/`` outside its own
definition, as a name or as an attribute: an import, an entry of
``__all__`` or a read from ``tests/`` does not keep it alive, since code
only tests run belongs to the tests.  Every name a module of ``src/`` other
than a package ``__init__`` imports must be loaded in that module, so an
unused import hides no dead code; every name a package ``__init__`` imports
must be imported from that package by another module of ``src/``, so a
package exports only what the package itself uses.  Every field annotated
in a class body there must be read somewhere in ``src/`` as an attribute,
and every method or property there, a dunder aside, must be loaded as an
attribute in ``src/`` outside its own body.
Every parameter with a default of a function there must be passed, by
keyword or by position, at some call in ``src/`` or ``tests/`` to a callee
of that name: a default no caller changes is a constant.  Every exception
class in ``errors.py`` must be raised somewhere in ``src/``, itself or
through a subclass: an error only tests raise belongs to the tests.
Every name an annotation in ``src/`` reads, string annotations included,
is a builtin or a module-level name of its module: under ``from
__future__ import annotations`` nothing evaluates them, so a stale one
would otherwise pass unseen.
"""

import ast
import builtins
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def names_loaded(tree):
    """Names a syntax tree loads, as names or as attributes."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out[node.attr] += 1
    return out


def imported_names(tree):
    """Names a syntax tree binds by import: the alias, or else the first
    part of the module or name imported.  Future imports bind no name the
    code reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


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


def class_fields(tree):
    """(class name, field name) of every annotated name in a class body."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield node.name, stmt.target.id


def class_methods(tree):
    """(class name, function node) of every function defined in a class
    body, dunders aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not stmt.name.startswith("__")):
                    yield node.name, stmt


def attributes_loaded(tree):
    """Attribute names a syntax tree loads."""
    return Counter(node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))


def parse_all():
    package = sorted((SRC / "hypertoric").rglob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in package + sorted(TESTS.rglob("*.py"))}
    return package, trees


def test_every_top_level_symbol_is_loaded_in_src_outside_its_definition():
    package, trees = parse_all()
    loads = sum((names_loaded(trees[path]) for path in package), Counter())
    dead = [f"{path.relative_to(SRC)}: {name}"
            for path in package
            for name, node in top_level_definitions(trees[path])
            if not name.startswith("__")
            and loads[name] == names_loaded(node)[name]]
    assert dead == []


def test_every_import_of_a_src_module_is_loaded_there():
    package, trees = parse_all()
    unused = [f"{path.relative_to(SRC)}: {name}"
              for path in package if path.name != "__init__.py"
              for name in imported_names(trees[path])
              if not names_loaded(trees[path])[name]]
    assert unused == []


def module_name(path):
    """Dotted name of a module of ``src/``; a package's for its ``__init__``."""
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def names_imported_from(path, tree):
    """(module, name) of every name the module at ``path`` imports from
    another, a relative import resolved against the module's package."""
    package = module_name(path).split(".")
    if path.name != "__init__.py":
        package = package[:-1]
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            base = package[:len(package) - node.level + 1] if node.level else []
            module = ".".join(base + (node.module.split(".") if node.module else []))
            for alias in node.names:
                yield module, alias.name


def test_every_name_a_package_init_imports_is_imported_from_it_in_src():
    package, trees = parse_all()
    imports = {path: set(names_imported_from(path, trees[path])) for path in package}
    unused = [f"{path.relative_to(SRC)}: {name}"
              for path in package if path.name == "__init__.py"
              for _, name in sorted(imports[path])
              if not any((module_name(path), name) in imports[other]
                         for other in package if other != path)]
    assert unused == []


def test_names_imported_from_resolves_relative_imports():
    source = ("from __future__ import annotations\nimport os\n"
              "from numpy import ndarray\nfrom . import a\n"
              "from .b import c as d\nfrom ..e import f\n")
    path = SRC / "hypertoric" / "flowlab" / "reps.py"
    assert list(names_imported_from(path, ast.parse(source))) == [
        ("numpy", "ndarray"), ("hypertoric.flowlab", "a"),
        ("hypertoric.flowlab.b", "c"), ("hypertoric.e", "f")]
    init = SRC / "hypertoric" / "flowlab" / "__init__.py"
    assert list(names_imported_from(init, ast.parse("from .b import c\n"))) == [
        ("hypertoric.flowlab.b", "c")]


def test_names_loaded_skips_imports_stores_and_strings():
    source = ("import a\nfrom b import c as d\ne = f.g\nh.i = 1\n"
              "__all__ = ['j']\n")
    assert names_loaded(ast.parse(source)) == Counter({"f": 1, "g": 1, "h": 1})


def test_imported_names_reads_aliases_and_dotted_modules():
    source = ("from __future__ import annotations\nimport os.path\n"
              "import numpy as np\nfrom . import a, b as c\n")
    assert list(imported_names(ast.parse(source))) == ["os", "np", "a", "c"]


def test_every_class_field_is_read_as_an_attribute():
    package, trees = parse_all()
    read = sum((attributes_loaded(trees[path]) for path in package), Counter())
    dead = [f"{path.relative_to(SRC)}: {cls}.{field}"
            for path in package
            for cls, field in class_fields(trees[path])
            if field not in read]
    assert dead == []


def test_every_method_is_loaded_as_an_attribute_in_src_outside_its_body():
    package, trees = parse_all()
    loads = sum((attributes_loaded(trees[path]) for path in package), Counter())
    dead = [f"{path.relative_to(SRC)}: {cls}.{node.name}"
            for path in package
            for cls, node in class_methods(trees[path])
            if loads[node.name] == attributes_loaded(node)[node.name]]
    assert dead == []


def test_class_methods_skip_dunders_and_nested_functions():
    source = ("class A:\n    def __init__(self):\n        pass\n"
              "    @property\n    def p(self):\n        def inner():\n"
              "            pass\n    @staticmethod\n    def s():\n        pass\n"
              "def f():\n    pass\n")
    assert [(cls, node.name) for cls, node in class_methods(ast.parse(source))] == [
        ("A", "p"), ("A", "s")]


def raised_names(tree):
    """Names of the classes a syntax tree raises, called or bare."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id


def test_every_error_class_is_raised_in_src():
    package, trees = parse_all()
    classes = [node for node in trees[SRC / "hypertoric" / "errors.py"].body
               if isinstance(node, ast.ClassDef)]
    extended = {base.id for node in classes for base in node.bases
                if isinstance(base, ast.Name)}
    raised = {name for path in package for name in raised_names(trees[path])}
    assert [node.name for node in classes
            if node.name not in raised | extended] == []


def test_raised_names_reads_calls_and_bare_classes():
    source = ("def f():\n    raise A('x')\n    raise B\n    raise\n"
              "    raise exc.C()\n")
    assert list(raised_names(ast.parse(source))) == ["A", "B"]


def test_class_fields_finds_annotated_names_only():
    source = ("class A:\n    x: int\n    y: int = 0\n    z = 1\n"
              "    def f(self):\n        w: int = 2\n")
    assert list(class_fields(ast.parse(source))) == [("A", "x"), ("A", "y")]


def defaulted_parameters(tree):
    """(function, parameter, position) of every parameter with a default of
    every function in a syntax tree.  The position counts the arguments a
    call passes, so a method's self or cls is not counted; a keyword-only
    parameter has position None."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        spec = node.args
        positional = spec.posonlyargs + spec.args
        bound = int(bool(positional) and positional[0].arg in ("self", "cls"))
        first = len(positional) - len(spec.defaults)
        for position in range(first, len(positional)):
            yield node.name, positional[position].arg, position - bound
        for arg, default in zip(spec.kwonlyargs, spec.kw_defaults):
            if default is not None:
                yield node.name, arg.arg, None


def arguments_passed(tree):
    """(callee name, positional count, keywords) of every call in a syntax
    tree.  A starred argument counts as every position, and a ** argument
    as every keyword (None)."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        if name is None:
            continue
        count = (float("inf") if any(isinstance(a, ast.Starred) for a in node.args)
                 else len(node.args))
        yield name, count, {keyword.arg for keyword in node.keywords}


def test_every_optional_parameter_is_set_by_some_caller():
    package, trees = parse_all()
    calls = [call for tree in trees.values() for call in arguments_passed(tree)]
    unset = [f"{path.relative_to(SRC)}: {function}.{parameter}"
             for path in package
             for function, parameter, position in defaulted_parameters(trees[path])
             if not any(name == function
                        and (parameter in keywords or None in keywords
                             or (position is not None and count > position))
                        for name, count, keywords in calls)]
    assert unset == []


def test_defaulted_parameters_skip_self_and_bare_keyword_only_names():
    source = ("def f(a, b=1, *, c, d=2):\n    pass\n"
              "class A:\n    def m(self, x, y=0):\n        pass\n")
    assert list(defaulted_parameters(ast.parse(source))) == [
        ("f", "b", 1), ("f", "d", None), ("m", "y", 1)]


def annotation_names(tree):
    """Names the annotations of a syntax tree read, a string annotation
    parsed as an expression: ``np.ndarray`` reads np, ``"P"`` reads P."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        else:
            continue
        stack = [annotation] if annotation is not None else []
        while stack:
            part = stack.pop()
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                stack.append(ast.parse(part.value, mode="eval"))
            elif isinstance(part, ast.Name):
                yield part.id
            else:
                stack.extend(ast.iter_child_nodes(part))


def module_level_names(tree):
    """Names a module binds at its top level, by definition or import."""
    return ({name for name, _ in top_level_definitions(tree)}
            | {name for node in tree.body
               if isinstance(node, (ast.Import, ast.ImportFrom))
               for name in imported_names(node)})


def test_every_annotation_reads_a_builtin_or_a_module_level_name():
    package, trees = parse_all()
    stale = [f"{path.relative_to(SRC)}: {name}"
             for path in package
             for name in annotation_names(trees[path])
             if not hasattr(builtins, name)
             and name not in module_level_names(trees[path])]
    assert stale == []


def test_annotation_names_read_strings_attributes_and_every_slot():
    source = ("import numpy as np\n"
              "def f(a: np.ndarray, *b: 'P', c: int = 0, **d: 'dict[str, Q]')"
              " -> 'R':\n    e: S = 1\n    g = 2\n"
              "class A:\n    h: 'T | None'\n")
    assert sorted(annotation_names(ast.parse(source))) == [
        "P", "Q", "R", "S", "T", "dict", "int", "np", "str"]


def test_module_level_names_skip_nested_bindings():
    source = ("import os.path\nfrom a import b as c\nX = 1\ndef f():\n"
              "    import y\n    z = 2\nclass A:\n    w = 3\n")
    assert module_level_names(ast.parse(source)) == {"os", "c", "X", "f", "A"}

"""Nothing on the exact side of the package touches a float.

The modules that compute the cross-checked invariants name no float or
complex type, numpy's included, and hold no float or complex literal.
Floats enter only in ``flowlab``, which converts exact data itself
(``flowlab.reps``).
"""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hypertoric"
EXACT_SIDE = ("exact", "flats", "torus", "morse", "arrangement", "ringcalc",
              "crosscheck")
FLOAT_TYPE = re.compile(r"(float|complex)\d*|c?(long)?double|single|half")


def float_uses(tree):
    """(line, text) of each float type named and each float literal."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.Constant):
            if isinstance(node.value, (float, complex)):
                yield node.lineno, repr(node.value)
            name = node.value if isinstance(node.value, str) else ""
        else:
            continue
        if FLOAT_TYPE.fullmatch(name):
            yield node.lineno, name


@pytest.mark.parametrize("module", EXACT_SIDE)
def test_exact_module_uses_no_float(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    assert list(float_uses(tree)) == []


def test_float_uses_finds_each_kind():
    source = ("x = float(1)\ny = np.complex128\nz = 0.5\nw = 2j\n"
              "a = np.zeros(2, dtype='float64')\nfrom numpy import double\n"
              "ok = perp_part_complex(int(3), 'floats are refused')\n")
    lines = sorted(line for line, _ in float_uses(ast.parse(source)))
    assert lines == [1, 2, 3, 4, 5, 6]

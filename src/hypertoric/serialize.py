"""JSON conversions for setups, polynomials, and input arrays.

Exact rational data travels as strings ("3/4") so nothing is ever
rounded; floats appear only in the floating-point sections of reports.
All user-facing indices are 1-based; everything internal stays 0-based.
"""

from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import InputError
from .torus import TorusSetup, new_setup


def rational_to_str(value: Fraction) -> str:
    try:
        return str(Fraction(value))
    except ValueError as exc:  # a part past sys.get_int_max_str_digits()
        raise InputError(f"cannot print an exact value: {exc}") from exc


def setup_to_json(setup: TorusSetup) -> dict:
    return {
        "weights": [[int(w) for w in row] for row in setup.weights],
        "alpha": [rational_to_str(a) for a in setup.alpha],
        "beta": [[rational_to_str(x) for x in b] for b in setup.beta],
    }


def setup_from_json(obj) -> TorusSetup:
    if not isinstance(obj, dict):
        raise InputError("setup input must be a JSON object")
    if "weights" not in obj:
        raise InputError("setup input needs a \"weights\" field")
    weights = obj["weights"]
    if not isinstance(weights, list) or any(not isinstance(r, list) for r in weights):
        raise InputError("\"weights\" must be a list of integer rows")
    alpha = obj.get("alpha")
    beta = obj.get("beta")
    for name, value in (("alpha", alpha), ("beta", beta)):
        if value is not None and not isinstance(value, list):
            raise InputError(f"\"{name}\" must be a list with one entry per column")
    unknown = set(obj) - {"weights", "alpha", "beta"}
    if unknown:
        raise InputError(f"unknown setup fields: {sorted(unknown)}")
    return new_setup(tuple(tuple(w for w in row) for row in weights),
                     alpha=alpha, beta=beta)


def poly_to_json(poly: tuple) -> list:
    return list(poly)


def flat_to_json(flat: Sequence[int]) -> list:
    """1-based index list for user-facing output."""
    return [i + 1 for i in flat]


def _numbers_only(value) -> bool:
    stack = [value]  # not recursive: JSON may nest deeper than Python's stack
    while stack:
        item = stack.pop()
        if isinstance(item, list):
            stack.extend(item)
        elif isinstance(item, bool) or not isinstance(item, (int, float)):
            return False
    return True


def parse_float_array(value, what: str) -> np.ndarray:
    """A float64 array of nested JSON lists of numbers.  Booleans and
    strings are refused, not read as 1.0; ragged lists and integers beyond
    float range raise InputError too."""
    if not _numbers_only(value):
        raise InputError(f"{what} must hold only numbers")
    try:
        return np.array(value, dtype=np.float64)
    except (ValueError, OverflowError) as exc:
        raise InputError(f"{what} must be a rectangular array of numbers "
                         f"in float range") from exc


def parse_matrix_list(obj):
    """Complex matrices given as {"re": [[..]], "im": [[..]]} objects."""
    if isinstance(obj, dict) and "matrices" in obj:
        obj = obj["matrices"]
    if not isinstance(obj, list) or not obj:
        raise InputError("expected a nonempty JSON list of complex matrices")
    mats = []
    for idx, entry in enumerate(obj):
        if not isinstance(entry, dict) or "re" not in entry or "im" not in entry:
            raise InputError(
                f"matrix {idx} must be an object with \"re\" and \"im\" parts")
        re = parse_float_array(entry["re"], f"matrix {idx}")
        im = parse_float_array(entry["im"], f"matrix {idx}")
        if re.shape != im.shape or re.ndim != 2:
            raise InputError(f"matrix {idx} parts must be equal-shape 2d arrays")
        mats.append(re + 1j * im)
    return mats

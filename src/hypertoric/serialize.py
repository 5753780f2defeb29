"""JSON conversions for setups, polynomials, and genericity witnesses.

Exact rational data travels as strings ("3/4") so nothing is ever
rounded; floats appear only in the floating-point sections of reports.
All user-facing indices are 1-based; everything internal stays 0-based.
"""

from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import InputError
from .exact import CRat, PoincarePoly, as_rat
from .torus import TorusSetup, new_setup


def rational_to_str(value: Fraction) -> str:
    return str(Fraction(value))


def parse_rational(value) -> Fraction:
    if isinstance(value, float):
        raise InputError(
            f"floating-point literal {value!r} is not accepted for exact data; "
            "write it as a rational string like \"3/4\"")
    try:
        return as_rat(value)
    except (TypeError, ValueError) as exc:
        raise InputError(f"cannot read {value!r} as a rational number") from exc


def complex_to_json(value: CRat) -> list:
    return [rational_to_str(value.re), rational_to_str(value.im)]


def parse_complex(value) -> CRat:
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise InputError(
                "a complex level entry must be a value or a [re, im] pair")
        return CRat(parse_rational(value[0]), parse_rational(value[1]))
    return CRat(parse_rational(value))


def setup_to_json(setup: TorusSetup) -> dict:
    return {
        "weights": [[int(w) for w in row] for row in setup.weights],
        "alpha": [rational_to_str(a) for a in setup.alpha],
        "beta": [complex_to_json(b) for b in setup.beta],
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
    if alpha is not None:
        alpha = [parse_rational(a) for a in alpha]
    if beta is not None:
        beta = [parse_complex(b) for b in beta]
    unknown = set(obj) - {"weights", "alpha", "beta"}
    if unknown:
        raise InputError(f"unknown setup fields: {sorted(unknown)}")
    return new_setup(tuple(tuple(w for w in row) for row in weights),
                     alpha=alpha, beta=beta)


def poly_to_json(poly: PoincarePoly) -> list:
    return list(poly.coeffs)


def flat_to_json(flat: Sequence[int]) -> list:
    """1-based index list for user-facing output."""
    return [i + 1 for i in flat]


def witness_to_json(witness) -> dict:
    """Structured form of a genericity witness, indices 1-based."""
    kind = witness[0]
    if kind == "pairing":
        return {"kind": "pairing", "flat": flat_to_json(witness[1]),
                "weight": witness[2] + 1}
    if kind in ("residual_collision", "level_collision"):
        return {"kind": kind, "flats": [flat_to_json(witness[1]),
                                        flat_to_json(witness[2])]}
    if kind == "not_simple":
        return {"kind": "not_simple", "hyperplanes": flat_to_json(witness[1])}
    return {"kind": str(kind), "data": [str(part) for part in witness[1:]]}


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
        try:
            re = np.array(entry["re"], dtype=np.float64)
            im = np.array(entry["im"], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise InputError(f"matrix {idx} has non-numeric entries") from exc
        if re.shape != im.shape or re.ndim != 2:
            raise InputError(f"matrix {idx} parts must be equal-shape 2d arrays")
        mats.append(re + 1j * im)
    return mats

"""Exception types shared across the package.

``exit_code`` is the command line's exit status for a class and the
subclasses that do not set their own: 2 refused input, 3 non-generic or
degenerate parameters, 4 a failed cross-check or internal invariant.
"""


def witness_to_json(witness) -> dict:
    """Structured form of a genericity witness, indices 1-based: a pairing
    of a flat and a row outside it, or a level collision of two flats."""
    kind, first, second = witness
    if kind == "pairing":
        return {"kind": kind, "flat": [i + 1 for i in first], "weight": second + 1}
    return {"kind": kind, "flats": [[i + 1 for i in first], [i + 1 for i in second]]}


class HypertoricError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 4


class InputError(HypertoricError):
    """Refused input: malformed, too large to enumerate, or beyond floats."""

    exit_code = 2


class DimensionMismatch(InputError):
    """Parameter vectors do not match the weight matrix dimensions."""


class RankDeficient(InputError):
    """The weight matrix does not have full column rank."""


class NonGeneric(HypertoricError):
    """Parameters that are non-generic or degenerate for the computation."""

    exit_code = 3


class NonZeroRemainder(HypertoricError):
    """An exact polynomial division left a remainder."""


class CircleInsideTorus(NonGeneric):
    """Modification column already lies in the column span of the weights."""


def _refuse_level(self, witness):
    """The one constructor of a level's refusal: it keeps the decision's
    0-based witness and names the 1-based form the report carries."""
    self.witness = witness
    NonGeneric.__init__(self, f"{self.level} is not generic: " + ", ".join(
        f"{key} {value}" for key, value in witness_to_json(witness).items()))


class NonGenericBeta(NonGeneric):
    """Complex parameter fails a genericity condition; carries a witness."""

    level = "beta"
    __init__ = _refuse_level


class NonGenericAlpha(NonGeneric):
    """Real parameter fails a genericity condition; carries a witness."""

    level = "alpha"
    __init__ = _refuse_level


class SamplingExhausted(NonGeneric):
    """Rejection sampling failed to find generic parameters within budget."""


class EnumerationTooLarge(InputError):
    """Requested subset enumeration exceeds the supported size bound."""


class InvariantViolation(HypertoricError):
    """An internal invariant of an exact computation failed."""


class PartitionViolation(HypertoricError):
    """Modification case analysis failed to partition the flats."""


class NonFiniteState(HypertoricError):
    """A flow state left the finite floating-point range."""

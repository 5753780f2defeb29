"""Exception types shared across the package.

``exit_code`` is the command line's exit status for a class and the
subclasses that do not set their own: 2 refused input, 3 non-generic or
degenerate parameters, 4 a failed cross-check or internal invariant.
"""


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


class NonGenericBeta(NonGeneric):
    """Complex parameter fails a genericity condition; carries a witness."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"beta is not generic: {witness}")


class NonGenericAlpha(NonGeneric):
    """Real parameter fails a genericity condition; carries a witness."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"alpha is not generic: {witness}")


class SamplingExhausted(NonGeneric):
    """Rejection sampling failed to find generic parameters within budget."""


class EnumerationTooLarge(InputError):
    """Requested subset enumeration exceeds the supported size bound."""


class DegenerateNormal(NonGeneric):
    """A Gale-dual normal vanishes (the coordinate is torus-fixed up to scale)."""


class NotSimple(NonGeneric):
    """The affine arrangement has a dependent-normal coincidence."""


class InvariantViolation(HypertoricError):
    """An internal invariant of an exact computation failed."""


class PartitionViolation(HypertoricError):
    """Modification case analysis failed to partition the flats."""


class NonFiniteState(HypertoricError):
    """A flow state left the finite floating-point range."""


class InsufficientTail(HypertoricError):
    """Too few trajectory samples in the decay window for a tail estimate."""

"""Exception types shared across the package."""


class HypertoricError(Exception):
    """Base class for all package-specific errors."""


class InputError(HypertoricError):
    """Malformed user input (bad JSON, wrong shapes, unparsable rationals)."""


class DimensionMismatch(InputError):
    """Parameter vectors do not match the weight matrix dimensions."""


class RankDeficient(InputError):
    """The weight matrix does not have full column rank."""


class NonZeroRemainder(HypertoricError):
    """An exact polynomial division left a remainder."""


class CircleInsideTorus(HypertoricError):
    """Modification column already lies in the column span of the weights."""


class NonGenericBeta(HypertoricError):
    """Complex parameter fails a genericity condition; carries a witness."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"beta is not generic: {witness}")


class NonGenericAlpha(HypertoricError):
    """Real parameter fails a genericity condition; carries a witness."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"alpha is not generic: {witness}")


class SamplingExhausted(HypertoricError):
    """Rejection sampling failed to find generic parameters within budget."""


class EnumerationTooLarge(HypertoricError):
    """Requested subset enumeration exceeds the supported size bound."""


class DegenerateNormal(HypertoricError):
    """A Gale-dual normal vanishes (the coordinate is torus-fixed up to scale)."""


class NotSimple(HypertoricError):
    """The affine arrangement has a dependent-normal coincidence."""


class InvariantViolation(HypertoricError):
    """An internal invariant of an exact computation failed."""


class PartitionViolation(HypertoricError):
    """Modification case analysis failed to partition the flats."""


class NonFiniteState(HypertoricError):
    """A flow state left the finite floating-point range."""


class InsufficientTail(HypertoricError):
    """Too few trajectory samples in the decay window for a tail estimate."""

"""Exception types shared across the package."""


class RelConvexError(Exception):
    """Base class for all structured errors raised by this package."""


class LengthError(RelConvexError):
    """A sequence is too short for the requested operation."""


class LengthMismatch(RelConvexError):
    """Paired sequences have different lengths."""


class WitnessNotIncreasing(RelConvexError):
    """Witness abscissae are not strictly increasing."""


class ShapeError(RelConvexError):
    """The sequence does not have one of the strictly V-shaped profiles."""


class SignError(RelConvexError):
    """A slope-schedule entry has the wrong sign for its segment."""


class MonotoneError(RelConvexError):
    """A slope schedule is not strictly increasing."""


class IntervalError(RelConvexError):
    """An interval was given with alpha >= beta."""


class OutOfDomain(RelConvexError):
    """A query point lies outside the polygonal domain."""


class ZeroTotalWeight(RelConvexError):
    """Weights sum to zero."""


class DegenerateWitness(RelConvexError):
    """The witness has no usable spread for the requested functional."""


class PreconditionViolation(RelConvexError):
    """A documented precondition failed verification."""


class IndexOutOfRange(RelConvexError):
    """A 1-based index is not an integer position of the sequence."""


class NotStrictlyIncreasing(RelConvexError):
    """The sequence must be strictly increasing for this check."""


class InfeasibleShape(RelConvexError):
    """The requested shape cannot be realized at the given length."""


class NonFiniteArithmetic(RelConvexError, ArithmeticError):
    """The compared quantities overflowed to inf or NaN, so no verdict can be given."""

"""Exception types shared across the package."""


class SchubertError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(SchubertError):
    """Vector or matrix shapes are incompatible."""


class SingularInput(SchubertError):
    """A pivot fell below the zero threshold."""


class NotInFiber(SchubertError):
    """Input fails the det = 1 / Pf = 1 membership test."""


class NotUnitary(SchubertError):
    """Input is not unitary within tolerance."""


class NotSymmetric(SchubertError):
    """Input is not symmetric within tolerance."""


class NotSkewSymmetric(SchubertError):
    """Input is not skew-symmetric within tolerance."""


class OddDimension(SchubertError):
    """Operation requires an even matrix dimension."""


class ZeroVector(SchubertError):
    """A (near-)zero vector where a direction is required."""


class ConvergenceFailure(SchubertError):
    """A numerical engine could not reproduce its input within tolerance.

    Raised when a reconstruction residual or a structural law fails on an
    input that passed the membership checks; the subclasses name the law.
    """


class NotInModel(SchubertError):
    """Input is not in the requested compact model within tolerance."""


class StructureViolation(ConvergenceFailure):
    """A structural law of the skew factorization failed beyond tolerance."""


class RealAxisExtractionFailure(ConvergenceFailure):
    """A factor axis that should be real (up to phase) is not."""


class InvalidSymbol(SchubertError):
    """A tuple that is not a valid Schubert symbol for the given class."""


class UnsupportedCoefficients(SchubertError):
    """Coefficient ring not supported for this class."""


class UnsupportedClass(SchubertError, ValueError):
    """Matrix class not supported by this operation, or not a class at all."""


class NotDisjoint(SchubertError):
    """Two symbols share an entry where disjointness is required."""


class PreconditionViolated(SchubertError):
    """An explicit operation precondition does not hold."""

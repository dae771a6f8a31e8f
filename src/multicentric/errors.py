"""Exception hierarchy.

ValidationFailure covers malformed or inconsistent inputs (the CLI maps
these to exit code 2), NumericalFailure covers computations that are
refused or did not converge (exit code 1).
"""


class MulticentricError(Exception):
    pass


class ValidationFailure(MulticentricError):
    pass


class NumericalFailure(MulticentricError):
    pass


class SingularMatrix(NumericalFailure):
    """A linear system whose matrix is numerically singular.

    ``index`` is the position of the offending matrix in a stacked solve.
    """

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


class DimensionTooLarge(ValidationFailure):
    """Matrix dimension above the supported cap of the eigenvalue solver."""


class ConvergenceFailure(NumericalFailure):
    """An iteration hit its cap before reaching the requested tolerance."""


class CentersDegenerate(ValidationFailure):
    """Centers (or requested polynomial roots) are not pairwise distinct."""


class SampleMiss(ValidationFailure):
    """A required sample point is absent from the sample set."""


class CriticalValue(NumericalFailure):
    """Evaluation requested at (or too close to) a critical value."""


class ContextMismatch(ValidationFailure):
    """Operands belong to different algebra contexts or sample sets."""


class NotInvertible(NumericalFailure):
    """The scalar representation vanishes somewhere on the fibers."""


class AlgebraOverflow(NumericalFailure):
    """Intermediate quantities left the representable float range, or
    grew too large for the result to keep its accuracy."""


class NotSimplifying(ValidationFailure):
    """Polynomial derivatives do not vanish to the required order."""


class NoSimpleShiftFound(NumericalFailure):
    """No constant shift with simple, admissible roots was found."""


class InsufficientData(ValidationFailure):
    """Derivative data shorter than the multiplicities require."""


class MalformedInput(ValidationFailure):
    """JSON payload missing fields or carrying wrong shapes/types."""

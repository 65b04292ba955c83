"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets its own class;
generic misuse (wrong types, malformed words) raises ValueError.
"""


class EllbarError(Exception):
    """Base class for all package-specific errors."""


class DegenerateCurve(EllbarError):
    """The cubic 4x^3 - a x - b has a repeated root (a^3 - 27 b^2 = 0)."""


class ConvergenceFailure(EllbarError):
    """An iteration or series (AGM, series tail) failed to converge."""


class NearPole(EllbarError):
    """Evaluation point too close to the polar divisor of the function."""


class LatticeError(EllbarError):
    """Argument is not a lattice element, or the basis is invalid."""


class ProbeInconsistency(EllbarError):
    """Quasi-period probes at independent base points disagree."""


class GuardViolation(EllbarError):
    """Integration path passes closer to the divisor than the guard radius."""


class QuadratureFailure(EllbarError):
    """Adaptive panel refinement exceeded its budget without meeting tolerance."""


class FitInstability(EllbarError):
    """Regularization fit has residual or drift above tolerance.

    Nothing in ellbar raises it since the genus-zero regularization became
    local series; it stays because the benchmark's genus0 defect probe
    names it.
    """


class TruncationExceeded(EllbarError):
    """Requested index lies beyond the configured truncation order."""


class UnknownSymbol(EllbarError):
    """A word uses a letter that is not in the DGA presentation."""


class DimensionBound(EllbarError):
    """The word space is larger than the configured dimension bound."""


class EndpointMismatch(EllbarError):
    """Paths cannot be composed: endpoints do not match."""


class NotAdmissible(EllbarError):
    """The multiple zeta index is not admissible (leading entry is 1)."""

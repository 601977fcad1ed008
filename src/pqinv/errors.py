"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operand dimensions are incompatible for the requested operation."""


class NumericalError(RuntimeError):
    """A computation finished but failed its own validation (axiom
    residuals above tolerance, non-convergence, internal inconsistency)."""


class SpectrumError(NumericalError):
    """A spectral precondition is violated (shift too close to the
    spectrum, or an eigenvalue on the wrong side of the imaginary axis)."""


class NonexistentInverseError(Exception):
    """The requested generalized inverse provably does not exist.

    ``reason`` names the failing condition; ``residuals`` (when present)
    carries the numbers that witnessed the failure.
    """

    def __init__(self, reason, residuals=None):
        super().__init__(reason)
        self.reason = reason
        self.residuals = dict(residuals) if residuals else {}

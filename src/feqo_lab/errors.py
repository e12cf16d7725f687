"""Exception hierarchy shared across the package."""


class FeqoLabError(Exception):
    """Base class for all feqo-lab errors."""


class DomainError(FeqoLabError, ValueError):
    """Physical input outside its admissible domain (e.g. beta not in (0,1))."""


class GratingError(DomainError):
    """Phase-matching query with no solution (forbidden harmonic, bad denominator)."""


class BasisError(FeqoLabError, ValueError):
    """Malformed Hilbert-space specification or mismatched operands."""


class TruncationError(FeqoLabError):
    """Fock-space cutoff too small for the requested state."""

    def __init__(self, message: str, required_cutoff: int | None = None):
        super().__init__(message)
        self.required_cutoff = required_cutoff


class PropagationError(FeqoLabError):
    """Time propagation aborted (norm drift, eigen route over budget, no convergence)."""

"""Exception types and positive_int, the one count rule, shared across the package."""

from numbers import Integral


class QaoaLinearError(Exception):
    """Base class for all package-specific errors."""


class ResourceLimitError(QaoaLinearError):
    """A request would exceed a configured resource cap.

    Raised before any allocation happens: by the dense statevector
    simulator when the qubit count is above the allowed maximum, and by
    the sampling harness when runs times qubits is above its cap.
    """


class DegenerateProbabilityError(QaoaLinearError):
    """A success probability is too small to be useful.

    Raised by the sampling harness when the expected number of trials
    would be astronomically large (probability below 1e-9), and by
    prob_opt_replicated when the replicated probability underflows.
    """


def positive_int(value, what: str) -> int:
    """int(value) for an integer >= 1 (numpy's too, not bool); else ValueError naming what."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
        raise ValueError(f"{what} must be a positive integer, got {value!r}")
    return int(value)

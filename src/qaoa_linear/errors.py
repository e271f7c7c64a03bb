"""Exception types shared across the package."""


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

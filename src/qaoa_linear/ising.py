"""Linear Ising models: H = sum_l a_l * z_l with spins z_l in {-1, +1}.

No couplings, so everything factorizes per qubit: the classical optimum,
the optimal measurement outcome, and later the ansatz success probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import positive_int


@dataclass(frozen=True)
class LinearIsing:
    """Immutable linear model defined by its per-qubit field coefficients."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        coeffs = tuple(float(a) for a in self.coeffs)
        if not coeffs:
            raise ValueError("a linear model needs at least one coefficient")
        for i, a in enumerate(coeffs):
            if not math.isfinite(a):
                raise ValueError(f"coefficient {i + 1} is not finite: {a!r}")
            if a == 0.0:
                raise ValueError(f"coefficient {i + 1} is zero; drop the qubit instead")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def n(self) -> int:
        return len(self.coeffs)


def evaluate(model: LinearIsing, spins) -> float:
    """Objective value sum_l a_l * z_l for a spin assignment in {-1, +1}^n."""
    spins = tuple(spins)
    if len(spins) != model.n:
        raise ValueError(f"expected {model.n} spins, got {len(spins)}")
    for i, z in enumerate(spins):
        if z not in (-1, 1):
            raise ValueError(f"spin {i + 1} must be -1 or +1, got {z!r}")
    return float(sum(a * z for a, z in zip(model.coeffs, spins)))


def solve_classical(model: LinearIsing) -> tuple[int, ...]:
    """The unique maximizing spin assignment: z_l = sign(a_l)."""
    return tuple(1 if a > 0 else -1 for a in model.coeffs)


def optimal_bits(model: LinearIsing) -> tuple[int, ...]:
    """Measurement bitstring for the optimum, bit 0 <-> spin +1."""
    return tuple(0 if a > 0 else 1 for a in model.coeffs)


def replicate(model: LinearIsing, k: int) -> LinearIsing:
    """Model on k*n qubits made of k copies of the coefficient vector."""
    return LinearIsing(model.coeffs * positive_int(k, "replication count"))


def consecutive(m: int) -> LinearIsing:
    """The benchmark family (1, 2, ..., m)."""
    m = positive_int(m, "model size")
    return LinearIsing(tuple(float(v) for v in range(1, m + 1)))


def parse_model(text: str) -> LinearIsing:
    """Parse a comma-separated coefficient list such as "1,2,3" or "0.5,-2"."""
    parts = [part.strip() for part in str(text).split(",")]
    if any(not part for part in parts):
        raise ValueError(f"malformed model literal: {text!r}")
    try:
        coeffs = tuple(float(part) for part in parts)
    except ValueError:
        raise ValueError(f"malformed model literal: {text!r}") from None
    return LinearIsing(coeffs)


def format_model(model: LinearIsing) -> str:
    """Inverse of parse_model; integers render without a trailing .0."""
    parts = []
    for a in model.coeffs:
        parts.append(str(int(a)) if a == int(a) else repr(a))
    return ",".join(parts)

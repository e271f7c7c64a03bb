"""Closed-form success probabilities for the layered ansatz on linear models.

The state after p layers factorizes over qubits, so the probability of
measuring the classical optimum is a product of single-qubit terms:

    Pr(model, params) = prod_l |<b_l| U_p ... U_1 |+>|^2

with U_j = rx(2*beta_j) rz(2*gamma_j*a_l) and b_l the optimal bit of
qubit l.  Everything here is exact (no sampling, no statevector).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateProbabilityError
from .gates import SQRT_HALF, _check_angle, bit_amplitudes
from .ising import LinearIsing, optimal_bits


@dataclass(frozen=True)
class QaoaParams:
    """Angle schedule (gamma_1..gamma_p, beta_1..beta_p); layer 1 acts first."""

    gammas: tuple[float, ...]
    betas: tuple[float, ...]

    def __post_init__(self):
        gammas = tuple(_check_angle(g) for g in self.gammas)
        betas = tuple(_check_angle(b) for b in self.betas)
        if not gammas:
            raise ValueError("need at least one layer")
        if len(gammas) != len(betas):
            raise ValueError(
                f"got {len(gammas)} gamma angles but {len(betas)} beta angles"
            )
        object.__setattr__(self, "gammas", gammas)
        object.__setattr__(self, "betas", betas)

    @property
    def p(self) -> int:
        return len(self.gammas)

    @classmethod
    def zero(cls, p: int) -> "QaoaParams":
        if not isinstance(p, int) or p < 1:
            raise ValueError(f"layer count must be a positive integer, got {p!r}")
        return cls((0.0,) * p, (0.0,) * p)


@dataclass(frozen=True)
class RuntimeEstimate:
    """Cost summary for solving a replicated model by repeated preparation.

    expected_samples is the expected number of state preparations before
    the optimum is observed, assuming each measured string can be checked
    classically at no cost.  It is therefore a lower bound on any notion
    of wall time; no gate-level costs are included.

    Past the float range prob_opt underflows to 0.0 and expected_samples
    is inf; log_prob_opt and log_expected_samples (natural logs) still
    carry the values.
    """

    prob_opt: float
    expected_samples: float
    exponent_base: float
    m: int
    n: int
    log_prob_opt: float
    log_expected_samples: float


def prob_opt(model: LinearIsing, params: QaoaParams) -> float:
    """Probability that measuring the ansatz state yields the optimum."""
    total = 1.0
    for a, bit in zip(model.coeffs, optimal_bits(model)):
        v0, v1 = bit_amplitudes(a, params.gammas, params.betas)
        v = v0 if bit == 0 else v1
        total *= v.real * v.real + v.imag * v.imag
    return total


def log_prob_opt(model: LinearIsing, params: QaoaParams) -> float:
    """Natural log of prob_opt; safe for models far past float underflow."""
    total = 0.0
    for a, bit in zip(model.coeffs, optimal_bits(model)):
        v0, v1 = bit_amplitudes(a, params.gammas, params.betas)
        v = v0 if bit == 0 else v1
        mag2 = v.real * v.real + v.imag * v.imag
        if mag2 == 0.0:
            return float("-inf")
        total += math.log(mag2)
    return total


def prob_opt_batch(model: LinearIsing, gammas: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """Vectorized prob_opt over a batch of angle schedules.

    gammas and betas are (batch, p) arrays; returns a (batch,) array.
    Same recurrence as the scalar path, run across the batch at once.
    """
    gammas = np.asarray(gammas, dtype=float)
    betas = np.asarray(betas, dtype=float)
    if gammas.ndim != 2 or gammas.shape != betas.shape:
        raise ValueError("gammas and betas must be (batch, p) arrays of equal shape")
    if gammas.shape[1] < 1:
        raise ValueError("need at least one layer")
    coeffs = np.asarray(model.coeffs)[None, :]
    bits = np.asarray(optimal_bits(model))[None, :]
    z0 = np.full((gammas.shape[0], model.n), SQRT_HALF, dtype=complex)
    z1 = z0.copy()
    for j in range(gammas.shape[1]):
        phase = np.exp(-1j * gammas[:, j : j + 1] * coeffs)
        z0 = z0 * phase
        z1 = z1 * phase.conj()
        c = np.cos(betas[:, j : j + 1])
        s = np.sin(betas[:, j : j + 1])
        z0, z1 = c * z0 - 1j * s * z1, -1j * s * z0 + c * z1
    amp = np.where(bits == 0, z0, z1)
    return np.prod(amp.real**2 + amp.imag**2, axis=1)


def prob_opt_replicated(base: LinearIsing, k: int, params: QaoaParams) -> float:
    """prob_opt for k copies of base, computed as prob_opt(base)**k.

    Replication multiplies probabilities because the state factorizes
    per qubit and copies share coefficients and angles.  Raises
    DegenerateProbabilityError when a positive base probability's k-th
    power falls below the smallest normal float, where it would lose
    its digits or read 0.0; log_prob_opt of the replica has the value.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"replication count must be a positive integer, got {k!r}")
    p_base = prob_opt(base, params)
    power = p_base**k
    if power < sys.float_info.min and p_base > 0.0:
        raise DegenerateProbabilityError(
            f"prob_opt(base)**{k} underflows: its natural log is "
            f"{k * math.log(p_base):.6g}; use log_prob_opt"
        )
    return power


def runtime_estimate(base: LinearIsing, k: int, params: QaoaParams) -> RuntimeEstimate:
    """Sampling-cost summary for the k-fold replication of base.

    exponent_base is prob_opt(base)**(-1/m) for m = base.n: the per-qubit
    growth factor, so expected_samples == exponent_base**n for n = k*m.
    expected_samples is inf when 1/prob_opt is past the float range.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"replication count must be a positive integer, got {k!r}")
    p_base = prob_opt(base, params)
    if p_base <= 0.0:
        raise ValueError("base probability is zero; runtime is unbounded at these angles")
    m = base.n
    try:
        expected = p_base ** (-float(k))
    except OverflowError:
        expected = math.inf
    log_prob = k * math.log(p_base)
    return RuntimeEstimate(
        prob_opt=p_base**k,
        expected_samples=expected,
        exponent_base=p_base ** (-1.0 / m),
        m=m,
        n=k * m,
        log_prob_opt=log_prob,
        log_expected_samples=-log_prob,
    )


# Max of Pr over the p=1 angle box for the model (1, 2) is the largest real
# root of this cubic.  Coefficients are exact integers.
_P1_M2_CUBIC = (5832.0, -6804.0, 1472.0, -8.0)


def _cubic(x: float) -> float:
    c3, c2, c1, c0 = _P1_M2_CUBIC
    return ((c3 * x + c2) * x + c1) * x + c0


def exact_p1_m2_max() -> float:
    """Largest real root in (0, 1) of 5832 x^3 - 6804 x^2 + 1472 x - 8.

    This equals max_{gamma, beta} prob_opt((1, 2), p=1).  Located by a
    sign scan over [0, 1] plus bisection; no polynomial solver involved,
    so tests can cross-check against companion-matrix roots.
    """
    grid = 2048
    roots = []
    prev_x = 0.0
    prev_f = _cubic(prev_x)
    for i in range(1, grid + 1):
        x = i / grid
        f = _cubic(x)
        if f == 0.0:
            roots.append(x)
        elif prev_f * f < 0.0:
            lo, hi = prev_x, x
            flo = prev_f
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                fmid = _cubic(mid)
                if fmid == 0.0:
                    lo = hi = mid
                    break
                if flo * fmid < 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fmid
                if hi - lo <= 1e-16:
                    break
            roots.append(0.5 * (lo + hi))
        prev_x, prev_f = x, f
    if not roots:
        raise RuntimeError("cubic has no root in (0, 1); coefficients corrupted")
    return max(roots)


def overlap_p1(a1: float, a2: float, params: QaoaParams) -> complex:
    """Inner product of the p=1 single-qubit states for coefficients a1, a2.

    The rx layer cancels, so the value is cos(gamma_1 * (a2 - a1))
    independent of beta_1; computed here from the full amplitudes.
    """
    if params.p != 1:
        raise ValueError(f"overlap_p1 is defined for p = 1 only, got p = {params.p}")
    u0, u1 = bit_amplitudes(a1, params.gammas, params.betas)
    w0, w1 = bit_amplitudes(a2, params.gammas, params.betas)
    return u0.conjugate() * w0 + u1.conjugate() * w1


def p2_sine_residuals(gamma1: float) -> tuple[float, float]:
    """The two stationarity residuals from the p = 2 analysis of (1, 2).

    Returns (sin(2g) - 2 sin(2g) cos(2g), sin(2g) - sin(6g)).  Both vanish
    only at g = 0 (mod pi); at g = +/- pi/6 the first vanishes while the
    second equals +/- sqrt(3)/2, which is why perfect p = 2 success picks
    those angles.
    """
    g = _check_angle(gamma1)
    s2 = math.sin(2.0 * g)
    return (s2 - 2.0 * s2 * math.cos(2.0 * g), s2 - math.sin(6.0 * g))

"""Closed-form success probabilities for the layered ansatz on linear models.

The state after p layers factorizes over qubits, so the probability of
measuring the classical optimum is a product of single-qubit terms:

    Pr(model, params) = prod_l |<b_l| U_p ... U_1 |+>|^2

with U_j = rx(2*beta_j) rz(2*gamma_j*a_l) and b_l the optimal bit of
qubit l.  Everything here is exact (no sampling, no statevector).

qubit_kernel squares each qubit's optimal-bit amplitude from
gates.layer_amplitudes, the package's one single-qubit recurrence.
prob_opt, log_prob_opt, prob_opt_batch, the sampler's per-qubit law and
the optimizers' objective are reductions over it; overlap_p1 reads the
amplitudes themselves.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateProbabilityError, positive_int
from .gates import _check_angle, _check_layers, _check_phase, layer_amplitudes
from .ising import LinearIsing, optimal_bits


@dataclass(frozen=True)
class QaoaParams:
    """Angle schedule (gamma_1..gamma_p, beta_1..beta_p); layer 1 acts first."""

    gammas: tuple[float, ...]
    betas: tuple[float, ...]

    def __post_init__(self):
        gammas, betas = _check_layers(self.gammas, self.betas)
        object.__setattr__(self, "gammas", tuple(gammas.tolist()))
        object.__setattr__(self, "betas", tuple(betas.tolist()))

    @property
    def p(self) -> int:
        return len(self.gammas)

    @classmethod
    def zero(cls, p: int) -> "QaoaParams":
        p = positive_int(p, "layer count")
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


def qubit_kernel(model: LinearIsing):
    """Per-qubit success probabilities over a batch of angle schedules.

    Returns kernel(gammas, betas), which maps (batch, p) arrays of finite
    angles, unvalidated, to the (n, batch) array of |<b_l|psi_l>|^2 from
    gates.layer_amplitudes.  The model's set-up is done once here.
    """
    coeffs = np.array(model.coeffs)[:, None]
    qubits = np.arange(model.n)
    bits = np.array(optimal_bits(model))

    def kernel(gammas: np.ndarray, betas: np.ndarray) -> np.ndarray:
        amp = layer_amplitudes(coeffs, gammas, betas)[:, bits, qubits]  # (part, qubit, point)
        amp *= amp
        return amp[0] + amp[1]

    return kernel


def qubit_probs(model: LinearIsing, params: QaoaParams) -> np.ndarray:
    """One schedule's (n,) per-qubit terms, in qubit order."""
    _check_phase(params.gammas, model.coeffs)
    return qubit_kernel(model)(np.array([params.gammas]), np.array([params.betas]))[:, 0]


def prob_opt(model: LinearIsing, params: QaoaParams) -> float:
    """Probability that measuring the ansatz state yields the optimum."""
    return float(np.multiply.reduce(qubit_probs(model, params)))


def log_prob_opt(model: LinearIsing, params: QaoaParams) -> float:
    """Natural log of prob_opt; safe for models far past float underflow.

    A sequential sum in qubit order: np.add.reduce sums pairwise.
    """
    total = 0.0
    for q in qubit_probs(model, params).tolist():
        if q == 0.0:
            return float("-inf")
        total += math.log(q)
    return total


def prob_opt_batch(model: LinearIsing, gammas: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """prob_opt over a batch of angle schedules, bit for bit.

    gammas and betas are (batch, p) arrays of finite angles; returns a
    (batch,) array: qubit_kernel's terms multiplied in qubit order.
    """
    gammas, betas = _check_layers(gammas, betas, ndim=2)
    if len(gammas) != len(betas):
        raise ValueError(f"got {len(gammas)} gamma schedules but {len(betas)} beta schedules")
    _check_phase(gammas, model.coeffs)
    return np.multiply.reduce(qubit_kernel(model)(gammas, betas), axis=0)


def prob_opt_replicated(base: LinearIsing, k: int, params: QaoaParams) -> float:
    """prob_opt for k copies of base, computed as prob_opt(base)**k.

    Replication multiplies probabilities because the state factorizes
    per qubit and copies share coefficients and angles.  Raises
    DegenerateProbabilityError when a nonzero probability's k-th power
    falls below the smallest normal float, even if prob_opt(base) itself
    underflowed; log_prob_opt of the replica has the value.  An exactly
    zero probability returns 0.0.
    """
    k = positive_int(k, "replication count")
    p_base = prob_opt(base, params)
    power = p_base**k
    if power < sys.float_info.min:
        log_base = log_prob_opt(base, params)
        if log_base > -math.inf:
            raise DegenerateProbabilityError(
                f"prob_opt(base)**{k} underflows: its natural log is "
                f"{k * log_base:.6g}; use log_prob_opt"
            )
    return power


def runtime_estimate(base: LinearIsing, k: int, params: QaoaParams) -> RuntimeEstimate:
    """Sampling-cost summary for the k-fold replication of base.

    exponent_base is prob_opt(base)**(-1/m) for m = base.n: the per-qubit
    growth factor, so expected_samples == exponent_base**n for n = k*m.
    expected_samples is inf when 1/prob_opt is past the float range.
    When prob_opt(base) itself underflows, exponent_base and the logs come
    from log_prob_opt(base); ValueError only for an exactly zero probability.
    """
    k = positive_int(k, "replication count")
    p_base = prob_opt(base, params)
    log_base = math.log(p_base) if p_base > 0.0 else log_prob_opt(base, params)
    if log_base == -math.inf:
        raise ValueError("base probability is zero; runtime is unbounded at these angles")
    m = base.n
    try:
        expected = p_base ** (-float(k))
    except (OverflowError, ZeroDivisionError):
        expected = math.inf
    log_prob = k * log_base
    return RuntimeEstimate(
        prob_opt=p_base**k,
        expected_samples=expected,
        exponent_base=p_base ** (-1.0 / m) if p_base > 0.0 else math.exp(-log_base / m),
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

    This equals max_{gamma, beta} prob_opt((1, 2), p=1).  Located by
    bisection on [1/2, 1]; no polynomial solver involved, so tests can
    cross-check against companion-matrix roots.
    """
    # The other two roots lie near 0.0055 and 0.28, so the cubic changes
    # sign exactly once on [1/2, 1]: f(1/2) = -244 < 0 < f(1) = 492.
    # After 53 halvings lo and hi are adjacent floats.
    lo, hi = 0.5, 1.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if _cubic(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def overlap_p1(a1: float, a2: float, params: QaoaParams) -> complex:
    """Inner product of the p=1 single-qubit states for coefficients a1, a2.

    The rx layer cancels, so the value is cos(gamma_1 * (a2 - a1))
    independent of beta_1; computed here from the full amplitudes.
    """
    if params.p != 1:
        raise ValueError(f"overlap_p1 is defined for p = 1 only, got p = {params.p}")
    coeffs = np.array(LinearIsing((a1, a2)).coeffs)[:, None]
    _check_phase(params.gammas, coeffs)
    u = layer_amplitudes(coeffs, np.array([params.gammas]), np.array([params.betas]))
    # [part][amplitude][qubit]: qubit 0 holds (u0, u1), qubit 1 holds (w0, w1)
    re, im = u[..., 0].tolist()
    (u0, w0), (u1, w1) = (map(complex, r, i) for r, i in zip(re, im))
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

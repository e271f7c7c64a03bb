"""The benchmark's own oracle, written apart from the program.

Nothing here imports qaoa_linear.  The success probability is computed
from explicit 2x2 matrices acting on every qubit at once, and the p = 1
maximum from the closed-form per-qubit factor

    (1 + sin 2b * sin(2g|a|)) / 2,

so neither shares code with the program's scalar recurrences.
"""

from __future__ import annotations

import math

import numpy as np


def qubit_probs(coeffs, gammas, betas) -> np.ndarray:
    """Per-qubit probability of measuring that qubit's optimal bit.

    Each qubit starts in |+>; layer j applies diag(e^{-i g a}, e^{+i g a})
    (rz(2 g a)) and then [[cos b, -i sin b], [-i sin b, cos b]] (rx(2 b)).
    The optimal bit is 0 for a > 0 and 1 for a < 0.
    """
    a = np.asarray(coeffs, dtype=float)
    state = np.full((a.size, 2), math.sqrt(0.5), dtype=complex)
    for g, b in zip(gammas, betas):
        phase = np.exp(-1j * g * a)
        state = state * np.stack([phase, phase.conj()], axis=1)
        c, s = math.cos(b), math.sin(b)
        state = state @ np.array([[c, -1j * s], [-1j * s, c]]).T
    amp = np.where(a > 0, state[:, 0], state[:, 1])
    return amp.real**2 + amp.imag**2


def success_prob(coeffs, gammas, betas) -> float:
    return float(np.prod(qubit_probs(coeffs, gammas, betas)))


def log_success_prob(coeffs, gammas, betas) -> float:
    return float(np.sum(np.log(qubit_probs(coeffs, gammas, betas))))


def p1_factor_prob(coeffs, gamma: float, beta: float) -> float:
    """The p = 1 closed form: prod_l (1 + sin 2b * sin(2g|a_l|)) / 2."""
    t = np.sin(2.0 * gamma * np.abs(np.asarray(coeffs, dtype=float)))
    return float(np.prod((1.0 + math.sin(2.0 * beta) * t) / 2.0))


def _best_s(t: np.ndarray) -> np.ndarray:
    """argmax over s in [-1, 1] of sum_l log(1 + s t_l), one row per gamma.

    The sum is concave in s, so its derivative sum_l t_l / (1 + s t_l)
    falls monotonically and bisection on its sign finds the maximum.
    """
    lo = np.full(t.shape[0], -1.0)
    hi = np.full(t.shape[0], 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(52):
            mid = 0.5 * (lo + hi)
            rising = np.sum(t / (1.0 + mid[:, None] * t), axis=1) > 0.0
            lo = np.where(rising, mid, lo)
            hi = np.where(rising, hi, mid)
    return 0.5 * (lo + hi)


def _profile(coeffs: np.ndarray, gammas: np.ndarray):
    """max over beta of the p = 1 log-probability, for each gamma."""
    t = np.sin(2.0 * gammas[:, None] * coeffs[None, :])
    s = _best_s(t)
    with np.errstate(divide="ignore"):
        value = np.sum(np.log((1.0 + s[:, None] * t) / 2.0), axis=1)
    return value, s


def p1_max(coeffs, gamma_max: float = math.pi, grid: int = 2048, keep: int = 4):
    """Best p = 1 success probability and its angles: (prob, gamma, beta).

    A grid over gamma in [0, gamma_max) with the best beta for each gamma,
    then golden-section refinement around the `keep` best local maxima of
    the grid, all at once.  gamma_max = pi covers integer coefficients,
    whose landscape has period pi in gamma.
    """
    a = np.abs(np.asarray(coeffs, dtype=float))
    step = gamma_max / grid
    gs = np.arange(grid) * step
    values, _ = _profile(a, gs)
    peaks = np.flatnonzero(
        (values >= np.roll(values, 1)) & (values >= np.roll(values, -1))
    )
    peaks = peaks[np.argsort(-values[peaks])][:keep]
    lo, hi = gs[peaks] - step, gs[peaks] + step
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(60):
        x1 = hi - inv_phi * (hi - lo)
        x2 = lo + inv_phi * (hi - lo)
        f = _profile(a, np.concatenate([x1, x2]))[0]
        left = f[: peaks.size] >= f[peaks.size :]
        hi = np.where(left, x2, hi)
        lo = np.where(left, lo, x1)
    g = 0.5 * (lo + hi)
    value, s = _profile(a, g)
    i = int(np.argmax(value))
    beta = 0.5 * math.asin(float(s[i]))
    return math.exp(float(value[i])), float(g[i]) % gamma_max, beta % math.pi

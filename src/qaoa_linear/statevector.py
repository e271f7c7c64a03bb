"""Dense statevector simulation of the full ansatz.

Exponential in qubit count; exists as an independent cross-check for the
product-formula fast path, not as a production path; run_ansatz refuses
more than MAX_QUBITS = 20 qubits before allocating.  Basis convention:
qubit 1 is the least significant bit of the basis index, so the state for
bits (b_1..b_n) sits at index sum_l b_l << (l - 1).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ResourceLimitError
from .ising import LinearIsing
from .probability import QaoaParams

MAX_QUBITS = 20


def _objective_values(model: LinearIsing) -> np.ndarray:
    """sum_l a_l * z_l for every basis state, bit 0 <-> spin +1."""
    idx = np.arange(1 << model.n)
    values = np.zeros(idx.shape, dtype=float)
    for l, a in enumerate(model.coeffs):
        bit = (idx >> l) & 1
        values += a * (1.0 - 2.0 * bit)
    return values


def run_ansatz(model: LinearIsing, params: QaoaParams) -> np.ndarray:
    """Amplitude vector of the p-layer ansatz state for the given model.

    Refuses models above MAX_QUBITS qubits before allocating anything.
    """
    n = model.n
    if n > MAX_QUBITS:
        raise ResourceLimitError(
            f"statevector for {n} qubits exceeds the cap of {MAX_QUBITS}"
        )
    values = _objective_values(model)
    state = np.full(1 << n, 1.0 / math.sqrt(1 << n), dtype=complex)
    for gamma, beta in zip(params.gammas, params.betas):
        # phase layer: exp(-i * gamma * H) is diagonal in the basis
        state = state * np.exp(-1j * gamma * values)
        # mixing layer: rx(2*beta) on every qubit
        c = math.cos(beta)
        s = math.sin(beta)
        for l in range(n):
            view = state.reshape(-1, 2, 1 << l)
            v0 = view[:, 0, :].copy()
            v1 = view[:, 1, :]
            view[:, 0, :] = c * v0 - 1j * s * v1
            view[:, 1, :] = -1j * s * v0 + c * v1
            state = view.reshape(-1)
    return state


def _basis_index(bits) -> tuple[int, int]:
    bits = tuple(bits)
    index = 0
    for l, b in enumerate(bits):
        if b not in (0, 1):
            raise ValueError(f"bit {l + 1} must be 0 or 1, got {b!r}")
        index |= b << l
    return index, len(bits)


def outcome_probability(state: np.ndarray, bits) -> float:
    """Probability of measuring the given bitstring (bit 1 first)."""
    state = np.asarray(state)
    index, n = _basis_index(bits)
    if state.shape != (1 << n,):
        raise ValueError(f"state has {state.size} amplitudes but got {n} bits")
    amp = state[index]
    return float(amp.real * amp.real + amp.imag * amp.imag)


def expectation(model: LinearIsing, state: np.ndarray) -> float:
    """<state| H |state> for the model Hamiltonian sum_l a_l Z_l."""
    state = np.asarray(state)
    if state.shape != (1 << model.n,):
        raise ValueError(
            f"state has {state.size} amplitudes; model needs {1 << model.n}"
        )
    weights = state.real**2 + state.imag**2
    return float(np.dot(_objective_values(model), weights))

"""Dense statevector simulation of the full ansatz.

Exponential in qubit count; exists as an independent cross-check for the
product-formula fast path, not as a production path; run_ansatz refuses
more than MAX_QUBITS = 20 qubits before allocating.  It is a generic
dense simulation (phase layer, then rx on every qubit) that does not use
the product structure, so it stays independent of the formula.  It works
through the state in blocks of BLOCK = 2^15 amplitudes and makes each
block's objective values as it goes, so peak memory is the state plus
O(BLOCK).  Basis convention:
qubit 1 is the least significant bit of the basis index, so the state for
bits (b_1..b_n) sits at index sum_l b_l << (l - 1).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ResourceLimitError
from .gates import _check_phase
from .ising import LinearIsing
from .probability import QaoaParams

MAX_QUBITS = 20
BLOCK = 1 << 15  # amplitudes per block: 512 KiB of complex128, small enough for cache
_IN_BLOCK = BLOCK.bit_length() - 1  # qubits whose butterfly pairs lie inside one block


def _objective_values(coeffs) -> np.ndarray:
    """sum_l a_l * z_l for every basis state of the given qubits, bit 0 <-> spin +1.

    Built by doubling: qubit l's coefficient is added to the lower half
    (bit l = 0) and subtracted from the upper half (bit l = 1).
    """
    values = np.zeros(1)
    for a in coeffs:
        values = np.concatenate((values + a, values - a))
    return values


def _objective_blocks(model: LinearIsing):
    """Yield (start, values): the objective values of each block of BLOCK basis states.

    One table covers the qubits inside a block; each higher qubit l then
    adds +a_l or -a_l by bit l of start, in qubit order.  These are the
    doubling's own additions in its own order, so every value is bit for
    bit that of _objective_values(model.coeffs).
    """
    coeffs = model.coeffs
    low = _objective_values(coeffs[:_IN_BLOCK])
    for start in range(0, 1 << model.n, BLOCK):
        values = low
        for l in range(_IN_BLOCK, model.n):
            values = values - coeffs[l] if start >> l & 1 else values + coeffs[l]
        yield start, values


def _rx(slab: np.ndarray, c: float, s: float) -> None:
    """rx(2*beta) in place on the (rows, 2, cols) slab's bit pairs [:, 0] and [:, 1]."""
    v0 = slab[:, 0, :].copy()
    v1 = slab[:, 1, :]
    slab[:, 0, :] = c * v0 - 1j * s * v1
    slab[:, 1, :] = -1j * s * v0 + c * v1


def run_ansatz(model: LinearIsing, params: QaoaParams) -> np.ndarray:
    """Amplitude vector of the p-layer ansatz state for the given model.

    Refuses models above MAX_QUBITS qubits before allocating anything.
    Works through the state in blocks of BLOCK amplitudes, making each
    block's objective values on the fly, so that peak memory is the
    state plus O(BLOCK).
    """
    n = model.n
    if n > MAX_QUBITS:
        raise ResourceLimitError(
            f"statevector for {n} qubits exceeds the cap of {MAX_QUBITS}"
        )
    _check_phase(params.gammas, sum(map(abs, model.coeffs)))  # the largest |energy|
    state = np.full(1 << n, 1.0 / math.sqrt(1 << n), dtype=complex)
    for gamma, beta in zip(params.gammas, params.betas):
        c = math.cos(beta)
        s = math.sin(beta)
        for start, values in _objective_blocks(model):
            block = state[start:start + BLOCK]
            # phase layer: exp(-i * gamma * H) is diagonal in the basis
            block *= np.exp(-1j * gamma * values)
            # mixing layer, rx(2*beta) on the qubits that pair amplitudes in this block
            for l in range(min(n, _IN_BLOCK)):
                _rx(block.reshape(-1, 2, 1 << l), c, s)
        # rx(2*beta) on the higher qubits, in block-sized column slabs of each row
        for l in range(_IN_BLOCK, n):
            view = state.reshape(-1, 2, 1 << l)
            for row in range(view.shape[0]):
                for col in range(0, 1 << l, BLOCK // 2):
                    _rx(view[row:row + 1, :, col:col + BLOCK // 2], c, s)
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
    total = 0.0
    for start, values in _objective_blocks(model):
        block = state[start:start + BLOCK]
        total += np.dot(values, block.real**2 + block.imag**2)
    return float(total)

"""Dense statevector simulation of the full ansatz.

Exponential in qubit count; exists as an independent cross-check for the
product-formula fast path, not as a production path; run_ansatz refuses
more than MAX_QUBITS = 20 qubits, and models whose energies overflow a
float, before allocating.  It is a generic dense simulation (phase layer,
then rx on every qubit) that does not use the product structure, so it
stays independent of the formula.  It works through the state in blocks
of BLOCK = 2^15 amplitudes and makes each block's objective values as it
goes.  The mixing layer goes five qubits per matmul: the 32 x 32 operator
rx(2*beta)^(x 5) on groups of the 15 qubits inside a block, and once on
the at most five higher qubits in block-sized column slabs.  So peak
memory is the state plus O(BLOCK).  Basis convention:
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
_IN_BLOCK = BLOCK.bit_length() - 1  # qubits whose rx pairs lie inside one block
_GROUP = 5  # qubits mixed by one matmul; MAX_QUBITS - _IN_BLOCK high qubits make one group


def _energy_bound(model: LinearIsing) -> float:
    """sum_l |a_l|, the largest |energy|: ValueError, naming the sum, unless it
    is a finite float, for then the objective values overflow to inf."""
    total = sum(map(abs, model.coeffs))
    if not math.isfinite(total):
        raise ValueError(
            f"energy bound sum|a_l| over {model.n} qubits overflows a float: {total!r}"
        )
    return total


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


def _mixers(beta: float) -> list[np.ndarray]:
    """rx(2*beta)^(x k) for k = 0.._GROUP: entry k mixes k qubits in one matmul.

    Each is a Kronecker power of the 2x2 gate [[c, -is], [-is, c]], which
    is gates.rx(2*beta); its k factors are alike, so entry k acts on any k
    qubits that index its rows, in either order.
    """
    c = math.cos(beta)
    s = math.sin(beta)
    gate = np.array([[c, -1j * s], [-1j * s, c]])
    mixers = [np.ones((1, 1), dtype=complex)]
    for _ in range(_GROUP):
        mixers.append(np.kron(mixers[-1], gate))
    return mixers


def run_ansatz(model: LinearIsing, params: QaoaParams) -> np.ndarray:
    """Amplitude vector of the p-layer ansatz state for the given model.

    Refuses models above MAX_QUBITS qubits, and models whose energies or
    phases overflow a float, before allocating anything.  Works through
    the state in blocks of BLOCK amplitudes, making each block's
    objective values on the fly.  Mixing goes five qubits per matmul:
    inside a block, the low qubits in groups of up to five, each group
    one np.matmul of rx(2*beta)^(x k) with the block's (-1, 2^k, 2^l)
    view; then the high qubits as one group, on column slabs of the
    (2^h, BLOCK) view that hold BLOCK amplitudes each.  So peak memory
    is the state plus O(BLOCK).  BLAS sums each group's products in its
    own order, so amplitudes can differ from a qubit-by-qubit loop in
    their last bits.
    """
    n = model.n
    if n > MAX_QUBITS:
        raise ResourceLimitError(
            f"statevector for {n} qubits exceeds the cap of {MAX_QUBITS}"
        )
    _check_phase(params.gammas, _energy_bound(model))
    low = min(n, _IN_BLOCK)  # qubits that pair amplitudes inside one block
    high = n - low  # at most _GROUP, so they form one group
    state = np.full(1 << n, 1.0 / math.sqrt(1 << n), dtype=complex)
    for gamma, beta in zip(params.gammas, params.betas):
        mixers = _mixers(beta)
        for start, values in _objective_blocks(model):
            block = state[start:start + BLOCK]
            # phase layer: exp(-i * gamma * H) is diagonal in the basis
            block *= np.exp(-1j * gamma * values)
            # mixing layer on the low qubits, a group of up to _GROUP at a time
            for l in range(0, low, _GROUP):
                k = min(_GROUP, low - l)
                view = block.reshape(-1, 1 << k, 1 << l)
                view[...] = np.matmul(mixers[k], view)
        if high:  # mixing layer on the high qubits, in slabs of BLOCK amplitudes
            rows = state.reshape(1 << high, BLOCK)  # row: the high qubits' bits
            width = BLOCK >> high
            for col in range(0, BLOCK, width):
                slab = rows[:, col:col + width]
                slab[...] = mixers[high] @ slab
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
    _energy_bound(model)
    total = 0.0
    for start, values in _objective_blocks(model):
        block = state[start:start + BLOCK]
        total += np.dot(values, block.real**2 + block.imag**2)
    return float(total)

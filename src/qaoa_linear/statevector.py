"""Dense statevector simulation of the full ansatz.

Exponential in qubit count; exists as an independent cross-check for the
product-formula fast path, not as a production path; run_ansatz refuses
more than MAX_QUBITS = 20 qubits, and models whose energies overflow a
float, before allocating.  It is a generic dense simulation (phase layer,
then rx on every qubit) that does not use the product structure, so it
stays independent of the formula.  It works through the state in blocks
of BLOCK = 2^15 amplitudes.  The phase layer comes from two tables per
layer: exp(-i*gamma*L) over the objective values L of the 15 qubits
inside a block, and exp(-i*gamma*H) over those of the at most five
higher qubits, one entry per block.  The mixing layer goes five qubits
per matmul: the 32 x 32 operator rx(2*beta)^(x 5) on groups of the 15
qubits inside a block, the lowest group as one GEMM over the block's
rows of 32, and once on the higher qubits in block-sized column slabs.
Each matmul writes into the other of the block and one scratch block,
and the phase table is reused across layers, so peak memory is the
state plus at most three blocks.  Basis convention:
qubit 1 is the least significant bit of the basis index, so the state for
bits (b_1..b_n) sits at index sum_l b_l << (l - 1).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ResourceLimitError
from .gates import _check_phase, rx
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


def _energy_split(coeffs) -> tuple[int, np.ndarray, np.ndarray]:
    """(low, L, H): the objective value at index h * BLOCK + j is L[j] + H[h].

    L holds the values of the low = min(n, 15) qubits inside a block, one
    per index in it; H those of the at most five higher qubits, one per block.
    """
    low = min(len(coeffs), _IN_BLOCK)
    return low, _objective_values(coeffs[:low]), _objective_values(coeffs[low:])


def _mixers(beta: float) -> list[np.ndarray]:
    """rx(2*beta)^(x k) for k = 0.._GROUP: entry k mixes k qubits in one matmul.

    Each is a Kronecker power of gates.rx(2*beta); its k factors are alike,
    so entry k acts on any k qubits that index its rows, in either order.
    """
    gate = rx(2 * beta)
    mixers = [np.ones((1, 1), dtype=complex)]
    for _ in range(_GROUP):
        mixers.append(np.kron(mixers[-1], gate))
    return mixers


def run_ansatz(model: LinearIsing, params: QaoaParams) -> np.ndarray:
    """Amplitude vector of the p-layer ansatz state for the given model.

    Refuses models above MAX_QUBITS qubits, and models whose energies or
    phases, or schedules whose 2*beta, overflow a float, before
    allocating anything.  Works through the state in blocks of BLOCK
    amplitudes.  Within a block the high qubits' part of the energy is
    one constant, so the phase layer exp(-i*gamma*(L+H)) is split in two
    by _energy_split: once per layer it tables exp(-i*gamma*L) and
    exp(-i*gamma*H), and each block is multiplied by the first table and
    then by its own entry of the second; the first table is rebuilt in
    place each layer.  Mixing goes five qubits per matmul: inside a
    block, the low qubits in groups of up to five, each group one
    np.matmul of rx(2*beta)^(x k) with the block's (-1, 2^k, 2^l) view,
    except the lowest, which is one GEMM of the (-1, 2^k) view with the
    transposed operator; then the high qubits as one group, on column
    slabs of the (2^h, BLOCK) view that hold BLOCK amplitudes each.
    Every matmul writes through out= into the other of the block and one
    scratch block allocated per call, and the result is copied back into
    the block only after an odd number of groups.  So peak memory is the
    state plus at most three blocks, most of them the scratch and the
    phase table.  The split phase and BLAS's own order of each
    group's sums both round differently from one exp per amplitude and a
    qubit-by-qubit loop, so amplitudes can differ from those in their
    last bits.
    """
    n = model.n
    if n > MAX_QUBITS:
        raise ResourceLimitError(
            f"statevector for {n} qubits exceeds the cap of {MAX_QUBITS}"
        )
    _check_phase(params.gammas, _energy_bound(model))
    beta = max(map(abs, params.betas))
    if not math.isfinite(2 * beta):
        raise ValueError(f"mixing angle 2*beta overflows a float: |beta| = {beta!r}")
    low, low_values, high_values = _energy_split(model.coeffs)
    high = n - low  # at most _GROUP, so they form one group
    state = np.full(1 << n, 1.0 / math.sqrt(1 << n), dtype=complex)
    scratch = np.empty(1 << low, dtype=complex)  # each matmul writes the block or this
    low_phase = np.empty(1 << low, dtype=complex)
    for gamma, beta in zip(params.gammas, params.betas):
        mixers = _mixers(beta)
        # phase layer exp(-i*gamma*(L+H)): L by index inside a block, H one value per block
        np.exp(np.multiply(-1j * gamma, low_values, out=low_phase), out=low_phase)
        high_phase = np.exp(-1j * gamma * high_values)
        for h, phase in enumerate(high_phase):
            block = state[h * BLOCK:(h + 1) * BLOCK]
            block *= low_phase
            block *= phase
            # mixing layer on the low qubits, a group of up to _GROUP at a time;
            # the lowest group is one GEMM, rows of 2^k amplitudes times mixer^T
            src, dst = block, scratch
            for l in range(0, low, _GROUP):
                k = min(_GROUP, low - l)
                if l == 0:
                    np.matmul(src.reshape(-1, 1 << k), mixers[k].T, out=dst.reshape(-1, 1 << k))
                else:
                    shape = (-1, 1 << k, 1 << l)
                    np.matmul(mixers[k], src.reshape(shape), out=dst.reshape(shape))
                src, dst = dst, src
            if src is scratch:  # an odd number of groups left the result in scratch
                block[...] = scratch
        if high:  # mixing layer on the high qubits, in slabs of BLOCK amplitudes
            rows = state.reshape(1 << high, BLOCK)  # row: the high qubits' bits
            width = BLOCK >> high
            out = scratch.reshape(1 << high, width)
            for col in range(0, BLOCK, width):
                slab = rows[:, col:col + width]
                slab[...] = np.matmul(mixers[high], slab, out=out)
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
    _, low_values, high_values = _energy_split(model.coeffs)
    total = 0.0
    for h, high_value in enumerate(high_values):
        block = state[h * BLOCK:(h + 1) * BLOCK]
        probs = block.real**2 + block.imag**2
        total += np.dot(low_values, probs) + high_value * probs.sum()
    return float(total)

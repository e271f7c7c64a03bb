"""Single-qubit gate algebra for the linear-model ansatz.

Every quantity the rest of the package computes reduces to products of
2x2 rotations acting on |+>.  This module provides the exact matrices
(public, and used by the tests) and the scalar reference recurrence
that tracks one qubit's amplitude pair through the alternating RZ/RX
sequence; probability.qubit_kernel is its array form.

Conventions: half-angle rotations, so rx(theta) = exp(-i*theta*X/2) and
rz(theta) = exp(-i*theta*Z/2).  The ansatz applies, per layer j and per
qubit with coefficient a, first rz(2*gamma_j*a) then rx(2*beta_j);
layer 1 acts first.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

SQRT_HALF = 1.0 / math.sqrt(2.0)

KET_PLUS = np.array([SQRT_HALF, SQRT_HALF], dtype=complex)
HADAMARD = np.array([[SQRT_HALF, SQRT_HALF], [SQRT_HALF, -SQRT_HALF]], dtype=complex)


def _check_angle(theta: float) -> float:
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError(f"rotation angle must be finite, got {theta!r}")
    return theta


def rx(theta: float) -> np.ndarray:
    """Rotation about X: [[cos(t/2), -i sin(t/2)], [-i sin(t/2), cos(t/2)]]."""
    theta = _check_angle(theta)
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def rz(theta: float) -> np.ndarray:
    """Rotation about Z: diag(exp(-i t/2), exp(+i t/2))."""
    theta = _check_angle(theta)
    phase = cmath.exp(-0.5j * theta)
    return np.array([[phase, 0.0], [0.0, phase.conjugate()]], dtype=complex)


def apply(gate: np.ndarray, state: np.ndarray) -> np.ndarray:
    """Apply a 2x2 gate to a single-qubit state vector."""
    gate = np.asarray(gate, dtype=complex)
    state = np.asarray(state, dtype=complex)
    if gate.shape != (2, 2) or state.shape != (2,):
        raise ValueError("apply expects a (2, 2) gate and a (2,) state")
    return gate @ state


def _check_layers(gammas, betas) -> tuple[tuple[float, ...], tuple[float, ...]]:
    gs = tuple(_check_angle(g) for g in gammas)
    bs = tuple(_check_angle(b) for b in betas)
    if len(gs) != len(bs):
        raise ValueError(f"got {len(gs)} gamma angles but {len(bs)} beta angles")
    if not gs:
        raise ValueError("need at least one layer of angles")
    return gs, bs


def bit_amplitudes(a_coeff: float, gammas, betas) -> tuple[complex, complex]:
    """Amplitudes (<0|psi>, <1|psi>) for one qubit with field coefficient a_coeff.

    Evolves |+> through p layers of rz(2*gamma_j*a_coeff) then rx(2*beta_j).
    Pure scalar arithmetic: the reference for probability.qubit_kernel,
    which repeats these float operations on arrays, so a change here
    must be made there too.
    """
    a = float(a_coeff)
    if not math.isfinite(a) or a == 0.0:
        raise ValueError(f"field coefficient must be finite and nonzero, got {a_coeff!r}")
    gs, bs = _check_layers(gammas, betas)
    v0 = complex(SQRT_HALF)
    v1 = complex(SQRT_HALF)
    for g, b in zip(gs, bs):
        # rz(2*g*a) = diag(e^{-i g a}, e^{+i g a})
        ph = cmath.exp(-1j * g * a)
        v0 *= ph
        v1 *= ph.conjugate()
        # rx(2*b) mixes with cos(b), -i sin(b)
        c = math.cos(b)
        s = math.sin(b)
        v0, v1 = c * v0 - 1j * s * v1, -1j * s * v0 + c * v1
    return v0, v1


def amplitude_to_bit(a_coeff: float, target_bit: int, gammas, betas) -> complex:
    """Amplitude <target_bit|psi> for one qubit's layered evolution from |+>."""
    if target_bit not in (0, 1):
        raise ValueError(f"target_bit must be 0 or 1, got {target_bit!r}")
    v0, v1 = bit_amplitudes(a_coeff, gammas, betas)
    return v0 if target_bit == 0 else v1

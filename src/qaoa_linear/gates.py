"""Single-qubit gate algebra for the linear-model ansatz.

Every quantity the rest of the package computes reduces to products of
2x2 rotations acting on |+>.  This module provides the exact matrices
(public, and used by the tests), the schedule rule, and layer_amplitudes:
the one recurrence taking each qubit's amplitude pair through the RZ/RX
layers, for many qubits and schedules at once.

Conventions: half-angle rotations, so rx(theta) = exp(-i*theta*X/2) and
rz(theta) = exp(-i*theta*Z/2).  The ansatz applies, per layer j and per
qubit with coefficient a, first rz(2*gamma_j*a) then rx(2*beta_j);
layer 1 acts first.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .ising import LinearIsing

SQRT_HALF = 1.0 / math.sqrt(2.0)


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


def _check_layers(gammas, betas, ndim: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """The one schedule rule, one ValueError message per fault: (p,) arrays
    for one schedule, (batch, p) for many (ndim=2), with the same number
    of layers, at least one, every angle finite.  Returns float arrays."""
    gammas = np.asarray(gammas, dtype=float)
    betas = np.asarray(betas, dtype=float)
    if gammas.ndim != ndim or betas.ndim != ndim:
        raise ValueError(f"gammas and betas must be {('(p,)', '(batch, p)')[ndim - 1]} arrays")
    if gammas.shape[-1] != betas.shape[-1]:
        raise ValueError(f"got {gammas.shape[-1]} gamma angles but {betas.shape[-1]} beta angles")
    if not gammas.shape[-1]:
        raise ValueError("need at least one layer of angles")
    if not (np.isfinite(gammas).all() and np.isfinite(betas).all()):
        angles = np.concatenate((gammas.ravel(), betas.ravel()))
        _check_angle(angles[~np.isfinite(angles)][0])  # raises, naming the first bad angle
    return gammas, betas


def _check_phase(gammas, coeffs) -> None:
    """ValueError, naming the pair, when max|gamma| * max|a| is not a finite
    float: the largest phase gamma*a the recurrence forms would overflow
    to inf and its amplitudes to NaN.  Checked at entry, never per step."""
    gamma = float(np.max(np.abs(gammas), initial=0.0))
    a = float(np.max(np.abs(coeffs), initial=0.0))
    if not math.isfinite(gamma * a):
        raise ValueError(f"phase gamma*a overflows a float: |gamma| = {gamma!r}, |a| = {a!r}")


# Signs that fold CPython's complex products into two real products per step;
# see layer_amplitudes.  Rows: real, imaginary parts; columns: amplitudes v0, v1.
_TURN_SIGNS = np.array([[-1.0, 1.0], [1.0, -1.0]])[:, :, None, None]
_MIX_SIGNS = np.array([[1.0, 1.0], [-1.0, -1.0]])[:, :, None, None]


def layer_amplitudes(coeffs: np.ndarray, gammas: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """The single-qubit recurrence: |+> through p layers, for many qubits and schedules.

    coeffs is an (n, 1) column of field coefficients, gammas and betas are
    unvalidated (batch, p) arrays of finite angles.  Returns u[part,
    amplitude, qubit, point], the real and imaginary parts of (<0|psi>,
    <1|psi>).  Per layer, with t = -gamma*a:

        v0 *= e^{it}, v1 *= e^{-it}:  u*cos t + u[::-1] * (sin t * _TURN_SIGNS)
        (c v0 - i s v1, c v1 - i s v0):  u*c + u[::-1, ::-1] * (s * _MIX_SIGNS)

    which are CPython's complex products term by term (numpy's complex
    multiply rounds differently): a sign folded into a factor and the
    order of two summands change no bits, and np.cos and np.sin match
    math.cos and math.sin.  So a scalar loop over Python complex numbers
    gives every part bit for bit.
    """
    t = -(gammas.T[:, None, :] * coeffs)  # (layer, qubit, point)
    turn_cos = np.cos(t)[:, None, None]
    turn_sin = np.sin(t)[:, None, None] * _TURN_SIGNS
    mix_cos = np.cos(betas.T)[:, None, None, None, :]
    mix_sin = np.sin(betas.T)[:, None, None, None, :] * _MIX_SIGNS
    u = np.zeros((2, 2, len(coeffs), len(gammas)))
    u[0] = SQRT_HALF
    for j in range(len(t)):
        u = u * turn_cos[j] + u[::-1] * turn_sin[j]
        u = u * mix_cos[j] + u[::-1, ::-1] * mix_sin[j]
    return u


def bit_amplitudes(a_coeff: float, gammas, betas) -> tuple[complex, complex]:
    """Amplitudes (<0|psi>, <1|psi>) for one qubit with field coefficient a_coeff.

    Evolves |+> through p layers of rz(2*gamma_j*a_coeff) then rx(2*beta_j):
    one row of layer_amplitudes.
    """
    coeffs = np.array([LinearIsing((a_coeff,)).coeffs])
    gammas, betas = _check_layers(gammas, betas)
    _check_phase(gammas, coeffs)
    u = layer_amplitudes(coeffs, gammas[None], betas[None])[:, :, 0, 0]
    return tuple(map(complex, *u.tolist()))


def amplitude_to_bit(a_coeff: float, target_bit: int, gammas, betas) -> complex:
    """Amplitude <target_bit|psi> for one qubit's layered evolution from |+>."""
    if target_bit not in (0, 1):
        raise ValueError(f"target_bit must be 0 or 1, got {target_bit!r}")
    v0, v1 = bit_amplitudes(a_coeff, gammas, betas)
    return v0 if target_bit == 0 else v1

"""Gate algebra against hand-built 2x2 matrices."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qaoa_linear.gates import (
    HADAMARD,
    KET_PLUS,
    SQRT_HALF,
    amplitude_to_bit,
    apply,
    bit_amplitudes,
    rx,
    rz,
)

KET_ZERO = np.array([1.0, 0.0], dtype=complex)
KET_ONE = np.array([0.0, 1.0], dtype=complex)

angles = st.floats(-20.0, 20.0, allow_nan=False)


class TestMatrices:
    def test_rx_zero_is_identity(self):
        assert np.allclose(rx(0.0), np.eye(2), atol=1e-15)

    def test_rz_zero_is_identity(self):
        assert np.allclose(rz(0.0), np.eye(2), atol=1e-15)

    def test_rx_pi_is_minus_i_x(self):
        expected = np.array([[0, -1j], [-1j, 0]])
        assert np.allclose(rx(math.pi), expected, atol=1e-15)

    def test_full_turn_is_minus_identity(self):
        # 2*pi rotation flips the global sign on both axes
        assert np.allclose(rx(2 * math.pi), -np.eye(2), atol=1e-15)
        assert np.allclose(rz(2 * math.pi), -np.eye(2), atol=1e-15)

    @pytest.mark.parametrize("theta", [0.3, -1.7, math.pi / 3, 5.0])
    def test_entries_match_half_angle_forms(self, theta):
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        assert np.allclose(rx(theta), [[c, -1j * s], [-1j * s, c]], atol=1e-15)
        ph = cmath.exp(-1j * theta / 2)
        assert np.allclose(rz(theta), [[ph, 0], [0, ph.conjugate()]], atol=1e-15)

    @given(angles, angles)
    def test_group_law(self, a, b):
        assert np.allclose(rx(a) @ rx(b), rx(a + b), atol=1e-12)
        assert np.allclose(rz(a) @ rz(b), rz(a + b), atol=1e-12)

    @given(angles)
    def test_unitarity(self, theta):
        for gate in (rx(theta), rz(theta)):
            assert np.allclose(gate @ gate.conj().T, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_angle_rejected(self, bad):
        with pytest.raises(ValueError):
            rx(bad)
        with pytest.raises(ValueError):
            rz(bad)


class TestApply:
    def test_hadamard_on_zero_gives_plus(self):
        assert np.allclose(apply(HADAMARD, KET_ZERO), KET_PLUS, atol=1e-15)

    def test_hadamard_on_one(self):
        expected = np.array([SQRT_HALF, -SQRT_HALF])
        assert np.allclose(apply(HADAMARD, KET_ONE), expected, atol=1e-15)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            apply(np.eye(3), KET_ZERO)
        with pytest.raises(ValueError):
            apply(np.eye(2), np.ones(3))

    def test_matches_plain_matrix_product(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            theta = rng.uniform(-6, 6)
            gate = rx(theta) if rng.random() < 0.5 else rz(theta)
            state = rng.normal(size=2) + 1j * rng.normal(size=2)
            assert np.allclose(apply(gate, state), gate @ state, atol=1e-15)


def _layered_oracle(a, gammas, betas):
    """Same evolution via explicit matrix products; independent arithmetic."""
    state = np.array([SQRT_HALF, SQRT_HALF], dtype=complex)
    for g, b in zip(gammas, betas):
        phase = cmath.exp(-1j * g * a)
        zmat = np.array([[phase, 0], [0, phase.conjugate()]])
        c, s = math.cos(b), math.sin(b)
        xmat = np.array([[c, -1j * s], [-1j * s, c]])
        state = xmat @ (zmat @ state)
    return state


class TestBitAmplitudes:
    def test_zero_angles_keep_plus_state(self):
        v0, v1 = bit_amplitudes(1.0, (0.0,), (0.0,))
        assert abs(v0 - SQRT_HALF) <= 1e-15
        assert abs(v1 - SQRT_HALF) <= 1e-15

    def test_quarter_pi_recovers_bit_zero(self):
        # a=1 at gamma=beta=pi/4 concentrates all weight on |0>
        v0, v1 = bit_amplitudes(1.0, (math.pi / 4,), (math.pi / 4,))
        assert abs(abs(v0) ** 2 - 1.0) <= 1e-12
        assert abs(v1) <= 1e-6

    def test_matches_matrix_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            p = int(rng.integers(1, 5))
            a = float(rng.uniform(0.2, 4.0) * rng.choice([-1, 1]))
            gs = tuple(rng.uniform(-math.pi, math.pi, p))
            bs = tuple(rng.uniform(-math.pi, math.pi, p))
            v0, v1 = bit_amplitudes(a, gs, bs)
            expected = _layered_oracle(a, gs, bs)
            assert abs(v0 - expected[0]) <= 1e-13
            assert abs(v1 - expected[1]) <= 1e-13

    def test_norm_preserved(self):
        rng = np.random.default_rng(19)
        for _ in range(40):
            p = int(rng.integers(1, 4))
            v0, v1 = bit_amplitudes(
                float(rng.uniform(0.5, 3.0)),
                tuple(rng.uniform(0, math.pi, p)),
                tuple(rng.uniform(0, math.pi, p)),
            )
            assert abs(abs(v0) ** 2 + abs(v1) ** 2 - 1.0) <= 1e-13

    def test_sign_flip_swaps_target_bit(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            p = int(rng.integers(1, 4))
            a = float(rng.uniform(0.3, 3.0))
            gs = tuple(rng.uniform(0, math.pi, p))
            bs = tuple(rng.uniform(0, math.pi, p))
            assert (
                abs(
                    amplitude_to_bit(a, 0, gs, bs)
                    - amplitude_to_bit(-a, 1, gs, bs)
                )
                <= 1e-15
            )

    def test_beta_period_pi(self):
        a, g = 2.0, 0.37
        base = abs(amplitude_to_bit(a, 0, (g,), (0.4,))) ** 2
        shifted = abs(amplitude_to_bit(a, 0, (g,), (0.4 + math.pi,))) ** 2
        assert abs(base - shifted) <= 1e-13

    def test_gamma_period_pi_for_integer_coeff(self):
        a, b = 3.0, 0.9
        base = abs(amplitude_to_bit(a, 0, (0.6,), (b,))) ** 2
        shifted = abs(amplitude_to_bit(a, 0, (0.6 + math.pi,), (b,))) ** 2
        assert abs(base - shifted) <= 1e-13

    def test_validation(self):
        with pytest.raises(ValueError):
            bit_amplitudes(0.0, (0.1,), (0.1,))
        with pytest.raises(ValueError):
            bit_amplitudes(float("nan"), (0.1,), (0.1,))
        with pytest.raises(ValueError):
            bit_amplitudes(1.0, (), ())
        with pytest.raises(ValueError):
            bit_amplitudes(1.0, (0.1, 0.2), (0.1,))
        with pytest.raises(ValueError):
            amplitude_to_bit(1.0, 2, (0.1,), (0.1,))

"""Product-formula probabilities against independent closed forms."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaoa_linear.errors import DegenerateProbabilityError
from qaoa_linear.gates import SQRT_HALF, bit_amplitudes
from qaoa_linear.ising import LinearIsing, consecutive, optimal_bits, replicate
from qaoa_linear.probability import (
    QaoaParams,
    exact_p1_m2_max,
    log_prob_opt,
    overlap_p1,
    p2_sine_residuals,
    prob_opt,
    prob_opt_batch,
    prob_opt_replicated,
    qubit_kernel,
    runtime_estimate,
)
from qaoa_linear.statevector import outcome_probability, run_ansatz


def _p1_closed_form(model, gamma, beta):
    """Independent p=1 oracle: each factor is (1 + sin2b * sin(2g|a|)) / 2."""
    total = 1.0
    for a in model.coeffs:
        total *= 0.5 * (1.0 + math.sin(2 * beta) * math.sin(2 * gamma * abs(a)))
    return total


def _random_model(rng, max_n=6):
    n = int(rng.integers(1, max_n + 1))
    return LinearIsing(tuple(rng.uniform(0.2, 4.0, n) * rng.choice([-1, 1], n)))


def _random_params(rng, max_p=3):
    p = int(rng.integers(1, max_p + 1))
    return QaoaParams(
        tuple(rng.uniform(0, math.pi, p)), tuple(rng.uniform(0, math.pi, p))
    )


class TestQaoaParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            QaoaParams((), ())
        with pytest.raises(ValueError):
            QaoaParams((0.1,), (0.1, 0.2))
        with pytest.raises(ValueError):
            QaoaParams((float("nan"),), (0.1,))

    def test_zero_constructor(self):
        params = QaoaParams.zero(3)
        assert params.p == 3
        assert params.gammas == (0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            QaoaParams.zero(0)


class TestProbOpt:
    def test_zero_angles_give_uniform(self):
        assert prob_opt(LinearIsing((1, 2)), QaoaParams.zero(1)) == pytest.approx(
            0.25, abs=1e-15
        )

    @pytest.mark.parametrize("n", range(1, 17))
    def test_zero_angle_baseline_all_n(self, n):
        for p in (1, 3):
            value = prob_opt(consecutive(n), QaoaParams.zero(p))
            assert abs(value - 2.0 ** (-n)) <= 1e-12

    def test_perfect_single_coefficient(self):
        params = QaoaParams((math.pi / 4,), (math.pi / 4,))
        assert prob_opt(LinearIsing((1,)), params) == pytest.approx(1.0, abs=1e-12)

    def test_matches_p1_closed_form(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            model = _random_model(rng)
            g, b = rng.uniform(0, math.pi, 2)
            ours = prob_opt(model, QaoaParams((g,), (b,)))
            assert abs(ours - _p1_closed_form(model, g, b)) <= 1e-12

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(37)
        for _ in range(60):
            value = prob_opt(_random_model(rng), _random_params(rng))
            assert -1e-15 <= value <= 1.0 + 1e-12

    def test_sign_flip_invariance(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            model = _random_model(rng)
            params = _random_params(rng)
            flipped = list(model.coeffs)
            i = int(rng.integers(model.n))
            flipped[i] = -flipped[i]
            assert abs(
                prob_opt(model, params) - prob_opt(LinearIsing(flipped), params)
            ) <= 1e-12


class TestBatchKernel:
    def test_matches_scalar(self):
        rng = np.random.default_rng(43)
        model = LinearIsing((1.0, -2.0, 3.0, 0.7))
        for p in (1, 2, 4):
            gs = rng.uniform(0, math.pi, (30, p))
            bs = rng.uniform(0, math.pi, (30, p))
            batch = prob_opt_batch(model, gs, bs)
            for row, value in enumerate(batch):
                scalar = prob_opt(
                    model, QaoaParams(tuple(gs[row]), tuple(bs[row]))
                )
                assert value.hex() == scalar.hex()

    def test_shape_validation(self):
        model = LinearIsing((1.0,))
        with pytest.raises(ValueError):
            prob_opt_batch(model, np.zeros((3, 2)), np.zeros((3, 1)))
        with pytest.raises(ValueError):
            prob_opt_batch(model, np.zeros(3), np.zeros(3))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_angles(self, bad):
        model = LinearIsing((1.0, 2.0))
        with pytest.raises(ValueError, match="finite"):
            prob_opt_batch(model, [[bad]], [[0.1]])
        with pytest.raises(ValueError, match="finite"):
            prob_opt_batch(model, [[0.1], [0.2]], [[0.3], [bad]])


def _scalar_reference(model: LinearIsing, p: int, x) -> float:
    """prob_opt at one point, written out apart from the package's code."""
    total = 1.0
    for a, bit in zip(model.coeffs, optimal_bits(model)):
        v0 = complex(SQRT_HALF)
        v1 = complex(SQRT_HALF)
        for j in range(p):
            ph = cmath.exp(-1j * x[j] * a)
            v0 *= ph
            v1 *= ph.conjugate()
            c = math.cos(x[p + j])
            s = math.sin(x[p + j])
            v0, v1 = c * v0 - 1j * s * v1, -1j * s * v0 + c * v1
        v = v0 if bit == 0 else v1
        total *= v.real * v.real + v.imag * v.imag
    return total


def _bit_mag2(model: LinearIsing, gammas, betas) -> list[float]:
    """|<b_l|psi_l>|^2 per qubit from the scalar gates.bit_amplitudes."""
    out = []
    for a, bit in zip(model.coeffs, optimal_bits(model)):
        v = bit_amplitudes(a, gammas, betas)[bit]
        out.append(v.real * v.real + v.imag * v.imag)
    return out


_coefficients = st.floats(-6.0, 6.0, allow_nan=False).filter(lambda a: abs(a) > 1e-3)


@st.composite
def _models(draw, max_base=6, max_copies=4):
    base = LinearIsing(tuple(draw(st.lists(_coefficients, min_size=1, max_size=max_base))))
    return replicate(base, draw(st.integers(1, max_copies)))


class TestQubitKernel:
    @settings(max_examples=60, deadline=None)
    @given(_models(), st.integers(1, 5), st.integers(1, 64), st.integers(0, 2**32 - 1))
    def test_bitwise_equal_to_scalar_recurrence(self, model, p, batch, seed):
        rng = np.random.default_rng(seed)
        xs = rng.uniform(-7.0, 7.0, (batch, 2 * p))
        values = prob_opt_batch(model, xs[:, :p], xs[:, p:])
        expected = [_scalar_reference(model, p, x) for x in xs]
        assert [v.hex() for v in values.tolist()] == [v.hex() for v in expected]
        direct = [prob_opt(model, QaoaParams(tuple(x[:p]), tuple(x[p:]))) for x in xs]
        assert values.tolist() == direct
        terms = qubit_kernel(model)(xs[:, :p], xs[:, p:])
        assert terms.shape == (model.n, batch)
        for row, x in enumerate(xs):
            want = _bit_mag2(model, x[:p], x[p:])
            assert [v.hex() for v in terms[:, row].tolist()] == [v.hex() for v in want]

    @settings(max_examples=40, deadline=None)
    @given(
        _models(max_base=5, max_copies=2), st.integers(1, 4), st.integers(1, 4),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_statevector(self, model, p, batch, seed):
        rng = np.random.default_rng(seed)
        gs = rng.uniform(-4.0, 4.0, (batch, p))
        bs = rng.uniform(-4.0, 4.0, (batch, p))
        values = prob_opt_batch(model, gs, bs)
        bits = optimal_bits(model)
        for row in range(batch):
            state = run_ansatz(model, QaoaParams(tuple(gs[row]), tuple(bs[row])))
            assert abs(values[row] - outcome_probability(state, bits)) <= 1e-10


class TestReplication:
    def test_power_law_random(self):
        rng = np.random.default_rng(47)
        for _ in range(60):
            model = _random_model(rng, max_n=4)
            params = _random_params(rng)
            k = int(rng.integers(1, 9))
            direct = prob_opt(replicate(model, k), params)
            power = prob_opt_replicated(model, k, params)
            assert abs(direct - power) <= 1e-12

    def test_k_one_matches_base(self):
        model = LinearIsing((1, 2))
        params = QaoaParams((0.3,), (0.9,))
        assert prob_opt_replicated(model, 1, params) == prob_opt(model, params)

    def test_perfect_base_stays_perfect(self):
        params = QaoaParams((math.pi / 4,), (math.pi / 4,))
        assert prob_opt_replicated(LinearIsing((1,)), 5, params) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            prob_opt_replicated(LinearIsing((1,)), 0, QaoaParams.zero(1))

    def test_underflow_raises(self):
        # 5000 copies: ln P = -2396, far below the float range
        with pytest.raises(DegenerateProbabilityError, match="log_prob_opt"):
            prob_opt_replicated(LinearIsing((1, 2)), 5000, QaoaParams((0.6,), (0.4,)))


class TestLogProb:
    def test_agrees_with_direct_log(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            model = _random_model(rng)
            params = _random_params(rng)
            value = prob_opt(model, params)
            if value > 0:
                assert log_prob_opt(model, params) == pytest.approx(
                    math.log(value), abs=1e-9
                )

    def test_equals_sequential_sum_over_bit_amplitudes(self):
        # mixed signs, replicated: 2100 terms summed left to right
        model = replicate(LinearIsing((1.0, -2.5, 0.75, 3.0, -0.3, 1.7, -4.2)), 300)
        params = QaoaParams((0.31, -1.2, 2.05), (0.83, 0.4, -1.9))
        total = 0.0
        for q in _bit_mag2(model, params.gammas, params.betas):
            total += math.log(q)
        assert log_prob_opt(model, params).hex() == total.hex()

    def test_survives_underflow_scale(self):
        # 50000 qubits at zero angles: prob_opt itself would underflow;
        # tolerance leaves room for rounding across 50000 summed terms
        model = replicate(LinearIsing((1.0, 2.0)), 25000)
        logp = log_prob_opt(model, QaoaParams.zero(1))
        assert logp == pytest.approx(50000 * math.log(0.5), rel=1e-9)


class TestRuntimeEstimate:
    def test_perfect_model(self):
        params = QaoaParams((math.pi / 4,), (math.pi / 4,))
        est = runtime_estimate(LinearIsing((1,)), 3, params)
        assert est.prob_opt == pytest.approx(1.0, abs=1e-12)
        assert est.expected_samples == pytest.approx(1.0, abs=1e-12)
        assert est.exponent_base == pytest.approx(1.0, abs=1e-12)
        assert (est.m, est.n) == (1, 3)

    def test_reciprocal_identity(self):
        rng = np.random.default_rng(59)
        for _ in range(25):
            model = _random_model(rng, max_n=3)
            params = _random_params(rng)
            k = int(rng.integers(1, 6))
            if prob_opt(model, params) < 1e-6:
                continue
            est = runtime_estimate(model, k, params)
            assert est.expected_samples * est.prob_opt == pytest.approx(1.0, abs=1e-9)
            assert est.exponent_base ** est.n == pytest.approx(
                est.expected_samples, rel=1e-9
            )

    def test_in_range_values_are_plain_powers(self):
        model = LinearIsing((1, 2))
        params = QaoaParams((0.6,), (0.4,))
        p_base = prob_opt(model, params)
        est = runtime_estimate(model, 40, params)
        assert est.prob_opt == p_base**40
        assert est.expected_samples == p_base ** (-40.0)
        assert est.log_prob_opt == 40 * math.log(p_base)
        assert est.log_expected_samples == -est.log_prob_opt

    def test_past_float_range(self):
        # 1/P = e^2396 overflows a float; the logs stay finite
        model = LinearIsing((1, 2))
        params = QaoaParams((0.6,), (0.4,))
        est = runtime_estimate(model, 5000, params)
        assert est.prob_opt == 0.0
        assert est.expected_samples == math.inf
        assert est.log_prob_opt == pytest.approx(5000 * log_prob_opt(model, params), rel=1e-12)
        assert est.log_expected_samples == -est.log_prob_opt
        assert est.exponent_base == runtime_estimate(model, 1, params).exponent_base

    def test_rejects_zero_probability(self):
        # gamma=pi/2 on coefficient 1 with beta=pi/4 kills the target amplitude
        model = LinearIsing((1.0,))
        params = QaoaParams((math.pi / 2,), (3 * math.pi / 4,))
        if prob_opt(model, params) == 0.0:
            with pytest.raises(ValueError):
                runtime_estimate(model, 1, params)


class TestExactP1M2Max:
    def test_against_companion_matrix_roots(self):
        roots = np.roots([5832.0, -6804.0, 1472.0, -8.0])
        real = sorted(r.real for r in roots if abs(r.imag) < 1e-9)
        assert abs(exact_p1_m2_max() - real[-1]) <= 1e-12

    def test_published_rounding(self):
        assert abs(exact_p1_m2_max() - 0.882385) <= 1e-6

    def test_is_cubic_root(self):
        x = exact_p1_m2_max()
        residual = ((5832.0 * x - 6804.0) * x + 1472.0) * x - 8.0
        assert abs(residual) <= 1e-9

    def test_strictly_below_one(self):
        assert exact_p1_m2_max() < 1.0

    def test_landscape_never_exceeds_root(self):
        # dense grid + the closed form: the p=1 maximum for (1,2) is the root
        root = exact_p1_m2_max()
        model = LinearIsing((1.0, 2.0))
        gs, bs = np.meshgrid(
            np.linspace(0, math.pi, 301), np.linspace(0, math.pi, 301)
        )
        values = prob_opt_batch(
            model, gs.reshape(-1, 1), bs.reshape(-1, 1)
        )
        assert float(values.max()) <= root + 1e-6


class TestOverlapP1:
    def test_cosine_identity(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            g, b = rng.uniform(0, 2 * math.pi, 2)
            ov = overlap_p1(1.0, 2.0, QaoaParams((g,), (b,)))
            assert abs(ov - math.cos(g)) <= 1e-12

    def test_general_difference_rule(self):
        rng = np.random.default_rng(67)
        for _ in range(30):
            a1, a2 = rng.uniform(0.3, 3.0, 2)
            g, b = rng.uniform(0, math.pi, 2)
            ov = overlap_p1(a1, a2, QaoaParams((g,), (b,)))
            assert abs(ov - math.cos(g * (a2 - a1))) <= 1e-12

    def test_gamma_pi_is_minus_one(self):
        ov = overlap_p1(1.0, 2.0, QaoaParams((math.pi,), (0.4,)))
        assert abs(ov - (-1.0)) <= 1e-12

    def test_requires_single_layer(self):
        with pytest.raises(ValueError):
            overlap_p1(1.0, 2.0, QaoaParams.zero(2))


class TestP2SineResiduals:
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_pi_over_six_zeroes_first_only(self, sign):
        r1, r2 = p2_sine_residuals(sign * math.pi / 6)
        assert abs(r1) <= 1e-12
        assert abs(abs(r2) - math.sqrt(3) / 2) <= 1e-12

    def test_zero_angle_zeroes_both(self):
        r1, r2 = p2_sine_residuals(0.0)
        assert abs(r1) <= 1e-12
        assert abs(r2) <= 1e-12

    def test_generic_angle_zeroes_neither(self):
        r1, r2 = p2_sine_residuals(0.4)
        assert abs(r1) > 1e-3
        assert abs(r2) > 1e-3

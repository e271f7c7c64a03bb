"""Dense simulator as an independent oracle for the product formula."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from qaoa_linear.errors import ResourceLimitError
from qaoa_linear.gates import bit_amplitudes, rx
from qaoa_linear.ising import LinearIsing, optimal_bits
from qaoa_linear.probability import QaoaParams, prob_opt
from qaoa_linear.statevector import (
    BLOCK,
    _GROUP,
    _mixers,
    _objective_values,
    expectation,
    outcome_probability,
    run_ansatz,
)


def _random_instance(rng, max_n=8, max_p=3):
    n = int(rng.integers(1, max_n + 1))
    p = int(rng.integers(1, max_p + 1))
    model = LinearIsing(tuple(rng.uniform(0.2, 4.0, n) * rng.choice([-1, 1], n)))
    params = QaoaParams(
        tuple(rng.uniform(0, math.pi, p)), tuple(rng.uniform(0, math.pi, p))
    )
    return model, params


class TestRunAnsatz:
    def test_single_qubit_zero_angles(self):
        state = run_ansatz(LinearIsing((1.0,)), QaoaParams.zero(1))
        assert np.allclose(state, [1 / math.sqrt(2)] * 2, atol=1e-15)

    def test_norm_is_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            model, params = _random_instance(rng)
            state = run_ansatz(model, params)
            assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)

    def test_tensor_product_structure(self):
        # full state equals the kron of per-qubit factors, qubit 1 = LSB
        rng = np.random.default_rng(9)
        model = LinearIsing((1.0, -2.0, 0.7))
        params = QaoaParams(
            tuple(rng.uniform(0, math.pi, 2)), tuple(rng.uniform(0, math.pi, 2))
        )
        state = run_ansatz(model, params)
        factors = [
            np.array(bit_amplitudes(a, params.gammas, params.betas))
            for a in model.coeffs
        ]
        expected = factors[2]
        expected = np.kron(expected, factors[1])
        expected = np.kron(expected, factors[0])
        assert np.allclose(state, expected, atol=1e-13)

    def test_qubit_cap_refused_before_allocation(self):
        with pytest.raises(ResourceLimitError):
            run_ansatz(LinearIsing((1.0,) * 21), QaoaParams.zero(1))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_mixing_angle_refused(self):
        # beta is finite and prob_opt takes it, but 2*beta overflows: the message names beta
        model, params = LinearIsing((1.0, 2.0)), QaoaParams((0.1,), (1e308,))
        assert 0.0 < prob_opt(model, params) < 1.0
        with pytest.raises(ValueError, match=r"2\*beta overflows a float: \|beta\| = 1e\+308"):
            run_ansatz(model, params)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_energy_refused(self):
        # each |a_l| is finite, but 1e308 + 1e308 is not: the objective values overflow
        with pytest.raises(ValueError, match=r"sum\|a_l\| over 2 qubits overflows a float: inf"):
            run_ansatz(LinearIsing((1e308, 1e308)), QaoaParams.zero(1))


class TestMixers:
    @pytest.mark.parametrize("beta", [0.0, 0.3, -1.2, math.pi / 4, 2.9])
    def test_kronecker_powers_of_rx(self, beta):
        mixers = _mixers(beta)
        assert len(mixers) == _GROUP + 1
        power = np.ones((1, 1))
        for k in range(1, _GROUP + 1):
            power = np.kron(power, rx(2 * beta))
            assert mixers[k].shape == (1 << k, 1 << k)
            assert np.array_equal(mixers[k], power)
            identity = mixers[k].conj().T @ mixers[k]
            assert np.max(np.abs(identity - np.eye(1 << k))) <= 1e-14


def _per_qubit_values(model):
    """The objective values qubit by qubit from the index bits: the reference."""
    idx = np.arange(1 << model.n)
    values = np.zeros(idx.shape, dtype=float)
    for l, a in enumerate(model.coeffs):
        bit = (idx >> l) & 1
        values += a * (1.0 - 2.0 * bit)
    return values


def _unblocked_run_ansatz(model, params):
    """The whole-state loop, one full-size pass per layer and qubit: the reference."""
    n = model.n
    values = _per_qubit_values(model)
    state = np.full(1 << n, 1.0 / math.sqrt(1 << n), dtype=complex)
    for gamma, beta in zip(params.gammas, params.betas):
        state = state * np.exp(-1j * gamma * values)
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


def _signed_instance(rng, n, p):
    model = LinearIsing(tuple(rng.uniform(0.2, 4.0, n) * rng.choice([-1, 1], n)))
    params = QaoaParams(
        tuple(rng.uniform(-math.pi, math.pi, p)), tuple(rng.uniform(-math.pi, math.pi, p))
    )
    return model, params


class TestBlocks:
    def test_objective_values_equal_per_qubit_formula(self):
        rng = np.random.default_rng(23)
        for n in (1, 2, 5, 9, 14, 15, 16, 18):
            model, _ = _signed_instance(rng, n, 1)
            assert np.array_equal(_objective_values(model.coeffs), _per_qubit_values(model))

    @pytest.mark.parametrize("n, p", [(16, 2), (16, 3), (17, 2), (17, 3)])
    def test_states_across_blocks(self, n, p):
        assert 1 << n > BLOCK
        model, params = _signed_instance(np.random.default_rng(n * 10 + p), n, p)
        state = run_ansatz(model, params)
        assert np.max(np.abs(state - _unblocked_run_ansatz(model, params))) <= 1e-15
        dense = outcome_probability(state, optimal_bits(model))
        assert abs(dense - prob_opt(model, params)) <= 1e-10
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n, p", [(1, 2), (5, 2), (6, 3), (11, 2), (15, 2), (20, 1)])
    def test_states_across_groups(self, n, p):
        # group edges: one short group, one full group, a full group plus one,
        # a short third group, three full groups, and five high qubits in one group
        model, params = _signed_instance(np.random.default_rng(n * 10 + p), n, p)
        state = run_ansatz(model, params)
        assert np.max(np.abs(state - _unblocked_run_ansatz(model, params))) <= 1e-15
        dense = outcome_probability(state, optimal_bits(model))
        assert abs(dense - prob_opt(model, params)) <= 1e-10

    @pytest.mark.parametrize("n, p", [(16, 3), (20, 3)])
    def test_states_from_phase_tables(self, n, p):
        # one high qubit, then five: each block's phase is a low-qubit table
        # entry times one high-qubit phase, exp(-i*gamma*(L+H)) split in two
        model, params = _signed_instance(np.random.default_rng(100 + n), n, p)
        state = run_ansatz(model, params)
        assert np.max(np.abs(state - _unblocked_run_ansatz(model, params))) <= 1e-15
        dense = outcome_probability(state, optimal_bits(model))
        assert abs(dense - prob_opt(model, params)) <= 1e-10

    def test_peak_memory_at_the_qubit_cap(self):
        n = 20
        model, params = _signed_instance(np.random.default_rng(37), n, 3)
        bound = (1 << n) * 16 + 4 * BLOCK * 16  # complex state + a few complex blocks
        tracemalloc.start()
        try:
            run_ansatz(model, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound

    def test_peak_memory_is_state_plus_blocks(self):
        n = 18
        model, params = _signed_instance(np.random.default_rng(29), n, 3)
        bound = (1 << n) * 16 + 4 * BLOCK * 16  # complex state + a few complex blocks
        tracemalloc.start()
        try:
            run_ansatz(model, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound


class TestOutcomeProbability:
    def test_uniform_state(self):
        state = run_ansatz(LinearIsing((1.0, 2.0)), QaoaParams.zero(1))
        for bits in itertools.product((0, 1), repeat=2):
            assert outcome_probability(state, bits) == pytest.approx(0.25, abs=1e-12)

    def test_perfect_recovery(self):
        params = QaoaParams((math.pi / 4,), (math.pi / 4,))
        state = run_ansatz(LinearIsing((1.0,)), params)
        assert outcome_probability(state, (0,)) == pytest.approx(1.0, abs=1e-12)

    def test_distribution_sums_to_one(self):
        rng = np.random.default_rng(13)
        model, params = _random_instance(rng, max_n=5)
        state = run_ansatz(model, params)
        total = sum(
            outcome_probability(state, bits)
            for bits in itertools.product((0, 1), repeat=model.n)
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_agrees_with_product_formula(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            model, params = _random_instance(rng, max_n=10)
            dense = outcome_probability(run_ansatz(model, params), optimal_bits(model))
            assert abs(dense - prob_opt(model, params)) <= 1e-10

    def test_validation(self):
        state = run_ansatz(LinearIsing((1.0, 2.0)), QaoaParams.zero(1))
        with pytest.raises(ValueError):
            outcome_probability(state, (0,))
        with pytest.raises(ValueError):
            outcome_probability(state, (0, 2))


class TestExpectation:
    def test_uniform_state_is_zero(self):
        model = LinearIsing((1.0, -3.0))
        state = run_ansatz(model, QaoaParams.zero(1))
        assert expectation(model, state) == pytest.approx(0.0, abs=1e-12)

    def test_basis_state_gives_objective(self):
        model = LinearIsing((2.0, -1.0))
        state = np.zeros(4, dtype=complex)
        state[0] = 1.0  # bits (0,0): spins (+1,+1), value 2 - 1
        assert expectation(model, state) == pytest.approx(1.0, abs=1e-14)

    def test_factorizes_per_qubit(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            model, params = _random_instance(rng, max_n=6)
            state = run_ansatz(model, params)
            total = 0.0
            for a in model.coeffs:
                v0, v1 = bit_amplitudes(a, params.gammas, params.betas)
                total += a * (abs(v0) ** 2 - abs(v1) ** 2)
            assert abs(expectation(model, state) - total) <= 1e-10

    @pytest.mark.parametrize("n", [16, 17, 18])
    def test_factorizes_per_qubit_across_blocks(self, n):
        # two, four and eight blocks: each adds its high qubits' energy to the low table
        model, params = _signed_instance(np.random.default_rng(200 + n), n, 2)
        state = run_ansatz(model, params)
        total = 0.0
        for a in model.coeffs:
            v0, v1 = bit_amplitudes(a, params.gammas, params.betas)
            total += a * (abs(v0) ** 2 - abs(v1) ** 2)
        assert abs(expectation(model, state) - total) <= 1e-10

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            expectation(LinearIsing((1.0, 2.0)), np.ones(2, dtype=complex))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_energy_refused(self):
        state = np.full(4, 0.5, dtype=complex)
        with pytest.raises(ValueError, match=r"sum\|a_l\| over 2 qubits overflows a float: inf"):
            expectation(LinearIsing((1e308, 1e308)), state)

"""Emitted sign-reading circuits and their classical interpretation."""

import numpy as np
import pytest

from qaoa_linear.circuit import (
    MAX_REGISTER_WIDTH,
    emit_linear_solver_circuit,
    interpret_circuit,
    twos_complement_bits,
)
from qaoa_linear.errors import ResourceLimitError
from qaoa_linear.ising import LinearIsing, optimal_bits


class TestTwosComplement:
    @pytest.mark.parametrize(
        "value,width,bits",
        [
            (3, 4, (1, 1, 0, 0)),
            (-1, 4, (1, 1, 1, 1)),
            (-8, 4, (0, 0, 0, 1)),
            (7, 4, (1, 1, 1, 0)),
            (0, 1, (0,)),
            (-1, 1, (1,)),
        ],
    )
    def test_encodings(self, value, width, bits):
        assert twos_complement_bits(value, width) == bits

    def test_sign_bit_is_last(self):
        assert twos_complement_bits(-3, 5)[-1] == 1
        assert twos_complement_bits(3, 5)[-1] == 0

    @pytest.mark.parametrize("value,width", [(8, 4), (-9, 4), (1, 1)])
    def test_overflow_rejected(self, value, width):
        with pytest.raises(ValueError):
            twos_complement_bits(value, width)

    def test_width_cap(self):
        assert MAX_REGISTER_WIDTH == 1025
        largest = int(-np.finfo(float).max)
        assert twos_complement_bits(largest, 1025)[-1] == 1
        with pytest.raises(ResourceLimitError, match="1026"):
            twos_complement_bits(0, 1026)

    def test_width_cap_before_building(self):
        assert emit_linear_solver_circuit(LinearIsing((3.0,)), 1025).count("\n") == 1028
        with pytest.raises(ResourceLimitError):
            emit_linear_solver_circuit(LinearIsing((3.0,)), 10**8)


class TestEmit:
    def test_golden_small_circuit(self):
        text = emit_linear_solver_circuit(LinearIsing((3.0, -1.0)), 4)
        assert text == (
            "init q0 1\n"
            "init q1 1\n"
            "init q2 0\n"
            "init q3 0\n"
            "init q4 1\n"
            "init q5 1\n"
            "init q6 1\n"
            "init q7 1\n"
            "init q8 0\n"
            "init q9 0\n"
            "cnot q3 q8\n"
            "cnot q7 q9\n"
            "measure q8 -> c0\n"
            "measure q9 -> c1\n"
        )

    def test_single_coefficient_counts(self):
        text = emit_linear_solver_circuit(LinearIsing((1.0,)), 2)
        lines = text.strip().split("\n")
        assert sum(l.startswith("init") for l in lines) == 3
        assert sum(l.startswith("cnot") for l in lines) == 1
        assert sum(l.startswith("measure") for l in lines) == 1

    def test_gate_count_independent_of_values(self):
        for coeffs in [(1.0, 2.0, 3.0), (-7.0, 5.0, -1.0)]:
            text = emit_linear_solver_circuit(LinearIsing(coeffs), 8)
            lines = text.strip().split("\n")
            assert sum(l.startswith("cnot") for l in lines) == 3
            assert sum(l.startswith("measure") for l in lines) == 3

    def test_deterministic_text(self):
        model = LinearIsing((2.0, -3.0, 1.0))
        assert emit_linear_solver_circuit(model, 5) == emit_linear_solver_circuit(model, 5)

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError, match="coefficient 1"):
            emit_linear_solver_circuit(LinearIsing((1.5,)), 4)

    def test_overflow_names_coefficient(self):
        with pytest.raises(ValueError, match="coefficient 2"):
            emit_linear_solver_circuit(LinearIsing((1.0, 9.0)), 4)

    def test_width_one_cannot_hold_positive(self):
        with pytest.raises(ValueError):
            emit_linear_solver_circuit(LinearIsing((1.0,)), 1)


class TestInterpret:
    def test_example_circuit(self):
        text = emit_linear_solver_circuit(LinearIsing((3.0, -1.0)), 4)
        assert interpret_circuit(text) == (0, 1)

    def test_comments_and_blanks_skipped(self):
        text = "# provenance line\n\ninit q0 1\ncnot q0 q1\nmeasure q1 -> c0\n"
        assert interpret_circuit(text) == (1,)

    def test_uninitialized_reads_zero(self):
        assert interpret_circuit("cnot q5 q6\nmeasure q6 -> c0\n") == (0,)

    def test_cnot_toggles(self):
        text = "init q0 1\ninit q1 1\ncnot q0 q1\nmeasure q1 -> c0\n"
        assert interpret_circuit(text) == (0,)

    def test_malformed_line(self):
        with pytest.raises(ValueError, match="line 2"):
            interpret_circuit("init q0 1\nhadamard q0\n")

    def test_self_cnot_rejected(self):
        with pytest.raises(ValueError):
            interpret_circuit("cnot q1 q1\nmeasure q1 -> c0\n")

    def test_no_measurement_rejected(self):
        with pytest.raises(ValueError):
            interpret_circuit("init q0 1\n")

    def test_gap_in_classical_bits(self):
        with pytest.raises(ValueError, match="c0"):
            interpret_circuit("init q0 1\nmeasure q0 -> c1\n")


class TestSoundness:
    def test_matches_optimal_bits_randomized(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            coeffs = tuple(
                float(v) for v in rng.integers(1, 128, n) * rng.choice([-1, 1], n)
            )
            model = LinearIsing(coeffs)
            text = emit_linear_solver_circuit(model, 8)
            assert interpret_circuit(text) == optimal_bits(model)
            lines = text.strip().split("\n")
            assert sum(l.startswith("cnot") for l in lines) == n

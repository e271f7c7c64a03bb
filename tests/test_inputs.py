"""Input rules with one home each: counts (errors.positive_int), seeds
(optimizers.philox), angle schedules (gates._check_layers) and field
coefficients (ising.LinearIsing)."""

import math

import numpy as np
import pytest

from qaoa_linear.circuit import emit_linear_solver_circuit, twos_complement_bits
from qaoa_linear.errors import ResourceLimitError
from qaoa_linear.experiments import (
    build_tables,
    check_sampling_request,
    conjecture_scan,
    sample_until_optimum,
)
from qaoa_linear.gates import bit_amplitudes
from qaoa_linear.ising import LinearIsing, consecutive, replicate
from qaoa_linear.optimizers import OptimizerSpec, maximize
from qaoa_linear.probability import (
    QaoaParams,
    overlap_p1,
    prob_opt_batch,
    prob_opt_replicated,
    runtime_estimate,
)

MODEL = LinearIsing((1.0, 2.0))
PARAMS = QaoaParams((0.3,), (0.7,))
# One cheap spec, so a count that slipped through would still return quickly.
TINY = (OptimizerSpec("random-search", budget=1, restarts=1),)

COUNT_ENTRY_POINTS = {
    "replicate": lambda n: replicate(MODEL, n),
    "consecutive": consecutive,
    "twos_complement_bits": lambda n: twos_complement_bits(0, n),
    "emit_linear_solver_circuit": lambda n: emit_linear_solver_circuit(MODEL, n),
    "QaoaParams.zero": QaoaParams.zero,
    "prob_opt_replicated": lambda n: prob_opt_replicated(MODEL, n, PARAMS),
    "runtime_estimate": lambda n: runtime_estimate(MODEL, n, PARAMS),
    "build_tables.m_max": lambda n: build_tables(n, 1, TINY),
    "build_tables.p_max": lambda n: build_tables(1, n, TINY),
    "check_sampling_request": lambda n: check_sampling_request(n, 2),
    "conjecture_scan.p": lambda n: conjecture_scan(n, 1, TINY),
    "conjecture_scan.m_max": lambda n: conjecture_scan(1, n, TINY),
    "OptimizerSpec.budget": lambda n: OptimizerSpec("random-search", budget=n),
    "OptimizerSpec.restarts": lambda n: OptimizerSpec("random-search", restarts=n),
    "maximize": lambda n: maximize(MODEL, n, TINY[0]),
}

SEED_ENTRY_POINTS = {
    "OptimizerSpec": lambda s: OptimizerSpec("random-search", seed=s),
    "sample_until_optimum": lambda s: sample_until_optimum(MODEL, PARAMS, 3, seed=s),
}

SCHEDULE_ENTRY_POINTS = {
    "QaoaParams": QaoaParams,
    "prob_opt_batch": lambda gammas, betas: prob_opt_batch(MODEL, [gammas], [betas]),
    "bit_amplitudes": lambda gammas, betas: bit_amplitudes(1.5, gammas, betas),
}

# fault: (gammas, betas, the one message every entry point gives)
SCHEDULE_FAULTS = {
    "nan": ((0.3, math.nan), (0.7, 0.1), "rotation angle must be finite, got nan"),
    "inf": ((0.3,), (math.inf,), "rotation angle must be finite, got inf"),
    "-inf": ((-math.inf,), (0.7,), "rotation angle must be finite, got -inf"),
    "no_layers": ((), (), "need at least one layer of angles"),
    "mismatched_lengths": ((0.3,), (0.7, 0.1), "got 1 gamma angles but 2 beta angles"),
}

COEFFICIENT_ENTRY_POINTS = {
    "LinearIsing": lambda a: LinearIsing((a,)),
    "bit_amplitudes": lambda a: bit_amplitudes(a, (0.3,), (0.7,)),
    "overlap_p1": lambda a: overlap_p1(a, 2.0, PARAMS),
}

# float(key): the one message every entry point gives
COEFFICIENT_FAULTS = {
    "0.0": "coefficient 1 is zero; drop the qubit instead",
    "nan": "coefficient 1 is not finite: nan",
    "inf": "coefficient 1 is not finite: inf",
}


@pytest.mark.parametrize("value", [True, 0, 1.5], ids=repr)
@pytest.mark.parametrize("entry", sorted(COUNT_ENTRY_POINTS))
def test_count_must_be_a_positive_int(entry, value):
    with pytest.raises(ValueError, match="must be a positive integer, got " + repr(value)):
        COUNT_ENTRY_POINTS[entry](value)


@pytest.mark.parametrize("seed", [1.5, "x", True, math.nan], ids=repr)
@pytest.mark.parametrize("entry", sorted(SEED_ENTRY_POINTS))
def test_seed_must_be_an_int(entry, seed):
    with pytest.raises(ValueError, match="seed must be an integer"):
        SEED_ENTRY_POINTS[entry](seed)


# repr tells a plain int from a numpy one, so these also check that the
# numpy value was converted rather than carried into the result.
@pytest.mark.parametrize("kind", [np.int64, np.int32], ids=lambda kind: kind.__name__)
@pytest.mark.parametrize("entry", sorted(COUNT_ENTRY_POINTS))
def test_numpy_count_acts_as_int(entry, kind):
    assert repr(COUNT_ENTRY_POINTS[entry](kind(3))) == repr(COUNT_ENTRY_POINTS[entry](3))


@pytest.mark.parametrize("kind", [np.int64, np.int32], ids=lambda kind: kind.__name__)
@pytest.mark.parametrize("entry", sorted(SEED_ENTRY_POINTS))
def test_numpy_seed_acts_as_int(entry, kind):
    assert repr(SEED_ENTRY_POINTS[entry](kind(3))) == repr(SEED_ENTRY_POINTS[entry](3))


def test_numpy_seed_gives_the_same_table():
    # build_tables derives per-cell seeds from the spec's seed by int arithmetic
    numpy_seed, int_seed = (
        build_tables(2, 2, (OptimizerSpec("random-search", budget=5, seed=seed),))
        for seed in (np.int64(7), 7)
    )
    assert numpy_seed.to_csv() == int_seed.to_csv()


@pytest.mark.filterwarnings("error")
def test_sampling_cap_is_not_wrapped_by_numpy_overflow():
    # 2**62 * 4 wraps to 0 in int64; on plain ints it is far above the cap
    with pytest.raises(ResourceLimitError):
        check_sampling_request(np.int64(2**62), 4)


@pytest.mark.parametrize("fault", sorted(SCHEDULE_FAULTS))
@pytest.mark.parametrize("entry", sorted(SCHEDULE_ENTRY_POINTS))
def test_schedule_rule_has_one_message(entry, fault):
    gammas, betas, message = SCHEDULE_FAULTS[fault]
    with pytest.raises(ValueError) as info:
        SCHEDULE_ENTRY_POINTS[entry](gammas, betas)
    assert str(info.value) == message


@pytest.mark.parametrize("value", sorted(COEFFICIENT_FAULTS))
@pytest.mark.parametrize("entry", sorted(COEFFICIENT_ENTRY_POINTS))
def test_coefficient_rule_has_one_message(entry, value):
    with pytest.raises(ValueError) as info:
        COEFFICIENT_ENTRY_POINTS[entry](float(value))
    assert str(info.value) == COEFFICIENT_FAULTS[value]

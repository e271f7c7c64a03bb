"""Input rules with one home each: counts (errors.positive_int) and seeds (optimizers.philox)."""

import math

import pytest

from qaoa_linear.circuit import emit_linear_solver_circuit, twos_complement_bits
from qaoa_linear.experiments import (
    build_tables,
    check_sampling_request,
    conjecture_scan,
    sample_until_optimum,
)
from qaoa_linear.ising import LinearIsing, consecutive, replicate
from qaoa_linear.optimizers import OptimizerSpec, maximize
from qaoa_linear.probability import QaoaParams, prob_opt_replicated, runtime_estimate

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

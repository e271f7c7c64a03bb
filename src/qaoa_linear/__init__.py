"""Success probability of the layered ansatz on linear Ising models.

The library computes Pr(optimal measurement) in closed form via the
per-qubit product structure, optimizes it over angle schedules with a
reproducible four-method portfolio, cross-checks against a dense
statevector simulator, and packages the replication construction that
turns any imperfect base probability into exponential sampling cost.
"""

from .circuit import (
    emit_linear_solver_circuit,
    interpret_circuit,
    twos_complement_bits,
)
from .errors import DegenerateProbabilityError, QaoaLinearError, ResourceLimitError
from .experiments import (
    ProbTable,
    SamplingReport,
    ScanEntry,
    build_tables,
    cell_seed,
    conjecture_scan,
    sample_until_optimum,
)
from .gates import amplitude_to_bit, rx, rz
from .ising import (
    LinearIsing,
    consecutive,
    evaluate,
    format_model,
    optimal_bits,
    parse_model,
    replicate,
    solve_classical,
)
from .optimizers import (
    METHODS,
    OptimizationResult,
    OptimizerSpec,
    default_portfolio,
    gamma_period,
    maximize,
    portfolio_maximize,
)
from .probability import (
    QaoaParams,
    RuntimeEstimate,
    exact_p1_m2_max,
    log_prob_opt,
    overlap_p1,
    p2_sine_residuals,
    prob_opt,
    prob_opt_batch,
    prob_opt_replicated,
    runtime_estimate,
)
from .statevector import expectation, outcome_probability, run_ansatz

__version__ = "0.1.0"

__all__ = [
    "DegenerateProbabilityError",
    "LinearIsing",
    "METHODS",
    "OptimizationResult",
    "OptimizerSpec",
    "ProbTable",
    "QaoaLinearError",
    "QaoaParams",
    "ResourceLimitError",
    "RuntimeEstimate",
    "SamplingReport",
    "ScanEntry",
    "amplitude_to_bit",
    "build_tables",
    "cell_seed",
    "conjecture_scan",
    "consecutive",
    "default_portfolio",
    "emit_linear_solver_circuit",
    "evaluate",
    "exact_p1_m2_max",
    "expectation",
    "format_model",
    "gamma_period",
    "interpret_circuit",
    "log_prob_opt",
    "maximize",
    "optimal_bits",
    "outcome_probability",
    "overlap_p1",
    "p2_sine_residuals",
    "parse_model",
    "portfolio_maximize",
    "prob_opt",
    "prob_opt_batch",
    "prob_opt_replicated",
    "replicate",
    "run_ansatz",
    "runtime_estimate",
    "rx",
    "rz",
    "sample_until_optimum",
    "solve_classical",
    "twos_complement_bits",
]

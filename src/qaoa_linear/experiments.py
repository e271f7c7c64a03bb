"""Reproducible experiment drivers: probability tables, sampling, scans.

Every cell of every experiment derives its own RNG seed from the master
seed and the cell coordinates, so tables are bitwise reproducible and
insensitive to evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateProbabilityError, ResourceLimitError
from .ising import LinearIsing, consecutive
from .optimizers import OptimizerSpec, default_portfolio, portfolio_maximize
from .probability import QaoaParams, prob_opt, qubit_probs

# Sampling refuses below this; expected trial counts past 1e9 are not
# experiments, they are hangs.
MIN_SAMPLING_PROB = 1e-9

# Sampling refuses runs * n above this before it allocates: each step of
# the per-preparation path draws an (active runs x n) matrix of uniforms,
# 128 MiB of float64 at the cap.
MAX_SAMPLING_DRAWS = 1 << 24

# Above this expected trial count the per-preparation simulation switches
# to direct draws from the implied trial-count law (same distribution).
_MAX_LITERAL_EXPECTED = 1e4


def cell_seed(master: int, m: int, p: int) -> int:
    """Per-cell seed: deterministic, distinct across (m, p), order-free."""
    return (master * 1000003 + m * 1009 + p) % (1 << 63)


@dataclass(frozen=True)
class ProbTable:
    """Best found success probabilities and per-qubit runtime bases.

    prob[i][j] is for the model (1..m_values[i]) with p_values[j] layers;
    base is prob**(-1/m) rowwise, the growth factor per qubit of the
    expected sample count.
    """

    m_values: tuple[int, ...]
    p_values: tuple[int, ...]
    prob: np.ndarray
    base: np.ndarray

    def prob_at(self, m: int, p: int) -> float:
        return float(self.prob[self.m_values.index(m), self.p_values.index(p)])

    def base_at(self, m: int, p: int) -> float:
        return float(self.base[self.m_values.index(m), self.p_values.index(p)])

    def to_csv(self) -> str:
        lines = ["m,p,prob,base"]
        for i, m in enumerate(self.m_values):
            for j, p in enumerate(self.p_values):
                lines.append(f"{m},{p},{self.prob[i, j]:.6f},{self.base[i, j]:.5f}")
        return "\n".join(lines) + "\n"


def build_tables(m_max: int, p_max: int, specs=None) -> ProbTable:
    """Optimize every (m, p) cell for the models (1..m), m <= m_max.

    Each cell runs the full portfolio with per-cell seeds derived from
    each spec's own seed via cell_seed.
    """
    if not isinstance(m_max, int) or m_max < 1:
        raise ValueError(f"m_max must be a positive integer, got {m_max!r}")
    if not isinstance(p_max, int) or p_max < 1:
        raise ValueError(f"p_max must be a positive integer, got {p_max!r}")
    specs = tuple(specs) if specs is not None else default_portfolio()
    if not specs:
        raise ValueError("need at least one OptimizerSpec")
    m_values = tuple(range(1, m_max + 1))
    p_values = tuple(range(1, p_max + 1))

    def run_cell(m, p):
        cell_specs = tuple(replace(s, seed=cell_seed(s.seed, m, p)) for s in specs)
        return portfolio_maximize(consecutive(m), p, cell_specs).best_value

    flat = [run_cell(m, p) for m in m_values for p in p_values]
    prob = np.array(flat, dtype=float).reshape(len(m_values), len(p_values))
    base = np.empty_like(prob)
    for i, m in enumerate(m_values):
        row = prob[i]
        base[i] = np.where(row > 0.0, row ** (-1.0 / m), np.inf)
    return ProbTable(m_values=m_values, p_values=p_values, prob=prob, base=base)


@dataclass(frozen=True)
class SamplingReport:
    model: LinearIsing
    params: QaoaParams
    true_prob: float
    runs: int
    mean_trials: float
    ci95_halfwidth: float


def check_sampling_request(runs: int, n: int) -> None:
    """Refuse a sampling request before any work is spent on it.

    ValueError unless runs is a positive integer; ResourceLimitError when
    runs * n exceeds MAX_SAMPLING_DRAWS.
    """
    if not isinstance(runs, int) or runs < 1:
        raise ValueError(f"runs must be a positive integer, got {runs!r}")
    if runs * n > MAX_SAMPLING_DRAWS:
        raise ResourceLimitError(
            f"{runs} runs on {n} qubits need {runs * n} draws per step; "
            f"the cap is {MAX_SAMPLING_DRAWS}"
        )


def sample_until_optimum(
    model: LinearIsing, params: QaoaParams, runs: int, seed: int = 1
) -> SamplingReport:
    """Measure how many preparations it takes to see the optimal string.

    Each preparation draws every qubit's bit independently from its exact
    single-qubit distribution; a run counts preparations until all bits
    are optimal at once.  When the expected count exceeds 1e4 the trial
    counts are drawn directly from the implied distribution instead
    (identical law, bounded cost).  Refuses probabilities below 1e-9
    and, with ResourceLimitError, runs * n above MAX_SAMPLING_DRAWS.
    """
    check_sampling_request(runs, model.n)
    true_prob = prob_opt(model, params)
    if true_prob < MIN_SAMPLING_PROB:
        raise DegenerateProbabilityError(
            f"success probability {true_prob:.3e} is below {MIN_SAMPLING_PROB:.0e}; "
            "expected trial count is astronomically large"
        )
    rng = np.random.Generator(
        np.random.Philox(key=np.array([seed % (1 << 64), 0], dtype=np.uint64))
    )
    counts = np.zeros(runs, dtype=np.int64)
    if true_prob * _MAX_LITERAL_EXPECTED >= 1.0:
        q = qubit_probs(model, params)
        active = np.arange(runs)
        t = 0
        while active.size:
            t += 1
            hit = (rng.random((active.size, q.size)) < q).all(axis=1)
            counts[active[hit]] = t
            active = active[~hit]
    else:
        counts = rng.geometric(true_prob, runs)
    mean = float(counts.mean())
    if runs > 1:
        half = 1.96 * float(counts.std(ddof=1)) / math.sqrt(runs)
    else:
        half = 0.0
    return SamplingReport(
        model=model,
        params=params,
        true_prob=true_prob,
        runs=runs,
        mean_trials=mean,
        ci95_halfwidth=half,
    )


@dataclass(frozen=True)
class ScanEntry:
    m: int
    best_prob: float
    below_one: bool
    anomaly: bool


def conjecture_scan(p: int, m_max: int, specs=None, tol: float = 1e-4):
    """Optimize (1..m) for m = 1..m_max at fixed p; flag perfect cells.

    An entry is an anomaly when the best probability reaches 1 - tol even
    though m > p; across everything observed so far that never happens,
    and this scan exists to go looking for counterexamples.
    """
    if not isinstance(p, int) or p < 1:
        raise ValueError(f"layer count must be a positive integer, got {p!r}")
    if not isinstance(m_max, int) or m_max < 1:
        raise ValueError(f"m_max must be a positive integer, got {m_max!r}")
    if not (0.0 < tol < 1.0):
        raise ValueError(f"tol must be in (0, 1), got {tol!r}")
    specs = tuple(specs) if specs is not None else default_portfolio()
    if not specs:
        raise ValueError("need at least one OptimizerSpec")
    entries = []
    for m in range(1, m_max + 1):
        cell_specs = tuple(replace(s, seed=cell_seed(s.seed, m, p)) for s in specs)
        result = portfolio_maximize(consecutive(m), p, cell_specs)
        below = result.best_value < 1.0 - tol
        entries.append(
            ScanEntry(
                m=m,
                best_prob=result.best_value,
                below_one=below,
                anomaly=(not below) and m > p,
            )
        )
    return tuple(entries)

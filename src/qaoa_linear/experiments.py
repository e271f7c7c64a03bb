"""Reproducible experiment drivers: probability tables, sampling, scans.

Tables and scans share one cell loop over (m, p); a scan at p is column
p of the table.  Every cell derives its own RNG seed from the master
seed and the cell coordinates, so tables are bitwise reproducible and
insensitive to evaluation order.  The loop maps over the cells with
optimizers.pool_map: inside worker_pool, whole cells run in the calling
process and in worker processes, in any order, and come back in row
order.  specs=None means default_portfolio(); an empty portfolio is
refused by portfolio_maximize at the first cell the caller runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateProbabilityError, ResourceLimitError, positive_int
from .ising import LinearIsing, consecutive
from .optimizers import default_portfolio, philox, pool_map, portfolio_maximize
from .probability import QaoaParams, prob_opt

# Sampling refuses below this.  A run of 1e9 preparations is no experiment
# anyone performs, and further down the law breaks: an underflowed P = 0
# has none, and from P ~ 1e-19 numpy's draws clip at the int64 maximum.
MIN_SAMPLING_PROB = 1e-9

# Sampling refuses runs * n above this before it allocates, so the O(runs)
# int64 counts stay within 8 * 2**24 / n bytes.
MAX_SAMPLING_DRAWS = 1 << 24

# The CI half-width sums its squared deviations over slices of this many
# counts, so no O(runs) temporary is built beside the counts.
_SAMPLING_BLOCK = 1 << 16

# The sampler's Philox word.  Optimizer words are (method << 32) | restart
# with restart < 2**32, and verify's is 99, so no other stream shares it.
SAMPLER_WORD = 1 << 63

# A cell counts as perfect when its best probability reaches 1 - ANOMALY_TOL.
ANOMALY_TOL = 1e-4


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


def is_anomaly(m: int, p: int, prob: float) -> bool:
    """Whether (m, p) reaches 1 - ANOMALY_TOL although m > p; never observed so far."""
    return m > p and prob >= 1.0 - ANOMALY_TOL


def _best_at_cell(m: int, p: int, specs) -> float:
    """Best value of the portfolio on (1..m) at p layers, each spec reseeded for the cell."""
    cell_specs = tuple(replace(s, seed=cell_seed(s.seed, m, p)) for s in specs)
    return portfolio_maximize(consecutive(m), p, cell_specs).best_value


def _table(m_values, p_values, specs) -> ProbTable:
    """The one cell loop: the portfolio's best on every (m, p) cell.

    The cells are computed in any order, split over an open worker_pool
    by pool_map, and returned in row order.
    """
    specs = default_portfolio() if specs is None else tuple(specs)
    m_values, p_values = tuple(m_values), tuple(p_values)
    flat = pool_map(_best_at_cell, [(m, p, specs) for m in m_values for p in p_values])
    prob = np.array(flat, dtype=float).reshape(len(m_values), len(p_values))
    base = np.empty_like(prob)
    for i, m in enumerate(m_values):
        row = prob[i]
        # the power only where row > 0: an underflowed cell's base is inf, with no warning
        base[i] = np.power(row, -1.0 / m, out=np.full_like(row, np.inf), where=row > 0.0)
    return ProbTable(m_values=m_values, p_values=p_values, prob=prob, base=base)


def build_tables(m_max: int, p_max: int, specs=None) -> ProbTable:
    """Optimize every (m, p) cell for the models (1..m), m <= m_max.

    Each cell runs the full portfolio with per-cell seeds derived from
    each spec's own seed via cell_seed.
    """
    m_max = positive_int(m_max, "m_max")
    p_max = positive_int(p_max, "p_max")
    return _table(range(1, m_max + 1), range(1, p_max + 1), specs)


@dataclass(frozen=True)
class SamplingReport:
    model: LinearIsing
    params: QaoaParams
    true_prob: float
    runs: int
    mean_trials: float
    ci95_halfwidth: float


def check_sampling_request(runs: int, n: int) -> int:
    """Refuse a sampling request before any work is spent on it.

    Returns runs as an int.  ValueError unless runs is a positive
    integer; ResourceLimitError when runs * n exceeds MAX_SAMPLING_DRAWS.
    """
    runs = positive_int(runs, "runs")
    if runs * n > MAX_SAMPLING_DRAWS:
        raise ResourceLimitError(
            f"{runs} runs on {n} qubits make runs * n = {runs * n}; "
            f"the cap is {MAX_SAMPLING_DRAWS}"
        )
    return runs


def _ci95_halfwidth(counts: np.ndarray, mean: float) -> float:
    """1.96 sample standard deviations of the mean (0.0 for one run).

    The second pass of a two-pass variance: the squared deviations from
    `mean` are summed over _SAMPLING_BLOCK-sized slices of counts, so no
    O(runs) temporary is built beside counts.
    """
    runs = counts.size
    if runs == 1:
        return 0.0
    squares = 0.0
    for start in range(0, runs, _SAMPLING_BLOCK):
        deviations = counts[start:start + _SAMPLING_BLOCK] - mean
        squares += float(np.dot(deviations, deviations))
    return 1.96 * math.sqrt(squares / (runs - 1)) / math.sqrt(runs)


def sample_until_optimum(
    model: LinearIsing, params: QaoaParams, runs: int, seed: int = 1
) -> SamplingReport:
    """Measure how many preparations it takes to see the optimal string.

    A preparation yields the optimal string with probability P =
    prob_opt(model, params), independently of the others, so a run's
    preparation count until the first success is geometric with parameter
    P.  Each run's count is drawn from that law on philox(seed, SAMPLER_WORD);
    the counts depend only on the seed, P and runs.  Refuses probabilities
    below MIN_SAMPLING_PROB and, with ResourceLimitError, runs * n above
    MAX_SAMPLING_DRAWS.
    """
    runs = check_sampling_request(runs, model.n)
    rng = philox(seed, SAMPLER_WORD)
    true_prob = prob_opt(model, params)
    if true_prob < MIN_SAMPLING_PROB:
        raise DegenerateProbabilityError(
            f"success probability {true_prob:.3e} is below {MIN_SAMPLING_PROB:.0e}; "
            "expected trial count is astronomically large"
        )
    # prob_opt can round a certain success to just above 1, which geometric refuses
    counts = rng.geometric(min(true_prob, 1.0), runs)
    mean = float(counts.mean())
    return SamplingReport(
        model=model,
        params=params,
        true_prob=true_prob,
        runs=runs,
        mean_trials=mean,
        ci95_halfwidth=_ci95_halfwidth(counts, mean),
    )


@dataclass(frozen=True)
class ScanEntry:
    m: int
    best_prob: float
    below_one: bool
    anomaly: bool


def conjecture_scan(p: int, m_max: int, specs=None):
    """Optimize (1..m) for m = 1..m_max at fixed p; flag perfect cells.

    The scan is column p of the table's one cell loop: entry m is bit for
    bit build_tables(m_max, p, specs).prob_at(m, p).  It goes looking for
    counterexamples, anomalies by is_anomaly(m, p, best): cells that reach
    1 - ANOMALY_TOL although m > p.
    """
    p = positive_int(p, "layer count")
    m_max = positive_int(m_max, "m_max")
    table = _table(range(1, m_max + 1), (p,), specs)
    return tuple(
        ScanEntry(m=m, best_prob=best, below_one=best < 1.0 - ANOMALY_TOL,
                  anomaly=is_anomaly(m, p, best))
        for m, best in zip(table.m_values, table.prob[:, 0].tolist())
    )

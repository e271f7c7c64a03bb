"""Reproducible experiment drivers: probability tables, sampling, scans.

Every cell of every experiment derives its own RNG seed from the master
seed and the cell coordinates, so tables are bitwise reproducible and
insensitive to evaluation order.  specs=None means default_portfolio();
an empty portfolio is refused by portfolio_maximize at the first cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateProbabilityError, ResourceLimitError, positive_int
from .ising import LinearIsing, consecutive
from .optimizers import default_portfolio, philox, portfolio_maximize
from .probability import QaoaParams, prob_opt, qubit_probs

# Sampling refuses below this; expected trial counts past 1e9 are not
# experiments, they are hangs.
MIN_SAMPLING_PROB = 1e-9

# Sampling refuses runs * n above this before it allocates, so either path's
# O(runs) int64 counts stay within 8 * 2**24 / n bytes; the per-preparation
# path adds one block of at most _SAMPLING_BLOCK float64 uniforms.
MAX_SAMPLING_DRAWS = 1 << 24

# The per-preparation simulation runs only while the expected trial count
# stays within _MAX_LITERAL_EXPECTED, and runs * n / p within
# _MAX_LITERAL_DRAWS.  That product is an upper bound on its uniform draws,
# since a preparation stops drawing at its first missed qubit: at q ~ 0.88
# a qubit it draws about 8 uniforms, whatever n.  Past either bound it
# draws the trial counts directly from the implied law (same distribution).
_MAX_LITERAL_EXPECTED = 1e4
_MAX_LITERAL_DRAWS = 1 << 28

# The per-preparation path decides about this many preparations a block,
# and a numpy call of it draws about this many uniforms.
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


def build_tables(m_max: int, p_max: int, specs=None) -> ProbTable:
    """Optimize every (m, p) cell for the models (1..m), m <= m_max.

    Each cell runs the full portfolio with per-cell seeds derived from
    each spec's own seed via cell_seed.
    """
    m_max = positive_int(m_max, "m_max")
    p_max = positive_int(p_max, "p_max")
    specs = default_portfolio() if specs is None else tuple(specs)
    m_values = tuple(range(1, m_max + 1))
    p_values = tuple(range(1, p_max + 1))
    flat = [_best_at_cell(m, p, specs) for m in m_values for p in p_values]
    prob = np.array(flat, dtype=float).reshape(len(m_values), len(p_values))
    base = np.empty_like(prob)
    for i, m in enumerate(m_values):
        row = prob[i]
        # the power only where row > 0: an underflowed cell's base is inf, with no warning
        base[i] = np.power(row, -1.0 / m, out=np.full_like(row, np.inf), where=row > 0.0)
    return ProbTable(m_values=m_values, p_values=p_values, prob=prob, base=base)


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


def _preparation_counts(rng: np.random.Generator, q: np.ndarray, runs: int) -> np.ndarray:
    """Trial counts of `runs` runs that each prepare until every bit is optimal.

    Preparations form one stream, and a run's count is the gap between
    consecutive hits.  The stream goes in blocks of min(_SAMPLING_BLOCK,
    ceil(remaining runs / P)) preparations.  A block is decided qubit by
    qubit in ascending order of q, so the likeliest miss comes first, and a
    qubit's uniform is drawn only for the preparations that have not yet
    missed: about 1 / (1 - q) uniforms a preparation, not len(q).  Each
    draw covers k = max(1, _SAMPLING_BLOCK // alive) qubits at once, so a
    numpy call does about one block of work however few preparations are
    left alive.
    """
    q = np.sort(q)
    n = q.size
    prob = float(np.prod(q))
    counts = np.empty(runs, dtype=np.int64)
    done = 0  # runs whose count is known
    start = 0  # stream index of the block's first preparation
    last = -1  # stream index of the last hit
    while done < runs:
        size = min(_SAMPLING_BLOCK, math.ceil((runs - done) / prob))
        alive = np.arange(size)
        j = 0
        while j < n and alive.size:
            k = min(n - j, max(1, _SAMPLING_BLOCK // alive.size))
            alive = alive[(rng.random((alive.size, k)) < q[j:j + k]).all(axis=1)]
            j += k
        hits = alive[:runs - done]
        if hits.size:
            hits += start
            counts[done:done + hits.size] = np.diff(hits, prepend=last)
            last = int(hits[-1])
            done += hits.size
        start += size
    return counts


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

    Each preparation draws every qubit's bit independently from its exact
    single-qubit distribution, one uniform from philox(seed, SAMPLER_WORD)
    per qubit, and stops at its first non-optimal bit; a run counts
    preparations until all bits are optimal at once.  Memory is one O(runs)
    count array beside one block of about 2**16 preparations.  When the
    expected count exceeds 1e4, or runs * n / p (an upper bound on the
    uniform draws) exceeds 2**28, the trial counts are drawn directly from
    the implied geometric law instead (identical law, bounded cost).  Refuses
    probabilities below 1e-9 and, with ResourceLimitError, runs * n above
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
    if true_prob * _MAX_LITERAL_EXPECTED >= 1.0 and runs * model.n <= _MAX_LITERAL_DRAWS * true_prob:
        counts = _preparation_counts(rng, qubit_probs(model, params), runs)
    else:
        counts = rng.geometric(true_prob, runs)
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

    An entry is an anomaly by is_anomaly(m, p, best): it reaches
    1 - ANOMALY_TOL although m > p.  This scan goes looking for such counterexamples.
    """
    p = positive_int(p, "layer count")
    m_max = positive_int(m_max, "m_max")
    specs = default_portfolio() if specs is None else tuple(specs)
    entries = []
    for m in range(1, m_max + 1):
        best = _best_at_cell(m, p, specs)
        entries.append(
            ScanEntry(m=m, best_prob=best, below_one=best < 1.0 - ANOMALY_TOL,
                      anomaly=is_anomaly(m, p, best))
        )
    return tuple(entries)

"""Table builder, sampling harness, and scan driver."""

import math
import tracemalloc

import numpy as np
import pytest

from qaoa_linear import cli, experiments
from qaoa_linear.errors import DegenerateProbabilityError, ResourceLimitError
from qaoa_linear.experiments import (
    MAX_SAMPLING_DRAWS,
    SAMPLER_WORD,
    build_tables,
    cell_seed,
    conjecture_scan,
    sample_until_optimum,
)
from qaoa_linear.ising import LinearIsing, consecutive, replicate
from qaoa_linear.optimizers import METHODS, OptimizerSpec, default_portfolio, philox
from qaoa_linear.probability import QaoaParams, prob_opt, qubit_probs


def _per_preparation_counts(rng, q, runs):
    """The sampler's stream in plain Python: one rng.random() per uniform.

    Blocks of min(_SAMPLING_BLOCK, ceil(remaining / P)) preparations, each
    decided over the qubits in ascending q, k = max(1, _SAMPLING_BLOCK //
    alive) qubits a draw, every alive preparation's k uniforms in turn.
    """
    q = np.sort(q)
    prob = float(np.prod(q))
    q = q.tolist()
    block = experiments._SAMPLING_BLOCK
    counts = []
    start, last = 0, -1
    while len(counts) < runs:
        size = min(block, math.ceil((runs - len(counts)) / prob))
        alive = list(range(size))
        j = 0
        while j < len(q) and alive:
            k = min(len(q) - j, max(1, block // len(alive)))
            survivors = []
            for i in alive:
                u = [rng.random() for _ in range(k)]
                if all(u[c] < q[j + c] for c in range(k)):
                    survivors.append(i)
            alive = survivors
            j += k
        for i in alive[: runs - len(counts)]:
            counts.append(start + i - last)
            last = start + i
        start += size
    return np.array(counts, dtype=np.int64)


def _assert_counts_match(q, runs, seed):
    expected = _per_preparation_counts(philox(seed, SAMPLER_WORD), q, runs)
    assert np.array_equal(experiments._preparation_counts(philox(seed, SAMPLER_WORD), q, runs), expected)


class _CountingRng:
    """Passes random() through to a generator and counts the uniforms it returns."""

    def __init__(self, rng):
        self.rng = rng
        self.drawn = 0

    def random(self, size):
        u = self.rng.random(size)
        self.drawn += u.size
        return u


LEAN_SPECS = (
    OptimizerSpec("nelder-mead", budget=2000, restarts=2),
    OptimizerSpec("differential-evolution", budget=2000, restarts=2),
)


class TestCellSeed:
    def test_deterministic_and_distinct(self):
        seen = set()
        for m in range(1, 8):
            for p in range(1, 6):
                s = cell_seed(1, m, p)
                assert s == cell_seed(1, m, p)
                seen.add(s)
        assert len(seen) == 35

    def test_master_seed_matters(self):
        assert cell_seed(1, 2, 3) != cell_seed(2, 2, 3)


class TestBuildTables:
    def test_first_column_landmarks(self):
        table = build_tables(2, 1, LEAN_SPECS)
        assert table.prob_at(1, 1) == pytest.approx(1.0, abs=1e-3)
        assert table.prob_at(2, 1) == pytest.approx(0.882385, abs=1e-3)

    def test_base_identity(self):
        table = build_tables(3, 2, LEAN_SPECS)
        for i, m in enumerate(table.m_values):
            for j in range(len(table.p_values)):
                recomputed = table.prob[i, j] ** (-1.0 / m)
                assert abs(recomputed - table.base[i, j]) <= 1e-12

    def test_m3_p2_base_landmark(self):
        table = build_tables(3, 2, default_portfolio(seed=1, budget=4000, restarts=2))
        assert table.base_at(3, 2) == pytest.approx(1.01910, abs=1e-3)

    def test_prob_nonincreasing_down_columns(self):
        table = build_tables(4, 2, LEAN_SPECS)
        for j in range(table.prob.shape[1]):
            column = table.prob[:, j]
            assert all(column[i + 1] <= column[i] + 1e-6 for i in range(len(column) - 1))

    @pytest.mark.filterwarnings("error")
    def test_underflowed_cell_has_infinite_base_without_warning(self, monkeypatch):
        def best(m, p, specs):
            return 0.0 if (m, p) == (2, 1) else 0.5

        monkeypatch.setattr(experiments, "_best_at_cell", best)
        table = build_tables(2, 2, LEAN_SPECS)
        assert table.base_at(2, 1) == math.inf
        assert table.base_at(2, 2) == 0.5 ** (-1.0 / 2)
        assert "2,1,0.000000,inf\n" in table.to_csv()

    def test_csv_format(self):
        table = build_tables(1, 1, LEAN_SPECS)
        text = table.to_csv()
        lines = text.split("\n")
        assert lines[0] == "m,p,prob,base"
        assert lines[1] == "1,1,1.000000,1.00000"
        assert text.endswith("\n")
        assert "\r" not in text

    def test_validation(self):
        with pytest.raises(ValueError):
            build_tables(0, 1, LEAN_SPECS)
        with pytest.raises(ValueError):
            build_tables(1, 1, ())


class TestSampling:
    def test_perfect_recovery_means_one_trial(self):
        params = QaoaParams((math.pi / 4,), (math.pi / 4,))
        report = sample_until_optimum(LinearIsing((1.0,)), params, runs=200, seed=3)
        assert report.mean_trials == 1.0
        assert report.ci95_halfwidth == 0.0
        assert report.true_prob == pytest.approx(1.0, abs=1e-12)

    def test_uniform_four_qubits(self):
        report = sample_until_optimum(
            LinearIsing((1.0,) * 4), QaoaParams.zero(1), runs=4000, seed=7
        )
        assert report.mean_trials == pytest.approx(16.0, rel=0.10)

    def test_mean_within_confidence_interval(self):
        model = LinearIsing((1.0, 2.0))
        params = QaoaParams((0.4728,), (math.pi / 4,))
        report = sample_until_optimum(model, params, runs=10000, seed=11)
        expected = 1.0 / report.true_prob
        assert abs(report.mean_trials - expected) <= report.ci95_halfwidth

    def test_law_draw_regime_matches_reciprocal(self):
        # 14 uniform qubits: expected 16384 trials, past the literal cutoff
        model = LinearIsing((1.0,) * 14)
        report = sample_until_optimum(model, QaoaParams.zero(1), runs=2000, seed=13)
        assert report.true_prob == pytest.approx(2.0 ** -14, abs=1e-12)
        assert report.mean_trials == pytest.approx(2.0 ** 14, rel=0.10)

    def test_law_draw_regime_bounds_uniform_draws(self):
        # p = 2.3e-4: about 4300 expected trials, under the trial cutoff, but
        # 20000 runs on 40 qubits would take about 3.5e9 uniform draws
        model = replicate(LinearIsing((1.0, 2.0)), 20)
        report = sample_until_optimum(model, QaoaParams((0.3,), (0.5,)), runs=20000, seed=1)
        assert report.true_prob == pytest.approx(2.3e-4, rel=0.01)
        assert report.mean_trials == philox(1, SAMPLER_WORD).geometric(report.true_prob, 20000).mean()

    def test_refuses_degenerate_probability(self):
        model = replicate(LinearIsing((1.0,)), 40)
        with pytest.raises(DegenerateProbabilityError):
            sample_until_optimum(model, QaoaParams.zero(1), runs=10, seed=1)

    def test_reproducible(self):
        model = LinearIsing((1.0, 2.0))
        params = QaoaParams((0.3,), (0.8,))
        a = sample_until_optimum(model, params, runs=500, seed=21)
        b = sample_until_optimum(model, params, runs=500, seed=21)
        assert a.mean_trials == b.mean_trials

    def test_run_count_validated(self):
        with pytest.raises(ValueError):
            sample_until_optimum(LinearIsing((1.0,)), QaoaParams.zero(1), runs=0)

    def test_sampler_word_is_its_own(self):
        # optimizer words are (method << 32) | restart, restart < 2**32; verify's is 99
        assert SAMPLER_WORD < 1 << 64
        assert SAMPLER_WORD >> 32 >= len(METHODS)
        assert SAMPLER_WORD != 99

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_counts_match_per_preparation_reference(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(25):
            n = int(rng.integers(1, 41))
            runs = int(rng.integers(1, 401))
            # per-qubit probabilities whose product, P, is at least 1e-3
            q = (10.0 ** rng.uniform(-3.0, 0.0)) ** rng.dirichlet(np.ones(n))
            _assert_counts_match(q, runs, seed)

    @pytest.mark.parametrize(
        "n, runs, success",
        [
            (5, 300, 1.0),  # every preparation a hit
            (4, 40000, 0.5),  # the runs span several blocks
            (experiments._SAMPLING_BLOCK + 3, 20, 0.3),  # many qubits to one draw
        ],
    )
    def test_counts_match_per_preparation_reference_at_edges(self, n, runs, success):
        _assert_counts_match(np.full(n, success ** (1.0 / n)), runs, seed=9)

    def test_counts_fit_the_geometric_law(self):
        q = np.array([0.4, 0.7, 0.8, 0.9, 0.99])  # P = 0.2
        prob = float(np.prod(q))
        runs = 20000
        counts = experiments._preparation_counts(philox(5, SAMPLER_WORD), q, runs)
        # cells 1..19 and the tail from 20; each expects 70 or more counts
        observed = np.bincount(np.minimum(counts, 20), minlength=21)[1:]
        law = prob * (1.0 - prob) ** np.arange(19)
        expected = runs * np.append(law, 1.0 - law.sum())
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        assert chi2 < 43.82  # the 0.999 quantile of chi-square with 19 degrees of freedom

    def test_stops_drawing_at_the_first_miss(self):
        # (1..7) x 10 at its own p = 1 optimum: P about 1.2e-4 on 70 qubits
        model = replicate(consecutive(7), 10)
        q = qubit_probs(model, QaoaParams((2.9836469,), (math.pi * 3 / 4,)))
        prob, runs = float(np.prod(q)), 200
        rng = _CountingRng(philox(1, SAMPLER_WORD))
        experiments._preparation_counts(rng, q, runs)
        assert 0 < rng.drawn < runs * model.n / prob / 4

    def test_per_preparation_memory_is_bounded(self):
        runs = 20000
        model = replicate(LinearIsing((1.0, 2.0)), 18)
        params = QaoaParams((0.4728,), (math.pi / 4,))
        tracemalloc.start()
        try:
            report = sample_until_optimum(model, params, runs=runs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # still the per-preparation path: about 6.9e6 expected uniform draws
        assert runs * model.n / report.true_prob < experiments._MAX_LITERAL_DRAWS
        assert peak <= 2 * experiments._SAMPLING_BLOCK * 8 + 64 * runs

    def test_dense_request_memory_is_in_place(self):
        # counts are written in place; collecting each block's hits and
        # concatenating them would hold 16 * runs bytes at the end
        runs = 1 << 22
        tracemalloc.start()
        try:
            experiments._preparation_counts(philox(1, SAMPLER_WORD), np.array([0.5]), runs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 12 * runs + 4 * experiments._SAMPLING_BLOCK * 8

    def test_draw_cap_refuses_before_allocating(self):
        model = LinearIsing((1.0,) * 4)
        runs = MAX_SAMPLING_DRAWS // 4 + 1
        with pytest.raises(ResourceLimitError, match="cap"):
            sample_until_optimum(model, QaoaParams.zero(1), runs=runs)


class TestConjectureScan:
    def test_p1_profile(self):
        entries = conjecture_scan(1, 3, LEAN_SPECS)
        assert [e.m for e in entries] == [1, 2, 3]
        assert [e.below_one for e in entries] == [False, True, True]
        assert not any(e.anomaly for e in entries)

    def test_perfect_cells_past_p_are_anomalies(self, monkeypatch, capsys):
        # every cell at 1.0: exactly the m > p entries are counterexamples
        monkeypatch.setattr(experiments, "_best_at_cell", lambda m, p, specs: 1.0)
        entries = conjecture_scan(2, 4, LEAN_SPECS)
        assert [e.anomaly for e in entries] == [False, False, True, True]
        assert not any(e.below_one for e in entries)
        assert cli.main(["scan", "--p", "2", "--m-max", "4"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert out.count("anomaly=true") == 2
        assert "# anomalies=2" in out

    @pytest.mark.parametrize("p", [1, 2])
    def test_uses_same_seeds_as_tables(self, p):
        specs = default_portfolio(seed=3, budget=200, restarts=1)
        table = build_tables(3, 2, specs)
        entries = conjecture_scan(p, 3, specs)
        assert [e.best_prob.hex() for e in entries] == [
            table.prob_at(m, p).hex() for m in (1, 2, 3)
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            conjecture_scan(0, 3, LEAN_SPECS)

"""Table builder, sampling harness, and scan driver."""

import math
import multiprocessing
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from qaoa_linear import cli, experiments, optimizers
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
from qaoa_linear.optimizers import (
    METHODS,
    OptimizerSpec,
    default_portfolio,
    philox,
    worker_pool,
)
from qaoa_linear.probability import QaoaParams


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

    def test_error_at_a_cell_reaps_the_pool(self, monkeypatch):
        # a worker takes the cells after the first; the caller's own cell
        # raises, since only the caller looks up the patched portfolio
        monkeypatch.setattr(optimizers, "usable_cpus", lambda: 2)
        error = RuntimeError("caller's cell")
        started = []

        def failing(model, p, specs):
            started.extend(multiprocessing.active_children())
            raise error

        monkeypatch.setattr(experiments, "portfolio_maximize", failing)
        with pytest.raises(RuntimeError) as raised:
            with worker_pool():
                build_tables(3, 2, LEAN_SPECS)
        assert raised.value is error
        assert started and not any(process.is_alive() for process in started)
        assert multiprocessing.active_children() == []

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


class TestCellsInWorkers:
    """Inside worker_pool, whole cells run in the caller and in a worker,
    and the table is bit for bit the serial one."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(optimizers, "usable_cpus", lambda: 2)

    @pytest.mark.parametrize("master", [1, 2, 3, 824])
    def test_same_bits_as_serial(self, master):
        specs = default_portfolio(seed=master, budget=200, restarts=2)

        def bits():
            table, entries = build_tables(4, 3, specs), conjecture_scan(3, 4, specs)
            return [x.hex() for x in table.prob.ravel().tolist()], [
                e.best_prob.hex() for e in entries
            ]

        serial = bits()
        with worker_pool():
            assert bits() == serial
        assert multiprocessing.active_children() == []

    def test_cells_split_and_not_their_restarts(self, monkeypatch):
        submitted = []  # the function each worker's drain runs
        submit = ProcessPoolExecutor.submit

        def spy(self, drain, fn, jobs):
            assert drain is optimizers._drain
            submitted.append(fn)
            return submit(self, drain, fn, jobs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", spy)
        with worker_pool():
            build_tables(2, 2, LEAN_SPECS)
        assert submitted and set(submitted) == {experiments._best_at_cell}
        submitted.clear()
        with worker_pool():
            build_tables(1, 1, LEAN_SPECS)  # one cell: its two members split
        assert submitted == [optimizers.maximize]


class TestTwoWorkers:
    """At three usable CPUs, two workers drain one counter beside the caller."""

    @pytest.fixture(autouse=True)
    def three_cpus(self, monkeypatch):
        monkeypatch.setattr(optimizers, "usable_cpus", lambda: 3)

    @pytest.mark.parametrize("master", [1, 824])
    def test_same_bits_as_serial(self, master):
        specs = default_portfolio(seed=master, budget=200, restarts=2)

        def bits():
            table, entries = build_tables(4, 3, specs), conjecture_scan(3, 4, specs)
            return [x.hex() for x in table.prob.ravel().tolist()], [
                e.best_prob.hex() for e in entries
            ]

        serial = bits()
        with worker_pool():
            assert bits() == serial
        assert multiprocessing.active_children() == []

    def test_results_in_job_order(self):
        # many short jobs: a lost update of the counter drops or repeats one
        jobs = [(float(k * k),) for k in range(200)]
        with worker_pool():
            assert optimizers.pool_map(math.sqrt, jobs) == list(range(200))
        assert multiprocessing.active_children() == []


class TestSampling:
    def test_perfect_recovery_means_one_trial(self):
        params = QaoaParams((math.pi / 4,), (math.pi / 4,))
        report = sample_until_optimum(LinearIsing((1.0,)), params, runs=200, seed=3)
        assert report.mean_trials == 1.0
        assert report.ci95_halfwidth == 0.0
        assert report.true_prob == pytest.approx(1.0, abs=1e-12)

    def test_probability_rounded_above_one_means_one_trial(self):
        # the exact success is 1, but the product formula rounds it to 1 + 2 ulp
        params = QaoaParams((0.7853981633956807,), (0.785398163396736,))
        report = sample_until_optimum(LinearIsing((1.0,)), params, runs=200, seed=3)
        assert report.true_prob > 1.0
        assert report.mean_trials == 1.0
        assert report.ci95_halfwidth == 0.0

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

    @pytest.mark.parametrize(
        "model, gamma, beta, runs, seed, prob",
        [
            # p = 2.3e-4 on 40 qubits: 20000 runs, about 3.5e9 qubit draws if simulated
            (replicate(LinearIsing((1.0, 2.0)), 20), 0.3, 0.5, 20000, 1, 2.3e-4),
            (LinearIsing((1.0, 2.0)), 0.4728, math.pi / 4, 10000, 11, 0.882),
            # (1..7) x 10 at its own p = 1 optimum: 70 qubits
            (replicate(consecutive(7), 10), 2.9836469, math.pi * 3 / 4, 200, 1, 1.18e-4),
        ],
        ids=["wide", "dense", "replicated-chain"],
    )
    def test_law_draw_regime_bounds_uniform_draws(self, model, gamma, beta, runs, seed, prob):
        # every request, dense or sparse, draws its counts from the geometric law alone
        report = sample_until_optimum(model, QaoaParams((gamma,), (beta,)), runs=runs, seed=seed)
        assert report.true_prob == pytest.approx(prob, rel=0.01)
        law = philox(seed, SAMPLER_WORD).geometric(report.true_prob, runs)
        assert report.mean_trials == law.mean()

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

    def test_per_preparation_memory_is_bounded(self):
        runs = 20000
        model = replicate(LinearIsing((1.0, 2.0)), 18)
        params = QaoaParams((0.4728,), (math.pi / 4,))
        tracemalloc.start()
        try:
            sample_until_optimum(model, params, runs=runs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * experiments._SAMPLING_BLOCK * 8 + 64 * runs

    def test_dense_request_report_holds_one_count_array(self):
        # the confidence half-width sums block by block; counts.std would
        # build a float64 copy of every deviation, 16 * runs bytes in all
        runs = 1 << 22
        tracemalloc.start()
        try:
            report = sample_until_optimum(LinearIsing((1.0,)), QaoaParams.zero(1), runs, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.mean_trials == pytest.approx(2.0, rel=0.01)
        assert peak <= 12 * runs + 4 * experiments._SAMPLING_BLOCK * 8

    def test_halfwidth_equals_the_sample_deviation(self):
        counts = np.random.default_rng(41).geometric(0.01, 3 * experiments._SAMPLING_BLOCK + 5)
        mean = float(counts.mean())
        expected = 1.96 * float(counts.std(ddof=1)) / math.sqrt(counts.size)
        assert experiments._ci95_halfwidth(counts, mean) == pytest.approx(expected, rel=1e-12)
        assert experiments._ci95_halfwidth(counts[:1], float(counts[0])) == 0.0

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
        # serial: a worker process would run the real cells
        monkeypatch.setattr(optimizers, "usable_cpus", lambda: 1)
        assert cli.main(["scan", "--p", "2", "--m-max", "4"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert out.count("anomaly=true") == 2
        assert "# anomalies=2" in out

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_uses_same_seeds_as_tables(self, p):
        specs = default_portfolio(seed=3, budget=200, restarts=1)
        table = build_tables(3, 3, specs)
        entries = conjecture_scan(p, 3, specs)
        assert [e.best_prob.hex() for e in entries] == [
            table.prob_at(m, p).hex() for m in (1, 2, 3)
        ]

    def test_one_cell_loop_visits(self, monkeypatch):
        # the table visits its cells in row order; the scan visits column p once each
        visits = []

        def record(m, p, specs):
            visits.append((m, p))
            return 0.5

        monkeypatch.setattr(experiments, "_best_at_cell", record)
        build_tables(3, 2, LEAN_SPECS)
        assert visits == [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)]
        visits.clear()
        conjecture_scan(2, 3, LEAN_SPECS)
        assert visits == [(1, 2), (2, 2), (3, 2)]

    def test_validation(self):
        with pytest.raises(ValueError):
            conjecture_scan(0, 3, LEAN_SPECS)

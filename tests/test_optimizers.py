"""Optimizer determinism, budget accounting, and landmark values.

Most tests run at reduced budgets; the full-budget numbers live in the
acceptance suite.
"""

import math
import multiprocessing
import os
import time
from concurrent.futures import Future, ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from qaoa_linear import optimizers
from qaoa_linear.errors import ResourceLimitError
from qaoa_linear.ising import LinearIsing, consecutive
from qaoa_linear.optimizers import (
    _NM_COEFFS,
    _NM_COLLAPSE,
    _NM_EDGE,
    MAX_RESTARTS,
    METHODS,
    OptimizerSpec,
    _box,
    _de_draws,
    _make_rng,
    _nelder_mead,
    _place,
    _run_lockstep,
    default_portfolio,
    gamma_period,
    maximize,
    pool_map,
    portfolio_maximize,
    worker_pool,
)
from qaoa_linear.probability import QaoaParams, exact_p1_m2_max, prob_opt, qubit_kernel

LEAN = dict(budget=2000, restarts=2)


class TestSpecs:
    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            OptimizerSpec("newton")

    @pytest.mark.parametrize("field,value", [("budget", 0), ("restarts", 0), ("budget", 2.0)])
    def test_bad_numbers(self, field, value):
        kwargs = {"method": "random-search", field: value}
        with pytest.raises(ValueError):
            OptimizerSpec(**kwargs)

    def test_restarts_capped(self):
        # builds a spec only: maximize would make one generator per restart
        assert OptimizerSpec("random-search", restarts=MAX_RESTARTS).restarts == MAX_RESTARTS
        with pytest.raises(ResourceLimitError, match="MAX_RESTARTS"):
            OptimizerSpec("random-search", restarts=MAX_RESTARTS + 1)

    def test_default_portfolio_covers_all_methods(self):
        specs = default_portfolio(seed=5, budget=100, restarts=2)
        assert tuple(s.method for s in specs) == METHODS
        assert all(s.seed == 5 and s.budget == 100 and s.restarts == 2 for s in specs)


class TestGammaPeriod:
    def test_integer_coefficients(self):
        assert gamma_period(consecutive(3)) == pytest.approx(math.pi)

    def test_common_factor_shrinks_period(self):
        assert gamma_period(LinearIsing((2.0, 4.0))) == pytest.approx(math.pi / 2)

    def test_rational_coefficients(self):
        assert gamma_period(LinearIsing((0.5, 1.5))) == pytest.approx(2 * math.pi)

    def test_irrational_unknown(self):
        assert gamma_period(LinearIsing((math.sqrt(2),))) is None


class TestSingleCoefficientRecovery:
    # perfect recovery exists at (pi/4, pi/4); every structured method
    # finds it fast
    @pytest.mark.parametrize(
        "method", ["nelder-mead", "differential-evolution", "simulated-annealing"]
    )
    def test_structured_methods_reach_one(self, method):
        result = maximize(LinearIsing((1.0,)), 1, OptimizerSpec(method, **LEAN))
        assert result.best_value >= 1.0 - 1e-6

    @pytest.mark.parametrize("method", ["nelder-mead", "simulated-annealing"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_point_methods_reach_one_at_500(self, method, seed):
        # one NM descent or one SA cooling cycle fits in 500 evaluations;
        # DE needs ~2000 (its population warm-up dominates small budgets)
        result = maximize(
            LinearIsing((1.0,)),
            1,
            OptimizerSpec(method, budget=500, restarts=1, seed=seed),
        )
        assert result.best_value >= 1.0 - 1e-6

    def test_random_search_gets_close(self):
        # uniform sampling lands near but not on the peak; the 1e-6 band
        # of the structured methods is out of its statistical reach
        result = maximize(
            LinearIsing((1.0,)), 1, OptimizerSpec("random-search", budget=20000, restarts=8)
        )
        assert result.best_value >= 1.0 - 1e-3


class TestLandmarks:
    def test_m2_p1_reaches_cubic_root(self):
        result = portfolio_maximize(
            LinearIsing((1.0, 2.0)), 1, default_portfolio(seed=1, **LEAN)
        )
        assert result.best_value == pytest.approx(exact_p1_m2_max(), abs=1e-3)

    def test_m2_p2_perfect(self):
        result = portfolio_maximize(
            LinearIsing((1.0, 2.0)), 2, default_portfolio(seed=1, budget=4000, restarts=2)
        )
        assert result.best_value == pytest.approx(1.0, abs=1e-4)

    def test_m3_p2_portfolio(self):
        result = portfolio_maximize(consecutive(3), 2, default_portfolio(seed=1))
        assert result.best_value == pytest.approx(0.944816, abs=2e-3)


class TestDeterminism:
    @pytest.mark.parametrize("method", METHODS)
    def test_bitwise_reproducible(self, method):
        spec = OptimizerSpec(method, budget=800, seed=42, restarts=2)
        a = maximize(LinearIsing((1.0, 2.0)), 1, spec)
        b = maximize(LinearIsing((1.0, 2.0)), 1, spec)
        assert a == b

    def test_seed_changes_trajectory(self):
        model = LinearIsing((1.0, 2.0, 3.0))
        a = maximize(model, 2, OptimizerSpec("random-search", budget=500, seed=1))
        b = maximize(model, 2, OptimizerSpec("random-search", budget=500, seed=2))
        assert a.best_gammas != b.best_gammas


class TestBudgets:
    @pytest.mark.parametrize("method", METHODS)
    def test_monotone_in_budget(self, method):
        model = LinearIsing((1.0, 2.0))
        values = []
        for budget in (300, 1200, 4800):
            spec = OptimizerSpec(method, budget=budget, seed=7, restarts=2)
            values.append(maximize(model, 1, spec).best_value)
        assert values[0] <= values[1] <= values[2]

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("p,budget", [(1, 1), (1, 7), (1, 29), (1, 777), (3, 50)])
    def test_evaluations_capped(self, method, p, budget, monkeypatch):
        # Budgets that cut Nelder-Mead's start simplex, a batch or DE's
        # population (30 at p = 1, 90 at p = 3): every restart spends all
        # of its budget, counted as rows the objective actually scores.
        rows = []

        def counting_kernel(model):
            kernel = qubit_kernel(model)

            def counted(gammas, betas):
                rows.append(len(gammas))
                return kernel(gammas, betas)

            return counted

        monkeypatch.setattr(optimizers, "qubit_kernel", counting_kernel)
        spec = OptimizerSpec(method, budget=budget, seed=3, restarts=3)
        result = maximize(LinearIsing((1.0, 2.0)), p, spec)
        assert result.evaluations_used == sum(rows) == budget * 3

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("p", [1, 3])
    def test_budgets_score_a_prefix(self, method, p, monkeypatch):
        # Budgets that cut Nelder-Mead's simplex, a batch, DE's population
        # (30 at p = 1, 90 at p = 3) or a later generation score exactly
        # the first points that a larger budget scores.
        def scored_points(budget):
            points = []

            def recording_kernel(model):
                kernel = qubit_kernel(model)

                def recorded(gammas, betas):
                    points.append(np.hstack((gammas, betas)))
                    return kernel(gammas, betas)

                return recorded

            monkeypatch.setattr(optimizers, "qubit_kernel", recording_kernel)
            spec = OptimizerSpec(method, budget=budget, seed=3, restarts=1)
            maximize(LinearIsing((1.0, 2.0)), p, spec)
            return np.vstack(points)

        longest = scored_points(1000)
        assert len(longest) == 1000
        for budget in (1, 7, 29, 45, 91, 100, 777):
            assert np.array_equal(scored_points(budget), longest[:budget]), budget

    def test_tiny_budget_still_returns(self):
        for method in METHODS:
            spec = OptimizerSpec(method, budget=1, seed=1, restarts=1)
            result = maximize(LinearIsing((1.0,)), 1, spec)
            assert 0.0 <= result.best_value <= 1.0
            assert result.evaluations_used == 1


class TestResultContract:
    @pytest.mark.parametrize("method", METHODS)
    def test_soundness_reevaluation(self, method):
        # the reported value is the one the search measured, which is prob_opt's
        model = LinearIsing((1.0, -2.0, 3.0))
        result = maximize(model, 2, OptimizerSpec(method, budget=600, seed=5))
        again = prob_opt(model, QaoaParams(result.best_gammas, result.best_betas))
        assert again == result.best_value

    @pytest.mark.filterwarnings("error")
    def test_nelder_mead_past_the_box_is_silent(self):
        # pi * 5e307 is finite, but reflected points with gamma past pi overflow
        spec = OptimizerSpec("nelder-mead", budget=2000, seed=1, restarts=4)
        result = maximize(LinearIsing((5e307, 3.0)), 1, spec)
        assert result.best_value == pytest.approx(0.99589, abs=1e-5)

    def test_never_exceeds_one(self):
        for seed in range(5):
            result = maximize(
                LinearIsing((1.0,)), 1, OptimizerSpec("nelder-mead", budget=2000, seed=seed)
            )
            assert result.best_value <= 1.0 + 1e-12

    def test_layer_count_validated(self):
        with pytest.raises(ValueError):
            maximize(LinearIsing((1.0,)), 0, OptimizerSpec("random-search"))


class TestPortfolio:
    def test_single_spec_matches_maximize(self):
        spec = OptimizerSpec("simulated-annealing", budget=900, seed=11)
        alone = maximize(LinearIsing((1.0, 2.0)), 1, spec)
        wrapped = portfolio_maximize(LinearIsing((1.0, 2.0)), 1, [spec])
        assert wrapped.best_value == alone.best_value
        assert wrapped.best_gammas == alone.best_gammas

    def test_dominates_each_member(self):
        model = consecutive(3)
        specs = default_portfolio(seed=2, budget=1000, restarts=2)
        combined = portfolio_maximize(model, 1, specs)
        for spec in specs:
            assert combined.best_value >= maximize(model, 1, spec).best_value

    def test_total_evaluations_summed(self):
        specs = default_portfolio(seed=2, budget=500, restarts=2)
        combined = portfolio_maximize(LinearIsing((1.0,)), 1, specs)
        assert combined.evaluations_used == sum(
            maximize(LinearIsing((1.0,)), 1, s).evaluations_used for s in specs
        )

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            portfolio_maximize(LinearIsing((1.0,)), 1, [])


# Recorded before Nelder-Mead and annealing ran their restarts in lockstep,
# when each restart ran alone through a scalar objective; the
# differential-evolution rows were recorded again when its draws moved to
# numpy's public integers and random calls, one whole generation at a
# time.  (method, best_value.hex(), best_gammas, best_betas,
# evaluations_used).  At budget 116 on (1, 2) and 323 on the mixed-sign
# model, Nelder-Mead's first restart ends inside a shrink step.
GOLDEN = {
    (LinearIsing((1.0, 2.0)), 1, OptimizerSpec("nelder-mead", 116, 1, 2)): (
        ("nelder-mead", "0x1.c3c7f2b013d65p-1", (0.47280413626006224,), (3.9269908122336643,), 232),
        ("differential-evolution", "0x1.9085007896b4ep-1", (0.34280936738231926,), (0.6489158215465167,), 232),
        ("simulated-annealing", "0x1.c35ffd5ca20a3p-1", (0.48064834409458235,), (0.8029877522768429,), 232),
        ("random-search", "0x1.aafff12bb1ad8p-1", (0.3779323290203087,), (0.8590177567815581,), 232),
    ),
    (consecutive(5), 3, OptimizerSpec("nelder-mead", 600, 2, 3)): (
        ("nelder-mead", "0x1.a8c4317feaec2p-1", (1.5910463318964283, 1.3220358861155714, 2.661686045899935), (2.61509054635644, 0.94950543603409, 1.8981477511194247), 1800),
        ("differential-evolution", "0x1.663bb30615b84p-1", (0.182158102599221, 0.3603697602473039, 0.13501727490746876), (1.1356863933605883, 1.9854609912057732, 1.5095945912004292), 1800),
        ("simulated-annealing", "0x1.27d1fca77e2abp-1", (0.9740772583238309, 1.949360274979244, 2.098763537645181), (0.0066291467145687, 2.3410758132766407, 3.0609167426796318), 1800),
        ("random-search", "0x1.7768041f79dc8p-1", (2.9577627231589867, 0.11841220830247137, 0.3543618760588298), (2.3654834231741773, 0.1050574717867171, 0.1594931484878241), 1800),
    ),
    (LinearIsing((1.0, -2.5, 0.75, 3.0)), 2, OptimizerSpec("nelder-mead", 323, 1, 2)): (
        ("nelder-mead", "0x1.8ed4fe16938dfp-1", (1.3201902663192469, 13.528342934395628), (2.2144988633171128, 1.9411143887122488), 646),
        ("differential-evolution", "0x1.1da6aa203d7b4p-1", (3.2330509356556383, 9.644010477558652), (3.141592653589793, 0.8260030468251519), 646),
        ("simulated-annealing", "0x1.33b5a774e6c08p-1", (5.845464965688453, 7.105016838678669), (0.644133494686295, 0.979524425057042), 646),
        ("random-search", "0x1.0c4d7de82e0d2p-1", (0.32124789710967055, 11.115151177909082), (0.9021091737497016, 0.038870765508987395), 646),
    ),
}


@pytest.fixture
def two_cpus(monkeypatch):
    """worker_pool() is allowed whatever the host's CPU count."""
    monkeypatch.setattr(optimizers, "usable_cpus", lambda: 2)


class TestGoldenTrajectories:
    """Each recorded result, serial and with the four methods mapped over
    two processes."""

    @pytest.mark.parametrize("cell", list(GOLDEN), ids=["m2p1", "m5p3", "mixed-p2"])
    def test_every_method_repeats_recorded_result(self, cell, two_cpus):
        model, p, base_spec = cell
        specs = [
            OptimizerSpec(row[0], base_spec.budget, base_spec.seed, base_spec.restarts)
            for row in GOLDEN[cell]
        ]
        serial = [maximize(model, p, spec) for spec in specs]
        with worker_pool():
            split = pool_map(maximize, [(model, p, spec) for spec in specs])
        assert multiprocessing.active_children() == []
        for results in (serial, split):
            for result, (method, value_hex, gammas, betas, used) in zip(results, GOLDEN[cell]):
                assert (result.best_value.hex(), result.best_gammas, result.best_betas) == (
                    value_hex,
                    gammas,
                    betas,
                ), method
                assert (result.method, result.evaluations_used) == (method, used)

    def test_restart_ties_keep_the_earliest(self):
        # several restarts reach the same best bits; the first one wins
        spec = OptimizerSpec("nelder-mead", budget=2000, seed=1, restarts=8)
        result = maximize(LinearIsing((1.0,)), 1, spec)
        assert result.best_value.hex() == "0x1.0000000000001p+0"
        assert (result.best_gammas, result.best_betas) == (
            (2.3561944909280665,),
            (2.3561944874909324,),
        )
        assert result.evaluations_used == 16000


def _array_nelder_mead(rng, hi):
    """The array form of optimizers._nelder_mead, kept as its reference.

    An endless generator: yields each point to score and receives its
    value.  The caller stops it after its budget.
    """
    dim = hi.size
    refl, expa, contr, shrink = _NM_COEFFS
    while True:
        x0 = rng.uniform(0.0, hi)
        verts = x0 + np.vstack((np.zeros(dim), _NM_EDGE * np.eye(dim)))
        vals = np.empty(dim + 1)
        for i in range(dim + 1):
            vals[i] = yield verts[i]
        while True:
            order = np.argsort(-vals, kind="stable")
            verts = verts[order]
            vals = vals[order]
            if np.abs(verts - verts[0]).max() < _NM_COLLAPSE:
                break  # collapsed: reseed a fresh simplex
            centroid = np.add.reduce(verts[:-1], axis=0) / dim  # = .mean(axis=0), same bits
            span = centroid - verts[-1]
            xr = centroid + refl * span
            fr = yield xr
            if fr > vals[0]:
                xe = centroid + expa * span
                fe = yield xe
                if fe > fr:
                    verts[-1], vals[-1] = xe, fe
                else:
                    verts[-1], vals[-1] = xr, fr
            elif fr > vals[-2]:
                verts[-1], vals[-1] = xr, fr
            else:
                if fr > vals[-1]:
                    xc = centroid + contr * refl * span
                else:
                    xc = centroid - contr * span
                fc = yield xc
                if fc > max(fr, vals[-1]):
                    verts[-1], vals[-1] = xc, fc
                else:
                    verts[1:] = verts[0] + shrink * (verts[1:] - verts[0])
                    for i in range(1, dim + 1):
                        vals[i] = yield verts[i]


class TestNelderMeadReference:
    """The list form of Nelder-Mead scores the same points as the array
    form ranked by a stable sort, bit for bit, through ties, NaN values,
    collapses and shrinks."""

    # (1,)*4 ties often, (1,) collapses well inside 1200 steps, (5e307, 3)
    # reflects to points that score NaN, and sqrt(2) has no gamma period
    @pytest.mark.parametrize(
        "coeffs",
        [(1.0,) * 4, (1.0,), (5e307, 3.0), (math.sqrt(2), 1.0)],
        ids=["ties", "one", "nan", "irrational"],
    )
    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    @pytest.mark.parametrize("restarts", [1, 3, 8])
    def test_same_bits_as_the_array_form(self, coeffs, p, restarts):
        model = LinearIsing(coeffs)
        hi = _box(model, p)
        kernel = qubit_kernel(model)

        def run(method):
            scored = []

            def objective(xs):
                scored.append(xs)
                return np.multiply.reduce(kernel(xs[:, :p], xs[:, p:]), axis=0)

            rngs = [_make_rng(restarts, 0, r) for r in range(restarts)]
            with np.errstate(over="ignore", invalid="ignore"):
                values, points = _run_lockstep(method, objective, rngs, hi, 1200)
            return values.tobytes(), points.tobytes(), np.vstack(scored).tobytes()

        # a shorter budget only stops sending, so its scored rows are a
        # prefix of these, and its best values come from the same rows
        assert run(_nelder_mead) == run(_array_nelder_mead)

    def test_place_gives_the_stable_order(self):
        # ties, 0.0 beside -0.0 and NaN, placed one at a time; the vertex
        # is its arrival index, so the order of equal values is checked too
        pool = [0.0, -0.0, math.nan, 1.0, 0.5, -1.0, math.inf, -math.inf]
        rng = np.random.default_rng(34)
        for _ in range(500):
            arrivals = [pool[i] for i in rng.integers(len(pool), size=rng.integers(1, 12))]
            verts, vals = [], []
            for k, fx in enumerate(arrivals):
                _place(verts, vals, k, fx)
            order = np.argsort(-np.array(arrivals), kind="stable").tolist()
            assert verts == order, arrivals
            assert np.array(vals).tobytes() == np.array(arrivals)[order].tobytes()

    @pytest.mark.parametrize("coeffs", [(1.0,) * 4, (5e307, 3.0)], ids=["ties", "nan"])
    def test_nelder_mead_never_calls_numpys_sort(self, monkeypatch, coeffs):
        def refuse(*args, **kwargs):
            raise AssertionError("Nelder-Mead called a numpy sort")

        monkeypatch.setattr(np, "argsort", refuse)
        monkeypatch.setattr(np, "sort", refuse)
        spec = OptimizerSpec("nelder-mead", budget=1200, seed=3, restarts=3)
        assert maximize(LinearIsing(coeffs), 2, spec).evaluations_used == 3600


class TestWorkerPool:
    """A pool starts processes only for a map that splits, and a bad
    input is refused before anything is submitted."""

    def test_one_spec_portfolio_starts_no_process(self, monkeypatch, two_cpus):
        monkeypatch.setattr(ProcessPoolExecutor, "submit", _no_split)
        spec = OptimizerSpec("random-search", budget=100, seed=3, restarts=4)
        with worker_pool():
            portfolio_maximize(LinearIsing((1.0, 2.0)), 1, [spec])

    def test_one_usable_cpu_starts_no_process(self, monkeypatch):
        monkeypatch.setattr(optimizers, "usable_cpus", lambda: 1)
        monkeypatch.setattr(ProcessPoolExecutor, "submit", _no_split)
        specs = default_portfolio(seed=4, budget=100, restarts=2)
        with worker_pool():
            portfolio_maximize(LinearIsing((1.0, 2.0)), 1, specs)

    def test_serial_outside_any_pool(self, monkeypatch):
        monkeypatch.setattr(ProcessPoolExecutor, "submit", _no_split)
        specs = default_portfolio(seed=4, budget=200, restarts=4)
        portfolio_maximize(LinearIsing((1.0, 2.0)), 1, specs)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "model,p",
        # pi * 1e308 overflows: the HUGE model of test_inputs.py
        [(LinearIsing((1.0, 2.0)), 0), (LinearIsing((1e308, 3.0)), 1)],
        ids=["p0", "huge-phase"],
    )
    def test_bad_input_refused_before_any_submit(self, monkeypatch, two_cpus, model, p):
        monkeypatch.setattr(ProcessPoolExecutor, "submit", _no_split)
        specs = default_portfolio(seed=4, budget=100, restarts=2)
        with worker_pool():
            with pytest.raises(ValueError):
                portfolio_maximize(model, p, specs)
        assert multiprocessing.active_children() == []


class TestPoolMap:
    """pool_map is [fn(*job) for job in jobs], wherever each job runs."""

    @pytest.mark.parametrize(
        "cpus,jobs,drains", [(2, 1, 0), (3, 2, 1), (9, 7, 6)], ids=["2-1", "3-2", "9-7"]
    )
    def test_one_drain_per_process_beside_the_caller(self, monkeypatch, cpus, jobs, drains):
        # min(cpus, jobs) processes; each spied drain finds nothing to take,
        # so the caller runs every job and no process starts
        submitted = []

        def spy(self, fn, *args):
            submitted.append(fn)
            future = Future()
            future.set_result({})
            return future

        monkeypatch.setattr(optimizers, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(ProcessPoolExecutor, "submit", spy)
        with worker_pool():
            assert pool_map(math.sqrt, [(4.0,)] * jobs) == [2.0] * jobs
        assert submitted == [optimizers._drain] * drains
        assert multiprocessing.active_children() == []

    def test_results_in_job_order(self, two_cpus):
        with worker_pool():
            assert pool_map(math.sqrt, [(float(k * k),) for k in range(6)]) == list(range(6))
            assert multiprocessing.active_children() == []
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "jobs",
        [[(-1.0,), (4.0,), (9.0,)], [(4.0,), (-1.0,), (9.0,)], [(4.0,), (9.0,), (-1.0,)]],
        ids=["caller", "second", "last"],
    )
    def test_error_propagates_and_reaps(self, two_cpus, jobs):
        with pytest.raises(ValueError):
            with worker_pool():
                pool_map(math.sqrt, jobs)
        assert multiprocessing.active_children() == []

    def test_error_stops_every_worker_after_its_job(self, two_cpus, tmp_path):
        # the worker takes job 1 from the front; the caller's job 0 raises
        # once job 1 has started, and no job starts after that
        with pytest.raises(RuntimeError, match="job 0"):
            with worker_pool():
                pool_map(_record, [(str(tmp_path), k) for k in range(6)])
        ran = {int(path.name): int(path.read_text()) for path in tmp_path.iterdir()}
        assert sorted(ran) == [0, 1]
        assert [k for k, pid in ran.items() if pid != os.getpid()] == [1]
        assert multiprocessing.active_children() == []

    def test_a_map_after_an_error_runs_only_its_own_jobs(self, two_cpus, tmp_path):
        # the first map's worker is still in job 1 when its error reaches
        # the caller; no job of that map may run on the second map's counter
        first, second = tmp_path / "first", tmp_path / "second"
        first.mkdir()
        second.mkdir()
        with worker_pool():
            with pytest.raises(RuntimeError, match="job 0"):
                pool_map(_record, [(str(first), k) for k in range(6)])
            assert multiprocessing.active_children() == []
            assert pool_map(_record, [(str(second), k) for k in range(1, 5)]) == [None] * 4
        assert sorted(int(path.name) for path in first.iterdir()) == [0, 1]
        assert sorted(int(path.name) for path in second.iterdir()) == [1, 2, 3, 4]
        assert multiprocessing.active_children() == []


def _record(directory, k):
    """Job k: records this process's id under directory as the file k.
    Job 0 waits until another job has started, then raises."""
    folder = Path(directory)
    (folder / str(k)).write_text(str(os.getpid()))
    if k == 0:
        deadline = time.monotonic() + 60.0
        while len(list(folder.iterdir())) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        raise RuntimeError("job 0")
    time.sleep(0.5)


def _no_split(*args):
    raise AssertionError("a map split over the pool")


class TestDifferentialEvolutionDraws:
    """rand/1/bin needs three distinct donors other than the parent and
    at least one crossed coordinate per individual, nothing more."""

    @pytest.mark.parametrize("dim", range(2, 11))
    @pytest.mark.parametrize("seed", [1, 7, 2**40 + 3])
    def test_generations_hold_distinct_donors(self, seed, dim):
        rng = _make_rng(seed, 1, dim)
        pop_size = 15 * dim
        rows = np.arange(pop_size)[:, None]
        for _ in range(4):
            idx, mask = _de_draws(rng, pop_size, dim)
            assert idx.shape == (pop_size, 3) and mask.shape == (pop_size, dim)
            assert idx.min() >= 0 and idx.max() < pop_size - 1
            assert (idx[:, 0] != idx[:, 1]).all()
            assert (idx[:, 0] != idx[:, 2]).all()
            assert (idx[:, 1] != idx[:, 2]).all()
            donors = idx + (idx >= rows)  # the parent shift of _differential_evolution
            assert (donors != rows).all() and donors.max() < pop_size
            assert mask.any(axis=1).all()

    def test_ordered_triples_uniform(self):
        # pop_size 5 leaves 4 candidates: 24 ordered triples, each with
        # probability 1/24 per row; 6 standard deviations either way
        rng = _make_rng(3, 1, 0)
        idx = np.vstack([_de_draws(rng, 5, 2)[0] for _ in range(20000)])
        counts = np.bincount(idx @ np.array([16, 4, 1]), minlength=64)
        counts = counts[counts > 0]
        assert counts.size == 24
        rows, share = len(idx), 1 / 24
        spread = 6 * math.sqrt(rows * share * (1 - share))
        assert np.abs(counts - rows * share).max() < spread

"""Optimizer determinism, budget accounting, and landmark values.

Most tests run at reduced budgets; the full-budget numbers live in the
acceptance suite.
"""

import math

import numpy as np
import pytest

from qaoa_linear import optimizers
from qaoa_linear.ising import LinearIsing, consecutive
from qaoa_linear.optimizers import (
    METHODS,
    OptimizerSpec,
    _de_draws,
    _de_loop_draws,
    _make_rng,
    default_portfolio,
    gamma_period,
    maximize,
    portfolio_maximize,
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
# when each restart ran alone through a scalar objective.  (method,
# best_value.hex(), best_gammas, best_betas, evaluations_used).  At budget
# 116 on (1, 2) and 323 on the mixed-sign model, Nelder-Mead's first
# restart ends inside a shrink step.
GOLDEN = {
    (LinearIsing((1.0, 2.0)), 1, OptimizerSpec("nelder-mead", 116, 1, 2)): (
        ("nelder-mead", "0x1.c3c7f2b013d65p-1", (0.47280413626006224,), (3.9269908122336643,), 232),
        ("differential-evolution", "0x1.c09d3427223bep-1", (0.508963390345914,), (0.7954409285520831,), 232),
        ("simulated-annealing", "0x1.c35ffd5ca20a3p-1", (0.48064834409458235,), (0.8029877522768429,), 232),
        ("random-search", "0x1.aafff12bb1ad8p-1", (0.3779323290203087,), (0.8590177567815581,), 232),
    ),
    (consecutive(5), 3, OptimizerSpec("nelder-mead", 600, 2, 3)): (
        ("nelder-mead", "0x1.a8c4317feaec2p-1", (1.5910463318964283, 1.3220358861155714, 2.661686045899935), (2.61509054635644, 0.94950543603409, 1.8981477511194247), 1800),
        ("differential-evolution", "0x1.fe9b908372412p-2", (2.9652686969546553, 3.141592653589793, 0.0), (0.0, 3.141592653589793, 2.281093186069403), 1800),
        ("simulated-annealing", "0x1.27d1fca77e2abp-1", (0.9740772583238309, 1.949360274979244, 2.098763537645181), (0.0066291467145687, 2.3410758132766407, 3.0609167426796318), 1800),
        ("random-search", "0x1.7768041f79dc8p-1", (2.9577627231589867, 0.11841220830247137, 0.3543618760588298), (2.3654834231741773, 0.1050574717867171, 0.1594931484878241), 1800),
    ),
    (LinearIsing((1.0, -2.5, 0.75, 3.0)), 2, OptimizerSpec("nelder-mead", 323, 1, 2)): (
        ("nelder-mead", "0x1.8ed4fe16938dfp-1", (1.3201902663192469, 13.528342934395628), (2.2144988633171128, 1.9411143887122488), 646),
        ("differential-evolution", "0x1.ea44e164645c0p-2", (6.827417019895038, 7.109001628259), (1.7834429754381975, 0.6314837744269164), 646),
        ("simulated-annealing", "0x1.33b5a774e6c08p-1", (5.845464965688453, 7.105016838678669), (0.644133494686295, 0.979524425057042), 646),
        ("random-search", "0x1.0c4d7de82e0d2p-1", (0.32124789710967055, 11.115151177909082), (0.9021091737497016, 0.038870765508987395), 646),
    ),
}


class TestGoldenTrajectories:
    @pytest.mark.parametrize("cell", list(GOLDEN), ids=["m2p1", "m5p3", "mixed-p2"])
    def test_every_method_repeats_recorded_result(self, cell):
        model, p, base_spec = cell
        for method, value_hex, gammas, betas, used in GOLDEN[cell]:
            spec = OptimizerSpec(method, base_spec.budget, base_spec.seed, base_spec.restarts)
            result = maximize(model, p, spec)
            assert (result.best_value.hex(), result.best_gammas, result.best_betas) == (
                value_hex,
                gammas,
                betas,
            ), method
            assert result.evaluations_used == used, method

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


def _philox_state(rng):
    state = rng.bit_generator.state
    return (
        tuple(state["state"]["counter"]),
        tuple(state["state"]["key"]),
        tuple(state["buffer"]),
        state["buffer_pos"],
        state["has_uint32"],
        state["uinteger"],
    )


class TestDifferentialEvolutionDraws:
    """The decoded draws against the per-individual loop they replace.

    _de_draws reads raw Philox words the way numpy's choice, random and
    integers consume them; together with the golden trajectories these
    cases pin the numpy internals that decoding relies on.
    """

    @staticmethod
    def assert_same_draws(rng, ref, dim, sizes):
        pop_size = 15 * dim
        for m in sizes:
            idx, mask = _de_draws(rng, m, pop_size, dim)
            ref_idx, ref_mask = _de_loop_draws(ref, m, pop_size, dim)
            assert np.array_equal(idx, ref_idx)
            assert np.array_equal(mask, ref_mask)
            assert _philox_state(rng) == _philox_state(ref)
        assert rng.integers(1000) == ref.integers(1000)
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("dim", range(2, 11))
    @pytest.mark.parametrize("seed", [1, 7, 2**40 + 3])
    def test_generations_equal_the_loop(self, seed, dim):
        rng, ref = (_make_rng(seed, 1, dim) for _ in range(2))
        full = 15 * dim
        self.assert_same_draws(rng, ref, dim, [full] * 4 + [full // 3 + 1])

    def test_patched_rejection_takes_the_loop(self, monkeypatch):
        calls = []

        def rejects(leftover, bounds):
            calls.append(len(leftover))
            return True

        monkeypatch.setattr(optimizers, "_lemire_rejects", rejects)
        rng, ref = (_make_rng(5, 1, 0) for _ in range(2))
        self.assert_same_draws(rng, ref, 4, [60, 60, 17])
        assert calls == [60, 60, 17]

    def test_rejected_draw_takes_the_loop(self):
        # A zero word makes the first Floyd draw (bound 27 at dim 2)
        # redraw; the extra 32-bit draw leaves the buffer odd afterwards.
        rng, ref = (_make_rng(9, 1, 0) for _ in range(2))
        for gen in (rng, ref):
            state = gen.bit_generator.state
            state["buffer"] = np.array([0, 1 << 40, 3 << 50, 7], dtype=np.uint64)
            state["buffer_pos"] = 0
            gen.bit_generator.state = state
        self.assert_same_draws(rng, ref, 2, [30, 30, 11])

    @pytest.mark.parametrize("dim", [2, 5])
    def test_odd_buffer_takes_the_loop(self, dim):
        rng, ref = (_make_rng(11, 1, dim) for _ in range(2))
        assert rng.integers(5) == ref.integers(5)  # leaves half a word buffered
        assert rng.bit_generator.state["has_uint32"] == 1
        self.assert_same_draws(rng, ref, dim, [15 * dim] * 3)

"""The three workloads: inputs, the timed section and the checks.

A workload is built from the run's seed.  `run()` is the timed section
and calls only the program, always through module attributes, so that the
traced process's wrappers see the calls.  `check()` runs after the timed section against the own oracle or
a property of the method.  Every round runs the same operations, so a
run attempts whole rounds of the same checks.  `own_s` is the time the
constructor spent in the own oracle, which set-up does not count.
"""

from __future__ import annotations

import contextlib
import io
import math
import time
from dataclasses import replace

import numpy as np

import checks
import oracle
import qaoa_linear.cli as cli
import qaoa_linear.experiments as experiments
import qaoa_linear.ising as ising
import qaoa_linear.optimizers as optimizers
import qaoa_linear.probability as probability
import qaoa_linear.statevector as statevector

# The optimizer seed of the acceptance suite.
ACCEPTANCE_SEED = 1


def _params(gammas, betas):
    return probability.QaoaParams(tuple(float(g) for g in gammas), tuple(float(b) for b in betas))


def _signed(coeffs, rng) -> tuple[float, ...]:
    return tuple(float(a) * s for a, s in zip(coeffs, rng.choice([-1.0, 1.0], len(coeffs))))


class Table:
    """`table --M 7 --P 3 --seed <run seed>` through cli.main, twice, below the default budget."""

    M, P, BUDGET = 7, 3, 800
    own_s = 0.0

    def __init__(self, seed: int):
        self.argv = [
            "table", "--M", str(self.M), "--P", str(self.P),
            "--budget", str(self.BUDGET), "--seed", str(seed),
        ]
        self._p1_best = None

    def run(self):
        outputs = []
        for _ in range(2):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(self.argv))
            if code != 0:
                raise RuntimeError(f"qaoa-linear {' '.join(self.argv)} exited {code}")
            outputs.append(buf.getvalue())
        return outputs

    def check(self, outputs):
        if self._p1_best is None:
            self._p1_best = {m: oracle.p1_max(range(1, m + 1))[0] for m in range(1, self.M + 1)}
        return checks.check_table(outputs[0], outputs[1], self.M, self.P, self._p1_best)

    def best_probs(self, outputs):
        return [prob for prob, _, _ in checks.parse_table_csv(outputs[0]).values()]


class DeepCells:
    """portfolio_maximize at the default budgets on (7, 4) and (7, 5).

    The specs take the acceptance suite's seed, not the run's: the kept
    failure must not depend on the run's seed (see the README).
    """

    CELLS = ((7, 4), (7, 5))
    own_s = 0.0

    def __init__(self, seed: int):
        portfolio = optimizers.default_portfolio(seed=ACCEPTANCE_SEED)
        self.inputs = [
            (m, p, ising.consecutive(m),
             tuple(replace(s, seed=experiments.cell_seed(s.seed, m, p)) for s in portfolio))
            for m, p in self.CELLS
        ]

    def run(self):
        return [optimizers.portfolio_maximize(model, p, specs) for _, p, model, specs in self.inputs]

    def check(self, results):
        found = []
        for (m, p, model, _), r in zip(self.inputs, results):
            state = statevector.run_ansatz(model, _params(r.best_gammas, r.best_betas))
            dense = statevector.outcome_probability(state, ising.optimal_bits(model))
            found += checks.check_deep_cell(m, p, r.best_value, r.best_gammas, r.best_betas, dense)
        shallow, deep = results
        found += checks.check_depth_monotone(7, 5, deep.best_value, shallow.best_gammas, shallow.best_betas)
        return found

    def best_probs(self, results):
        return [r.best_value for r in results]


class Analysis:
    """Statevector certificates, the sampler and very wide models; no optimizer."""

    # Base models (1..m) whose own p = 1 optimum the workload uses.
    BASES = (2, 3, 5, 6, 7)
    # (tag, base m, copies, p or None for the own p = 1 optimum)
    DENSE = (("n18.own-p1", 6, 3, None), ("n16.p3", 4, 4, 3), ("n18.p3", 6, 3, 3), ("n20.p3", 5, 4, 3))
    # (tag, base m, copies, runs): own p = 1 optimum, so the success
    # probability is about 0.1, 1e-2, 1e-3 and 1e-4.  The sampler's seed is
    # the row's index, not drawn from the run's seed: the slowest of the
    # runs sets the sampler's loop count, and a seed-dependent one would
    # move wall_s by about 20% from run to run.
    SAMPLE = (("m2x18", 2, 18, 4000), ("m3x17", 3, 17, 2000), ("m7x8", 7, 8, 500), ("m7x10", 7, 10, 200))
    # (tag, base m, most copies, p or None); copies stay below 690 / |ln P|
    # so that k * |ln P| < 700 and e^(k |ln P|) fits in a float.
    WIDE = (("m7.own-p1", 7, 660, None), ("m7.p3", 7, 400, 3), ("m2.p2", 2, 1000, 2))

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        t = time.perf_counter()
        self.own_p1 = {m: oracle.p1_max(range(1, m + 1)) for m in self.BASES}
        self.own_s = time.perf_counter() - t
        self.base_models = [
            (ising.consecutive(m), _params([self.own_p1[m][1]], [self.own_p1[m][2]])) for m in self.BASES
        ]

        def schedule(m, p):
            if p is None:
                return [self.own_p1[m][1]], [self.own_p1[m][2]]
            return rng.uniform(0.0, math.pi, p), rng.uniform(0.0, math.pi, p)

        self.dense = []
        for tag, m, copies, p in self.DENSE:
            coeffs = _signed(list(range(1, m + 1)) * copies, rng)
            gammas, betas = schedule(m, p)
            self.dense.append((tag, ising.LinearIsing(coeffs), _params(gammas, betas)))
        self.sample = []
        for row, (tag, m, copies, runs) in enumerate(self.SAMPLE):
            coeffs = _signed(list(range(1, m + 1)) * copies, rng)
            gammas, betas = schedule(m, None)
            self.sample.append((tag, ising.LinearIsing(coeffs), _params(gammas, betas), runs, row))
        self.wide = []
        for tag, m, most, p in self.WIDE:
            base = ising.LinearIsing(_signed(range(1, m + 1), rng))
            gammas, betas = schedule(m, p)
            t = time.perf_counter()
            log_p = oracle.log_success_prob(base.coeffs, gammas, betas)
            self.own_s += time.perf_counter() - t
            k = max(1, min(most, int(690.0 / -log_p)))
            self.wide.append((tag, base, k, ising.replicate(base, k), _params(gammas, betas)))

    def run(self):
        out = {"best": [probability.prob_opt(model, params) for model, params in self.base_models]}
        out["dense"] = [
            (statevector.outcome_probability(statevector.run_ansatz(model, params), ising.optimal_bits(model)),
             probability.prob_opt(model, params))
            for _, model, params in self.dense
        ]
        out["sample"] = [
            experiments.sample_until_optimum(model, params, runs, seed=seed_)
            for _, model, params, runs, seed_ in self.sample
        ]
        out["wide"] = []
        for _, base, k, wide, params in self.wide:
            est = probability.runtime_estimate(base, k, params)
            out["wide"].append(
                (probability.log_prob_opt(wide, params),
                 (est.prob_opt, est.expected_samples, est.exponent_base, est.n),
                 probability.prob_opt_replicated(base, k, params),
                 probability.prob_opt(wide, params))
            )
        return out

    def check(self, out):
        found = []
        for m, value in zip(self.BASES, out["best"]):
            own = self.own_p1[m][0]
            found.append(
                checks.Check(f"analysis.p1.m{m}", abs(value - own) <= checks.CERTIFY_TOL,
                             f"prob_opt={value:.9f} own p=1 max={own:.9f}")
            )
        for (tag, model, params), (dense, program) in zip(self.dense, out["dense"]):
            found += checks.check_dense(tag, model.coeffs, params.gammas, params.betas, dense, program)
        for (tag, model, params, _, _), report in zip(self.sample, out["sample"]):
            found += checks.check_sample(
                tag, model.coeffs, params.gammas, params.betas, true_prob=report.true_prob,
                mean_trials=report.mean_trials, half_width=report.ci95_halfwidth,
            )
        for (tag, base, k, _, params), (log_prob, est, replicated, direct) in zip(self.wide, out["wide"]):
            found += checks.check_wide(
                tag, base.coeffs, k, params.gammas, params.betas,
                log_prob=log_prob, estimate=est, replicated=replicated, direct=direct,
            )
        return found

    def best_probs(self, out):
        return out["best"]


WORKLOADS = {"table": Table, "deep-cells": DeepCells, "analysis": Analysis}

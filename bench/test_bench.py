"""Tests of the benchmark's own oracle and checks.

Run with:  python3 -m pytest -q bench
"""

from __future__ import annotations

import math
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import oracle  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from qaoa_linear import experiments, probability  # noqa: E402
from qaoa_linear.ising import LinearIsing, consecutive, optimal_bits, replicate  # noqa: E402
from qaoa_linear.probability import QaoaParams  # noqa: E402
from qaoa_linear.statevector import outcome_probability, run_ansatz  # noqa: E402

PUBLISHED_P1 = {1: 1.0, 2: 0.882385, 3: 0.761904, 4: 0.652920, 5: 0.557571, 6: 0.475241, 7: 0.404604}
# A (7, 4) schedule the dense statevector certifies at 0.9995936, above the
# published 0.965912 + 5e-3.
WITNESS_74 = (
    (2.5527732084874275, 2.356438369003888, 2.7488663107980833, 1.9613776118217128),
    (1.9242107925828427, 0.9519526507202001, 1.9739513887475824, 3.018065199149003),
)


def _random_models(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 9))
        coeffs = rng.uniform(0.5, 3.0, n) * rng.choice([-1.0, 1.0], n)
        p = int(rng.integers(1, 5))
        yield coeffs, rng.uniform(0.0, 2 * math.pi, p), rng.uniform(0.0, 2 * math.pi, p)


def _dense(coeffs, gammas, betas):
    model = LinearIsing(tuple(coeffs))
    return outcome_probability(run_ansatz(model, QaoaParams(tuple(gammas), tuple(betas))), optimal_bits(model))


def test_oracle_matches_statevector_on_mixed_sign_models():
    for coeffs, gammas, betas in _random_models(11, 40):
        assert oracle.success_prob(coeffs, gammas, betas) == pytest.approx(_dense(coeffs, gammas, betas), abs=1e-12)


def test_oracle_matches_p1_closed_form():
    for coeffs, gammas, betas in _random_models(12, 40):
        g, b = gammas[:1], betas[:1]
        closed = oracle.p1_factor_prob(coeffs, g[0], b[0])
        assert oracle.success_prob(coeffs, g, b) == pytest.approx(closed, abs=1e-13)
        assert _dense(coeffs, g, b) == pytest.approx(closed, abs=1e-12)


def test_log_of_replica_is_copies_times_log_of_base():
    base = (1.0, -2.0, 3.0)
    g, b = (0.4, 1.2), (0.9, 0.3)
    assert oracle.log_success_prob(base * 50, g, b) == pytest.approx(50 * oracle.log_success_prob(base, g, b), rel=1e-12)


def test_p1_max_reproduces_published_column():
    for m, published in PUBLISHED_P1.items():
        value, gamma, beta = oracle.p1_max(range(1, m + 1))
        assert round(value, 6) == pytest.approx(published, abs=1e-12)
        assert oracle.p1_factor_prob(range(1, m + 1), gamma, beta) == pytest.approx(value, abs=1e-14)


def _table_csv(p1_best, override=None):
    lines = ["m,p,prob,base"]
    for m in range(1, 8):
        for p in range(1, 4):
            prob = 1.0 if m <= p else p1_best[m] + 0.01 * (p - 1)
            prob = (override or {}).get((m, p), prob)
            lines.append(f"{m},{p},{prob:.6f},{prob ** (-1.0 / m):.5f}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def p1_best():
    return {m: oracle.p1_max(range(1, m + 1))[0] for m in range(1, 8)}


def _failed(found):
    return {c.name for c in found if not c.ok}


def test_table_checks_pass_a_consistent_table(p1_best):
    csv = _table_csv(p1_best)
    assert _failed(checks.check_table(csv, csv, 7, 3, p1_best)) == set()


def test_table_checks_reject_a_p1_cell_off_by_1e4(p1_best):
    csv = _table_csv(p1_best, {(5, 1): p1_best[5] + 1e-4})
    assert _failed(checks.check_table(csv, csv, 7, 3, p1_best)) == {"table.p1-column"}


def test_table_checks_reject_one_changed_byte(p1_best):
    csv = _table_csv(p1_best)
    i = csv.index("0.55757")
    changed = csv[:i] + "1" + csv[i + 1 :]
    assert _failed(checks.check_table(csv, changed, 7, 3, p1_best)) == {"table.determinism"}


def test_table_checks_reject_imperfect_and_shallow_cells(p1_best):
    csv = _table_csv(p1_best, {(3, 3): 0.999990, (7, 2): p1_best[7] - 1e-3})
    assert _failed(checks.check_table(csv, csv, 7, 3, p1_best)) == {"table.perfect-cells", "table.depth-padding"}


def test_table_checks_reject_a_wrong_base(p1_best):
    csv = _table_csv(p1_best).replace("1.13799", "1.13809")
    assert _failed(checks.check_table(csv, csv, 7, 3, p1_best)) == {"table.base"}


def test_deep_cell_certificate_and_band():
    gammas, betas = WITNESS_74
    value = probability.prob_opt(consecutive(7), QaoaParams(gammas, betas))
    dense = _dense(range(1, 8), gammas, betas)
    assert value > checks.PUBLISHED_PROB[(7, 4)] + checks.PUBLISHED_BAND
    assert _failed(checks.check_deep_cell(7, 4, value, gammas, betas, dense)) == set()
    raised = checks.check_deep_cell(7, 4, value + 1e-6, gammas, betas, dense)
    assert _failed(raised) == {"deep.m7p4.dense", "deep.m7p4.own", "deep.m7p4.band"}


def test_depth_monotone_is_a_known_fault_check():
    gammas, betas = WITNESS_74
    floor = oracle.success_prob(range(1, 8), gammas + (0.0,), betas + (0.0,))
    assert oracle.success_prob(range(1, 8), gammas, betas) == pytest.approx(floor, abs=1e-15)
    (ok,) = checks.check_depth_monotone(7, 5, floor, gammas, betas)
    (low,) = checks.check_depth_monotone(7, 5, floor - 1e-6, gammas, betas)
    assert ok.ok and not low.ok and low.known_fault


def test_sample_check_rejects_a_mean_shifted_by_ten_half_widths():
    model = replicate(LinearIsing((1.0, -2.0)), 6)
    params = QaoaParams((0.4728,), (math.pi / 4,))
    report = experiments.sample_until_optimum(model, params, 3000, seed=5)
    kwargs = dict(true_prob=report.true_prob, half_width=report.ci95_halfwidth)
    assert _failed(checks.check_sample("t", model.coeffs, params.gammas, params.betas,
                                       mean_trials=report.mean_trials, **kwargs)) == set()
    shifted = report.mean_trials + 10 * report.ci95_halfwidth
    assert _failed(checks.check_sample("t", model.coeffs, params.gammas, params.betas,
                                       mean_trials=shifted, **kwargs)) == {"analysis.sample.t.mean"}


def test_wide_check_rejects_a_wrong_log():
    base, k = LinearIsing((1.0, -3.0, 2.0)), 300
    params = QaoaParams((0.5, 1.0), (0.8, 0.2))
    est = probability.runtime_estimate(base, k, params)
    args = (base.coeffs, k, params.gammas, params.betas)
    outputs = dict(
        estimate=(est.prob_opt, est.expected_samples, est.exponent_base, est.n),
        replicated=probability.prob_opt_replicated(base, k, params),
        direct=probability.prob_opt(replicate(base, k), params),
    )
    log = probability.log_prob_opt(replicate(base, k), params)
    assert _failed(checks.check_wide("t", *args, log_prob=log, **outputs)) == set()
    assert _failed(checks.check_wide("t", *args, log_prob=log * (1 + 1e-8), **outputs)) == {"analysis.wide.t"}


def test_tracer_records_nested_spans_and_restores_originals():
    import qaoa_linear.probability as module

    original = module.prob_opt
    tracer = tracing.Tracer()
    tracer.install()
    try:
        params = QaoaParams((0.3,), (0.7,))
        module.prob_opt(consecutive(3), params)  # outside every span: not recorded
        assert tracer.spans == []
        with tracer.span("round"):
            module.prob_opt_replicated(consecutive(3), 4, params)
    finally:
        tracer.uninstall()
    assert module.prob_opt is original
    names = [(s["name"], s["parent"]) for s in tracer.spans]
    assert names == [("round", None), ("probability.prob_opt_replicated", 0), ("probability.prob_opt", 1)]
    own = tracing.self_times(tracer.spans)
    assert own[1] == pytest.approx(tracing.duration(tracer.spans[1]) - tracing.duration(tracer.spans[2]))


def test_speed_probe_samples_and_restores_the_handler():
    probe = speed.SpeedProbe()
    with probe:
        end = time.perf_counter() + 0.35
        while time.perf_counter() < end:
            time.sleep(0.001)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert len(probe.samples) >= 2
    assert probe.slowness() == pytest.approx(
        len(probe.samples) / sum(1 / s for s in probe.samples) / (probe.size * speed.NOMINAL_STEP_S)
    )

"""End-to-end acceptance checks at full default budgets.

One test per criterion, each printing a single "criterion NN: PASS/FAIL"
line (run with `pytest tests/test_acceptance.py -v -s` to watch them).
The whole file takes several minutes; the heavy fixtures are session
scoped and shared.  Every test carries the `acceptance` marker, so
`pytest -m "not acceptance"` runs the fast suite alone.

Certified cells: the reference values are reported maxima, and any angles
whose success probability the dense statevector simulator reproduces are
a lower bound on the true maximum.  A p = 4-5 result above its band in
criterion 1 (below it in criterion 2, for the base) therefore passes when
it is such a witness: `run_ansatz` at the result's own angles agrees with
`best_value` to 1e-10, the tolerance of criterion 5.  The (m=7, p=4)
entry, 0.965912, is refuted this way: the optimizer finds 0.999594 there,
reproduced by the dense simulator to about 1e-15.  The reference value is
kept as it is; the report line of each criterion names every certified
cell.  A probability below its band (a base above it), or one above its
band without a certificate, still fails.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from qaoa_linear.circuit import emit_linear_solver_circuit, interpret_circuit
from qaoa_linear.cli import main as cli_main
from qaoa_linear.experiments import build_tables, cell_seed, sample_until_optimum
from qaoa_linear.gates import amplitude_to_bit, bit_amplitudes
from qaoa_linear.ising import LinearIsing, consecutive, optimal_bits, replicate
from qaoa_linear.optimizers import default_portfolio, portfolio_maximize
from qaoa_linear.probability import (
    QaoaParams,
    exact_p1_m2_max,
    overlap_p1,
    p2_sine_residuals,
    prob_opt,
    prob_opt_replicated,
)
from qaoa_linear.statevector import expectation, outcome_probability, run_ansatz

pytestmark = pytest.mark.acceptance

# Bundled reference values for the benchmark family (1..m): best success
# probability and per-qubit runtime base, m = 1..7 (rows), p = 1..5.
REFERENCE_PROB = {
    (1, 1): 1.0, (1, 2): 1.0, (1, 3): 1.0, (1, 4): 1.0, (1, 5): 1.0,
    (2, 1): 0.882385, (2, 2): 1.0, (2, 3): 1.0, (2, 4): 1.0, (2, 5): 1.0,
    (3, 1): 0.761904, (3, 2): 0.944816, (3, 3): 1.0, (3, 4): 1.0, (3, 5): 1.0,
    (4, 1): 0.652920, (4, 2): 0.881947, (4, 3): 0.997275, (4, 4): 1.0, (4, 5): 1.0,
    (5, 1): 0.557571, (5, 2): 0.817512, (5, 3): 0.974482, (5, 4): 1.0, (5, 5): 1.0,
    (6, 1): 0.475241, (6, 2): 0.754870, (6, 3): 0.948152, (6, 4): 0.999680,
    (6, 5): 0.999995,
    (7, 1): 0.404604, (7, 2): 0.695386, (7, 3): 0.921055, (7, 4): 0.965912,
    (7, 5): 0.999675,
}
REFERENCE_BASE = {
    (1, 1): 1.0, (1, 2): 1.0, (1, 3): 1.0, (1, 4): 1.0, (1, 5): 1.0,
    (2, 1): 1.06456, (2, 2): 1.0, (2, 3): 1.0, (2, 4): 1.0, (2, 5): 1.0,
    (3, 1): 1.09488, (3, 2): 1.01910, (3, 3): 1.0, (3, 4): 1.0, (3, 5): 1.0,
    (4, 1): 1.11246, (4, 2): 1.03190, (4, 3): 1.00068, (4, 4): 1.0, (4, 5): 1.0,
    (5, 1): 1.12393, (5, 2): 1.04112, (5, 3): 1.00518, (5, 4): 1.0, (5, 5): 1.0,
    (6, 1): 1.13200, (6, 2): 1.04798, (6, 3): 1.00891, (6, 4): 1.00005,
    (6, 5): 1.0,
    (7, 1): 1.13799, (7, 2): 1.05327, (7, 3): 1.01182, (7, 4): 1.00497,
    (7, 5): 1.00005,
}
# Cells the reference itself marks as rounding-limited.
ROUNDING_FLAGGED = {(5, 4), (6, 5)}
# Product formula vs dense statevector, as in criterion 5.
CERTIFY_TOL = 1e-10


def _report(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


def _certify(m, result):
    """Dense-statevector certificate of a p = 4-5 result on the model (1..m).

    Runs the ansatz at the result's own angles and returns
    `(certified, agreement)`, where agreement is |dense - best_value| and
    certified means it is within CERTIFY_TOL.  A certified result is a
    witness: the ansatz attains its value, so the cell's true maximum is
    at least that high.
    """
    model = consecutive(m)
    dense = outcome_probability(
        run_ansatz(model, QaoaParams(result.best_gammas, result.best_betas)),
        optimal_bits(model),
    )
    agreement = abs(dense - result.best_value)
    return agreement <= CERTIFY_TOL, agreement


@pytest.fixture(scope="session")
def cli_table_p3(tmp_path_factory):
    """`table --M 7 --P 3 --seed 1` through the CLI, timed."""
    out = tmp_path_factory.mktemp("acceptance") / "table_7x3.csv"
    t0 = time.perf_counter()
    code = cli_main(["table", "--M", "7", "--P", "3", "--seed", "1", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    cells = {}
    for line in out.read_text().splitlines()[1:]:
        m, p, prob, base = line.split(",")
        cells[(int(m), int(p))] = (float(prob), float(base))
    return cells, elapsed


@pytest.fixture(scope="session")
def p45_cells():
    """Full-budget portfolio results for p in {4, 5}, same seeding as tables."""
    cells = {}
    for m in range(1, 8):
        for p in (4, 5):
            specs = tuple(
                replace(s, seed=cell_seed(s.seed, m, p))
                for s in default_portfolio(seed=1)
            )
            cells[(m, p)] = portfolio_maximize(consecutive(m), p, specs)
    return cells


@pytest.fixture(scope="session")
def m2_p1_optimum():
    """Full-budget portfolio on (1, 2) at p = 1, timed."""
    t0 = time.perf_counter()
    result = portfolio_maximize(
        LinearIsing((1.0, 2.0)), 1, default_portfolio(seed=1)
    )
    return result, time.perf_counter() - t0


def test_criterion_01_table_reproduction(cli_table_p3, p45_cells):
    cells, elapsed = cli_table_p3
    failures = []
    worst_p3 = 0.0
    for (m, p), (prob, _) in sorted(cells.items()):
        diff = abs(prob - REFERENCE_PROB[(m, p)])
        worst_p3 = max(worst_p3, diff)
        if diff > 1e-3:
            failures.append(f"(m={m},p={p}): {prob:.6f} vs {REFERENCE_PROB[(m, p)]:.6f}")
    flagged_notes = []
    certified_notes = []
    for (m, p), result in sorted(p45_cells.items()):
        ref = REFERENCE_PROB[(m, p)]
        diff = result.best_value - ref
        if (m, p) in ROUNDING_FLAGGED:
            flagged_notes.append(f"(m={m},p={p}) diff={abs(diff):.1e}")
        if abs(diff) <= 5e-3:
            continue
        cell = f"(m={m},p={p}): found {result.best_value:.6f} vs reference {ref:.6f}"
        if diff < 0:
            failures.append(f"{cell} (diff {diff:+.1e}, below the 5e-3 band)")
            continue
        certified, agreement = _certify(m, result)
        if certified:
            certified_notes.append(
                f"(m={m},p={p}) {result.best_value:.6f} > ref {ref:.6f}, "
                f"dense agreement {agreement:.1e}"
            )
        else:
            failures.append(
                f"{cell} (diff {diff:+.1e}, above the 5e-3 band). Not certified: "
                f"the dense statevector simulator differs from best_value by "
                f"{agreement:.1e} (tol {CERTIFY_TOL:.0e}) at the reported angles, "
                f"so the found value is no witness that the reference is below "
                f"the true maximum."
            )
    time_ok = elapsed < 300.0
    ok = time_ok and not failures
    _report(
        1,
        ok,
        f"21 CLI cells worst diff {worst_p3:.1e} (tol 1e-3) in {elapsed:.0f}s; "
        f"p 4-5 flagged cells {', '.join(flagged_notes)}; "
        f"certified above reference: {', '.join(certified_notes) or 'none'}; "
        f"{len(failures)} cell(s) out of band",
    )
    problems = [] if time_ok else [f"table --M 7 --P 3 took {elapsed:.0f}s (limit 300s)"]
    if failures:
        problems.append("out-of-band cells:\n" + "\n".join(failures))
    assert not problems, "\n".join(problems)


def test_criterion_02_base_reproduction(cli_table_p3, p45_cells):
    cells, _ = cli_table_p3
    failures = []
    worst = 0.0
    for (m, p), (prob, base) in sorted(cells.items()):
        diff = abs(base - REFERENCE_BASE[(m, p)])
        worst = max(worst, diff)
        if diff > 1e-3:
            failures.append(f"(m={m},p={p}): base {base:.5f} vs {REFERENCE_BASE[(m, p)]:.5f}")
    certified_notes = []
    for (m, p), result in sorted(p45_cells.items()):
        ref = REFERENCE_BASE[(m, p)]
        base = result.best_value ** (-1.0 / m)
        diff = base - ref
        certified = False
        if diff < -1e-3:
            # A lower base is a higher success probability: the mirror of criterion 1.
            certified, agreement = _certify(m, result)
        if certified:
            certified_notes.append(
                f"(m={m},p={p}) {base:.5f} < ref {ref:.5f}, "
                f"dense agreement {agreement:.1e}"
            )
            continue
        worst = max(worst, abs(diff))
        cell = f"(m={m},p={p}): base {base:.5f} vs reference {ref:.5f} (diff {diff:+.1e}"
        if diff > 1e-3:
            failures.append(f"{cell}, above the 1e-3 band)")
        elif diff < -1e-3:
            failures.append(
                f"{cell}, below the 1e-3 band). Not certified: the dense "
                f"statevector simulator differs from best_value by "
                f"{agreement:.1e} (tol {CERTIFY_TOL:.0e}) at the reported angles."
            )
    # recomputation identity on an emitted grid, full precision
    table = build_tables(3, 2, default_portfolio(seed=1, budget=1500, restarts=2))
    identity_worst = 0.0
    for i, m in enumerate(table.m_values):
        for j in range(len(table.p_values)):
            identity_worst = max(
                identity_worst,
                abs(table.base[i, j] - table.prob[i, j] ** (-1.0 / m)),
            )
    ok = not failures and identity_worst <= 1e-12
    _report(
        2,
        ok,
        f"base grid worst diff {worst:.1e} outside certified cells (tol 1e-3); "
        f"recomputation identity worst {identity_worst:.1e} (tol 1e-12); "
        f"certified below reference: {', '.join(certified_notes) or 'none'}; "
        f"{len(failures)} cell(s) out of band",
    )
    assert identity_worst <= 1e-12
    assert not failures, "out-of-band bases:\n" + "\n".join(failures)


def test_criterion_03_exact_p1_closed_form(m2_p1_optimum):
    result, elapsed = m2_p1_optimum
    root = exact_p1_m2_max()
    root_ok = abs(root - 0.882385) <= 1e-6
    opt_diff = abs(result.best_value - root)
    time_ok = elapsed < 10.0
    ok = root_ok and opt_diff <= 1e-5 and time_ok
    _report(
        3,
        ok,
        f"root={root:.10f}, |optimizer-root|={opt_diff:.1e} (tol 1e-5), "
        f"optimize took {elapsed:.1f}s (limit 10s)",
    )
    assert root_ok and opt_diff <= 1e-5 and time_ok


def test_criterion_04_replication_power_law():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 5))
        model = LinearIsing(tuple(rng.uniform(0.2, 4.0, n) * rng.choice([-1, 1], n)))
        p = int(rng.integers(1, 4))
        params = QaoaParams(
            tuple(rng.uniform(0, math.pi, p)), tuple(rng.uniform(0, math.pi, p))
        )
        k = int(rng.integers(1, 9))
        direct = prob_opt(replicate(model, k), params)
        power = prob_opt_replicated(model, k, params)
        worst = max(worst, abs(direct - power))
    ok = worst <= 1e-12
    _report(4, ok, f"max |direct - power| = {worst:.1e} over 200 triples (tol 1e-12)")
    assert ok


def test_criterion_05_oracle_equivalence():
    rng = np.random.default_rng(105)
    worst_prob = 0.0
    worst_expect = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 11))
        model = LinearIsing(tuple(rng.uniform(0.2, 4.0, n) * rng.choice([-1, 1], n)))
        p = int(rng.integers(1, 4))
        params = QaoaParams(
            tuple(rng.uniform(0, math.pi, p)), tuple(rng.uniform(0, math.pi, p))
        )
        state = run_ansatz(model, params)
        dense = outcome_probability(state, optimal_bits(model))
        worst_prob = max(worst_prob, abs(dense - prob_opt(model, params)))
        factored = sum(
            a * (abs(v0) ** 2 - abs(v1) ** 2)
            for a, (v0, v1) in (
                (a, bit_amplitudes(a, params.gammas, params.betas))
                for a in model.coeffs
            )
        )
        worst_expect = max(worst_expect, abs(expectation(model, state) - factored))
    ok = worst_prob <= 1e-10 and worst_expect <= 1e-10
    _report(
        5,
        ok,
        f"max |product - dense| = {worst_prob:.1e}, "
        f"max |expectation - factored| = {worst_expect:.1e} (tol 1e-10)",
    )
    assert ok


def test_criterion_06_overlap_identity():
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(100):
        g = float(rng.uniform(0, 2 * math.pi))
        b = float(rng.uniform(0, 2 * math.pi))
        ov = overlap_p1(1.0, 2.0, QaoaParams((g,), (b,)))
        worst = max(worst, abs(ov - math.cos(g)))
    branch = abs(abs(amplitude_to_bit(1.0, 0, (0.0,), (0.0,))) - 1 / math.sqrt(2))
    ok = worst <= 1e-12 and branch <= 1e-12
    _report(
        6,
        ok,
        f"max |overlap - cos| = {worst:.1e} over 100 draws, "
        f"plus-branch diff = {branch:.1e} (tol 1e-12)",
    )
    assert ok


def test_criterion_07_p2_residuals():
    r1_pos, r2_pos = p2_sine_residuals(math.pi / 6)
    r1_neg, r2_neg = p2_sine_residuals(-math.pi / 6)
    ok = (
        abs(r1_pos) <= 1e-12
        and abs(r1_neg) <= 1e-12
        and abs(r2_pos) >= 0.8
        and abs(r2_neg) >= 0.8
    )
    _report(
        7,
        ok,
        f"first residual at +/-pi/6: {abs(r1_pos):.1e}/{abs(r1_neg):.1e} (tol 1e-12); "
        f"second stays at {abs(r2_pos):.6f} (>= 0.8, exact sqrt(3)/2)",
    )
    assert ok


def test_criterion_08_zero_angle_baseline():
    worst = 0.0
    for n in range(1, 17):
        for p in (1, 2):
            value = prob_opt(consecutive(n), QaoaParams.zero(p))
            worst = max(worst, abs(value - 2.0 ** (-n)))
    ok = worst <= 1e-12
    _report(8, ok, f"max |prob - 2^-n| = {worst:.1e} for n=1..16 (tol 1e-12)")
    assert ok


def test_criterion_09_sampling_consistency(m2_p1_optimum):
    result, _ = m2_p1_optimum
    params = QaoaParams(result.best_gammas, result.best_betas)
    t0 = time.perf_counter()
    report = sample_until_optimum(LinearIsing((1.0, 2.0)), params, runs=10000, seed=1)
    elapsed = time.perf_counter() - t0
    expected = 1.0 / 0.882385
    rel = abs(report.mean_trials - expected) / expected
    ok = rel <= 0.05 and elapsed < 10.0
    _report(
        9,
        ok,
        f"mean trials {report.mean_trials:.4f} vs {expected:.4f} "
        f"(rel {rel:.3%}, tol 5%) over 10000 runs in {elapsed:.1f}s",
    )
    assert ok


def test_criterion_10_circuit_soundness():
    rng = np.random.default_rng(110)
    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(1, 9))
        coeffs = tuple(
            float(v) for v in rng.integers(1, 128, n) * rng.choice([-1, 1], n)
        )
        model = LinearIsing(coeffs)
        text = emit_linear_solver_circuit(model, 8)
        bits = interpret_circuit(text)
        cnots = sum(
            line.startswith("cnot") for line in text.strip().split("\n")
        )
        if bits != optimal_bits(model) or cnots != n:
            mismatches += 1
    ok = mismatches == 0
    _report(10, ok, f"{100 - mismatches}/100 circuits exact, CNOT count always n")
    assert ok


def test_criterion_11_sign_flip_symmetry():
    rng = np.random.default_rng(111)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        coeffs = list(rng.uniform(0.2, 4.0, n) * rng.choice([-1, 1], n))
        p = int(rng.integers(1, 4))
        params = QaoaParams(
            tuple(rng.uniform(0, math.pi, p)), tuple(rng.uniform(0, math.pi, p))
        )
        base = prob_opt(LinearIsing(tuple(coeffs)), params)
        i = int(rng.integers(n))
        coeffs[i] = -coeffs[i]
        flipped = prob_opt(LinearIsing(tuple(coeffs)), params)
        worst = max(worst, abs(base - flipped))
    ok = worst <= 1e-12
    _report(11, ok, f"max |prob - flipped prob| = {worst:.1e} over 100 cases (tol 1e-12)")
    assert ok


def test_criterion_12_determinism(tmp_path):
    outputs = []
    for name in ("first.csv", "second.csv"):
        path = tmp_path / name
        code = cli_main(
            ["table", "--M", "3", "--P", "2", "--seed", "7", "--out", str(path)]
        )
        assert code == 0
        outputs.append(path.read_bytes())
    ok = outputs[0] == outputs[1]
    _report(
        12,
        ok,
        f"two runs of `table --M 3 --P 2 --seed 7` produced "
        f"{'identical' if ok else 'DIFFERENT'} bytes ({len(outputs[0])} bytes)",
    )
    assert ok

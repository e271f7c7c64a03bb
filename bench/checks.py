"""Checks of the program's outputs against the own oracle or a property.

Each check function takes plain outputs (CSV text, numbers, angle
tuples) and returns a list of Check records, so the tests can hand it a
doctored output.  Nothing here imports qaoa_linear; the dense-statevector
value of a certificate is an input, computed by the workload.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import oracle


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str
    # A fault the program has today, kept in the workload: it counts as a
    # failed operation but does not make the run incorrect.
    known_fault: bool = False


# Published best success probabilities of the deep cells, and the band
# within which a result matches them (acceptance criterion 01).
PUBLISHED_PROB = {(7, 4): 0.965912, (7, 5): 0.999675}
PUBLISHED_BAND = 5e-3
# Dense statevector or own formula against the program's value.
CERTIFY_TOL = 1e-10
P1_TOL = 1e-5
# Half a unit in the last printed place of prob (6 decimals), base (5).
PROB_ULP = 0.5e-6
BASE_ULP = 0.5e-5


def parse_table_csv(text: str) -> dict:
    """{(m, p): (prob, base, prob_field)} from the table command's CSV."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not lines or lines[0] != "m,p,prob,base":
        raise ValueError(f"not a table CSV: first line {lines[:1]!r}")
    cells = {}
    for line in lines[1:]:
        m, p, prob, base = line.split(",")
        cells[(int(m), int(p))] = (float(prob), float(base), prob)
    return cells


def check_table(first: str, second: str, m_max: int, p_max: int, p1_best: dict):
    """The table workload's checks; first and second are two runs' output.

    p1_best maps m to the own p = 1 maximum for the model (1..m).
    """
    cells = parse_table_csv(first)
    want = {(m, p) for m in range(1, m_max + 1) for p in range(1, p_max + 1)}
    checks = [Check("table.cells", set(cells) == want, f"{len(cells)} of {len(want)} cells")]
    if set(cells) != want:
        return checks

    worst = max(abs(cells[(m, 1)][0] - p1_best[m]) for m in range(1, m_max + 1))
    checks.append(
        Check("table.p1-column", worst <= P1_TOL, f"max|prob - own p=1 max|={worst:.2e}")
    )

    short = [
        f"(m={m},p={p}) {cells[(m, p)][0]:.6f} < {p1_best[m]:.6f}"
        for (m, p) in sorted(want)
        if p >= 2 and cells[(m, p)][0] < p1_best[m] - 2 * PROB_ULP
    ]
    checks.append(
        Check("table.depth-padding", not short, "; ".join(short) or "every p>=2 cell >= its p=1 max")
    )

    wrong = [
        f"(m={m},p={p}) {cells[(m, p)][2]}"
        for (m, p) in sorted(want)
        if m <= p and cells[(m, p)][2] != "1.000000"
    ]
    checks.append(
        Check("table.perfect-cells", not wrong, "; ".join(wrong) or "every m<=p cell prints 1.000000")
    )

    worst_excess = -math.inf
    for (m, p), (prob, base, _) in cells.items():
        expect = prob ** (-1.0 / m)
        # base is printed from the unrounded prob: allow its own rounding
        # plus the effect of prob's rounding through d(prob^(-1/m))/dprob.
        slack = BASE_ULP + PROB_ULP * expect / (m * prob) + 1e-12
        worst_excess = max(worst_excess, abs(base - expect) - slack)
    checks.append(
        Check("table.base", worst_excess <= 0.0, f"worst excess over printed precision {worst_excess:.2e}")
    )

    same = first.encode() == second.encode()
    checks.append(
        Check("table.determinism", same, f"two runs {'byte-identical' if same else 'differ'}")
    )
    return checks


def check_deep_cell(m: int, p: int, best_value: float, gammas, betas, dense: float):
    """Certificate and band checks of one deep cell's portfolio result."""
    coeffs = range(1, m + 1)
    own = oracle.success_prob(coeffs, gammas, betas)
    dense_ok = abs(dense - best_value) <= CERTIFY_TOL
    own_ok = abs(own - best_value) <= CERTIFY_TOL
    ref = PUBLISHED_PROB[(m, p)]
    in_band = abs(best_value - ref) <= PUBLISHED_BAND
    above = best_value > ref and dense_ok and own_ok
    tag = f"deep.m{m}p{p}"
    return [
        Check(f"{tag}.dense", dense_ok, f"|dense - best|={abs(dense - best_value):.2e}"),
        Check(f"{tag}.own", own_ok, f"|own - best|={abs(own - best_value):.2e}"),
        Check(
            f"{tag}.band",
            in_band or above,
            f"best={best_value:.7f} ref={ref:.6f} "
            + ("in band" if in_band else "above band, certified" if above else "out of band"),
        ),
    ]


def check_depth_monotone(m: int, p: int, best_value: float, prev_gammas, prev_betas):
    """P(m, p) >= P(m, p-1): the p-1 result padded with a zero layer is a floor.

    Kept failing at (7, 5) at the acceptance suite's master seed: the portfolio
    under-converges there.
    """
    floor = oracle.success_prob(range(1, m + 1), tuple(prev_gammas) + (0.0,), tuple(prev_betas) + (0.0,))
    ok = best_value >= floor - 1e-12
    return [
        Check(
            f"deep.m{m}p{p}.depth-monotone",
            ok,
            f"best={best_value:.7f} padded p={p - 1} angles give {floor:.7f}",
            known_fault=True,
        )
    ]


def check_dense(tag: str, coeffs, gammas, betas, dense: float, program: float):
    own = oracle.success_prob(coeffs, gammas, betas)
    worst = max(abs(dense - own), abs(program - own), abs(dense - program))
    return [Check(f"analysis.dense.{tag}", worst <= CERTIFY_TOL, f"prob={own:.3e} max gap {worst:.2e}")]


def _rel(x: float, y: float) -> float:
    return abs(x - y) / abs(y)


def check_wide(tag: str, base_coeffs, k: int, gammas, betas, *, log_prob, estimate, replicated, direct):
    """log_prob_opt, runtime_estimate and both replicated probabilities of k copies.

    estimate is (prob_opt, expected_samples, exponent_base, n).
    """
    own_log = oracle.log_success_prob(base_coeffs, gammas, betas)
    own_base = math.exp(own_log)
    est_prob, expected, exponent_base, n = estimate
    gaps = {
        "log": _rel(log_prob, k * own_log),
        "estimate.prob": _rel(est_prob, own_base**k),
        "estimate.samples": _rel(expected, exponent_base**n),
        "replicated": _rel(replicated, own_base**k),
        "direct": _rel(direct, own_base**k),
    }
    worst = max(gaps, key=gaps.get)
    return [
        Check(
            f"analysis.wide.{tag}",
            gaps[worst] <= 1e-9,
            f"n={n} log={log_prob:.1f} worst relative gap {gaps[worst]:.1e} ({worst})",
        )
    ]


def check_sample(tag: str, coeffs, gammas, betas, *, true_prob, mean_trials, half_width):
    own = oracle.success_prob(coeffs, gammas, betas)
    prob_ok = _rel(true_prob, own) <= 1e-9
    miss = abs(mean_trials - 1.0 / own)
    return [
        Check(f"analysis.sample.{tag}.true-prob", prob_ok, f"true_prob={true_prob:.4e} own={own:.4e}"),
        Check(
            f"analysis.sample.{tag}.mean",
            miss <= 5.0 * half_width,
            f"mean_trials={mean_trials:.1f} vs 1/p={1.0 / own:.1f}, {miss / half_width:.2f} half-widths",
        ),
    ]

"""Command-line workbench over the library.

Every command prints its fully resolved configuration as "# key=value
(source)" lines before any results, so a captured output identifies the
run that produced it.  Results are flat key=value records; tables are
CSV.  Exit status: 0 success, 1 failed check or refused computation,
2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import math
import re
import sys

import numpy as np

from .circuit import emit_linear_solver_circuit
from .errors import QaoaLinearError
from .experiments import (
    build_tables,
    check_sampling_request,
    conjecture_scan,
    sample_until_optimum,
)
from .gates import amplitude_to_bit
from .ising import (
    LinearIsing,
    consecutive,
    format_model,
    optimal_bits,
    parse_model,
    replicate,
)
from .optimizers import (
    DEFAULT_BUDGET,
    DEFAULT_RESTARTS,
    METHODS,
    OptimizerSpec,
    default_portfolio,
    maximize,
    portfolio_maximize,
)
from .probability import (
    QaoaParams,
    exact_p1_m2_max,
    log_prob_opt,
    overlap_p1,
    p2_sine_residuals,
    prob_opt,
    prob_opt_replicated,
)
from .statevector import outcome_probability, run_ansatz

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_USAGE = 2
EXIT_IO = 3


class UsageError(Exception):
    pass


_PI_RE = re.compile(
    r"^(?P<coeff>[+-]?(?:\d+(?:\.\d*)?)?)\s*(?:pi|π)\s*(?:/\s*(?P<den>\d+(?:\.\d*)?))?$",
    re.IGNORECASE,
)


def parse_angle(text: str) -> float:
    """Radians from a decimal literal or a pi fraction like "pi/4", "-3pi/2"."""
    t = str(text).strip()
    m = _PI_RE.match(t)
    if m:
        coeff = m.group("coeff")
        if coeff in ("", "+"):
            c = 1.0
        elif coeff == "-":
            c = -1.0
        else:
            c = float(coeff)
        value = c * math.pi
        den = m.group("den")
        if den:
            value /= float(den)
        return value
    try:
        return float(t)
    except ValueError:
        raise UsageError(f"cannot parse angle {text!r}") from None


def parse_angle_list(text: str) -> tuple[float, ...]:
    parts = [part for part in str(text).split(",")]
    if any(not part.strip() for part in parts):
        raise UsageError(f"malformed angle list {text!r}")
    return tuple(parse_angle(part) for part in parts)


def load_config(path: str) -> dict[str, str]:
    """key=value lines; blank lines and # comments ignored."""
    entries: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, _, value = line.partition("=")
            entries[key.strip()] = value.strip()
    return entries


def _fmt(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, (tuple, list)):
        return ",".join(_fmt(v) for v in value)
    return str(value)


class _Resolver:
    """Merges flag > config > default, recording where each value came from."""

    def __init__(self, config: dict[str, str], out):
        self.config = dict(config)
        self.out = out
        self.lines: list[str] = []

    def get(self, key: str, flag_value, default, parse=None):
        if flag_value is not None:
            self.config.pop(key, None)
            value, source = flag_value, "flag"
        elif key in self.config:
            raw = self.config.pop(key)
            value = parse(raw) if parse is not None else raw
            source = "config"
        else:
            value, source = default, "default"
        self.lines.append(f"# {key}={_fmt(value)} ({source})")
        return value

    def emit(self):
        if self.config:
            stray = ", ".join(sorted(self.config))
            raise UsageError(f"unknown config keys: {stray}")
        for line in self.lines:
            print(line, file=self.out)


def _parse_int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"expected an integer, got {raw!r}") from None


def _resolve_model(res: _Resolver, ns) -> LinearIsing:
    model_text = res.get("model", getattr(ns, "model", None), None)
    m_value = res.get("m", getattr(ns, "m", None), None, parse=_parse_int)
    if model_text is not None and m_value is not None:
        raise UsageError("give either --model or --m, not both")
    if model_text is not None:
        try:
            return parse_model(model_text)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    if m_value is not None:
        return consecutive(m_value)
    raise UsageError("a model is required: --model a1,a2,... or --m <size>")


def _resolve_specs(res: _Resolver, ns):
    method = res.get("method", getattr(ns, "method", None), "portfolio")
    budget = res.get("budget", getattr(ns, "budget", None), DEFAULT_BUDGET, parse=_parse_int)
    restarts = res.get(
        "restarts", getattr(ns, "restarts", None), DEFAULT_RESTARTS, parse=_parse_int
    )
    seed = res.get("seed", getattr(ns, "seed", None), 1, parse=_parse_int)
    if method == "portfolio":
        return default_portfolio(seed=seed, budget=budget, restarts=restarts), seed
    if method not in METHODS:
        raise UsageError(
            f"unknown method {method!r}; choose portfolio or one of {', '.join(METHODS)}"
        )
    return (OptimizerSpec(method, budget, seed, restarts),), seed


def _write_text(path, text: str, out):
    if path is None or path == "-":
        out.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def cmd_prob(ns) -> int:
    config = load_config(ns.config) if ns.config else {}
    res = _Resolver(config, sys.stdout)
    model = _resolve_model(res, ns)
    gammas = res.get("gamma", ns.gamma, None, parse=str)
    betas = res.get("beta", ns.beta, None, parse=str)
    want_log = res.get("log", ns.log or None, False)
    if gammas is None or betas is None:
        raise UsageError("prob needs --gamma and --beta angle lists")
    params = QaoaParams(parse_angle_list(gammas), parse_angle_list(betas))
    res.emit()
    print(f"prob_opt={prob_opt(model, params):.12g}")
    if want_log:
        print(f"log_prob_opt={log_prob_opt(model, params):.12g}")
    return EXIT_OK


def _print_result(result):
    print(f"best_value={result.best_value:.12g}")
    print(f"best_gammas={_fmt(result.best_gammas)}")
    print(f"best_betas={_fmt(result.best_betas)}")
    print(f"method={result.method}")
    print(f"evaluations_used={result.evaluations_used}")


def cmd_optimize(ns) -> int:
    config = load_config(ns.config) if ns.config else {}
    res = _Resolver(config, sys.stdout)
    model = _resolve_model(res, ns)
    p = res.get("p", ns.p, None, parse=_parse_int)
    if p is None:
        raise UsageError("optimize needs --p (layer count)")
    specs, _ = _resolve_specs(res, ns)
    res.emit()
    result = portfolio_maximize(model, p, specs)
    _print_result(result)
    return EXIT_OK


def cmd_table(ns) -> int:
    config = load_config(ns.config) if ns.config else {}
    res = _Resolver(config, sys.stdout)
    m_max = res.get("M", ns.M, None, parse=_parse_int)
    p_max = res.get("P", ns.P, None, parse=_parse_int)
    if m_max is None or p_max is None:
        raise UsageError("table needs --M and --P")
    budget = res.get("budget", ns.budget, DEFAULT_BUDGET, parse=_parse_int)
    restarts = res.get("restarts", ns.restarts, DEFAULT_RESTARTS, parse=_parse_int)
    seed = res.get("seed", ns.seed, 1, parse=_parse_int)
    fmt = res.get("format", ns.format, "csv")
    out_path = res.get("out", ns.out, None)
    if fmt not in ("csv", "structured"):
        raise UsageError(f"format must be csv or structured, got {fmt!r}")
    res.emit()
    table = build_tables(
        m_max, p_max, default_portfolio(seed=seed, budget=budget, restarts=restarts)
    )
    if fmt == "csv":
        _write_text(out_path, table.to_csv(), sys.stdout)
    else:
        lines = []
        for i, m in enumerate(table.m_values):
            for j, p in enumerate(table.p_values):
                lines.append(
                    f"m={m} p={p} prob={table.prob[i, j]:.6f} base={table.base[i, j]:.5f}"
                )
        _write_text(out_path, "\n".join(lines) + "\n", sys.stdout)
    print(f"# cells={m_max * p_max}")
    for i, m in enumerate(table.m_values):
        for j, p in enumerate(table.p_values):
            if m > p and table.prob[i, j] >= 1.0 - 1e-4:
                print(f"# anomaly: m={m} p={p} prob={table.prob[i, j]:.6f}")
    return EXIT_OK


def cmd_sample(ns) -> int:
    config = load_config(ns.config) if ns.config else {}
    res = _Resolver(config, sys.stdout)
    model = _resolve_model(res, ns)
    runs = res.get("runs", ns.runs, None, parse=_parse_int)
    if runs is None:
        raise UsageError("sample needs --runs")
    auto = res.get("auto", ns.auto or None, False)
    gammas = res.get("gamma", ns.gamma, None, parse=str)
    betas = res.get("beta", ns.beta, None, parse=str)
    p = res.get("p", ns.p, None, parse=_parse_int)
    specs, seed = _resolve_specs(res, ns)
    out_path = res.get("out", ns.out, None)
    check_sampling_request(runs, model.n)
    if auto:
        if gammas is not None or betas is not None:
            raise UsageError("--auto replaces --gamma/--beta; give one or the other")
        if p is None:
            raise UsageError("--auto needs --p")
        res.emit()
        best = portfolio_maximize(model, p, specs)
        params = QaoaParams(best.best_gammas, best.best_betas)
    else:
        if gammas is None or betas is None:
            raise UsageError("sample needs --gamma and --beta, or --auto with --p")
        params = QaoaParams(parse_angle_list(gammas), parse_angle_list(betas))
        res.emit()
    report = sample_until_optimum(model, params, runs, seed=seed)
    doc = "\n".join(
        [
            f"model={format_model(report.model)}",
            f"gammas={_fmt(report.params.gammas)}",
            f"betas={_fmt(report.params.betas)}",
            f"true_prob={report.true_prob:.12g}",
            f"runs={report.runs}",
            f"mean_trials={report.mean_trials:.12g}",
            f"ci95_halfwidth={report.ci95_halfwidth:.12g}",
        ]
    ) + "\n"
    print(doc, end="")
    if out_path is not None:
        _write_text(out_path, doc, sys.stdout)
    return EXIT_OK


def cmd_emit_circuit(ns) -> int:
    config = load_config(ns.config) if ns.config else {}
    res = _Resolver(config, sys.stdout)
    model = _resolve_model(res, ns)
    width = res.get("width", ns.width, None, parse=_parse_int)
    out_path = res.get("out", ns.out, None)
    if width is None:
        raise UsageError("emit-circuit needs --width")
    res.emit()
    try:
        text = emit_linear_solver_circuit(model, width)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    _write_text(out_path, text, sys.stdout)
    return EXIT_OK


def cmd_scan(ns) -> int:
    config = load_config(ns.config) if ns.config else {}
    res = _Resolver(config, sys.stdout)
    p = res.get("p", ns.p, None, parse=_parse_int)
    m_max = res.get("m-max", ns.m_max, None, parse=_parse_int)
    if p is None or m_max is None:
        raise UsageError("scan needs --p and --m-max")
    tol = res.get("tol", ns.tol, 1e-4, parse=float)
    specs, _ = _resolve_specs(res, ns)
    res.emit()
    entries = conjecture_scan(p, m_max, specs, tol=tol)
    anomalies = 0
    for e in entries:
        print(
            f"m={e.m} best_prob={e.best_prob:.6f} "
            f"below_one={_fmt(e.below_one)} anomaly={_fmt(e.anomaly)}"
        )
        anomalies += e.anomaly
    print(f"# anomalies={anomalies}")
    return EXIT_OK


def _verify_checks(seed: int):
    rng = np.random.Generator(
        np.random.Philox(key=np.array([seed % (1 << 64), 99], dtype=np.uint64))
    )

    root = exact_p1_m2_max()
    residual = ((5832.0 * root - 6804.0) * root + 1472.0) * root - 8.0
    yield (
        "exact-p1-m2-root",
        abs(root - 0.882385) <= 1e-6 and abs(residual) <= 1e-9 and root < 1.0,
        f"root={root:.10f} cubic_residual={residual:.3e}",
    )

    worst = 0.0
    for _ in range(100):
        g = rng.uniform(0.0, 2.0 * math.pi)
        b = rng.uniform(0.0, 2.0 * math.pi)
        ov = overlap_p1(1.0, 2.0, QaoaParams((g,), (b,)))
        worst = max(worst, abs(ov - math.cos(g)))
    branch = abs(abs(amplitude_to_bit(1.0, 0, (0.0,), (0.0,))) - math.sqrt(0.5))
    yield (
        "p1-overlap-cosine",
        worst <= 1e-12 and branch <= 1e-12,
        f"max|overlap-cos|={worst:.3e} plus_branch={branch:.3e}",
    )

    r1_pos, r2_pos = p2_sine_residuals(math.pi / 6.0)
    r1_neg, r2_neg = p2_sine_residuals(-math.pi / 6.0)
    r1_zero, r2_zero = p2_sine_residuals(0.0)
    ok = (
        abs(r1_pos) <= 1e-12
        and abs(r1_neg) <= 1e-12
        and abs(r2_pos) >= 0.8
        and abs(r2_neg) >= 0.8
        and abs(r1_zero) <= 1e-12
        and abs(r2_zero) <= 1e-12
    )
    yield (
        "p2-sine-residuals",
        ok,
        f"r1(pi/6)={r1_pos:.3e} r2(pi/6)={r2_pos:.6f}",
    )

    worst = 0.0
    for k in range(1, 9):
        n = int(rng.integers(1, 4))
        coeffs = tuple(float(a) for a in rng.uniform(0.5, 3.0, n) * rng.choice([-1, 1], n))
        model = LinearIsing(coeffs)
        p = int(rng.integers(1, 4))
        params = QaoaParams(
            tuple(rng.uniform(0.0, math.pi, p)), tuple(rng.uniform(0.0, math.pi, p))
        )
        direct = prob_opt(replicate(model, k), params)
        worst = max(worst, abs(direct - prob_opt_replicated(model, k, params)))
    yield (
        "replication-power-law",
        worst <= 1e-12,
        f"max|direct-power|={worst:.3e} over k=1..8",
    )

    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(1, 9))
        coeffs = tuple(float(a) for a in rng.uniform(0.5, 3.0, n) * rng.choice([-1, 1], n))
        model = LinearIsing(coeffs)
        p = int(rng.integers(1, 4))
        params = QaoaParams(
            tuple(rng.uniform(0.0, math.pi, p)), tuple(rng.uniform(0.0, math.pi, p))
        )
        dense = outcome_probability(run_ansatz(model, params), optimal_bits(model))
        worst = max(worst, abs(dense - prob_opt(model, params)))
    yield (
        "statevector-agreement",
        worst <= 1e-10,
        f"max|product-dense|={worst:.3e} over 10 instances",
    )


def cmd_verify(ns) -> int:
    config = load_config(ns.config) if ns.config else {}
    res = _Resolver(config, sys.stdout)
    seed = res.get("seed", ns.seed, 1, parse=_parse_int)
    res.emit()
    failures = 0
    total = 0
    for name, ok, detail in _verify_checks(seed):
        total += 1
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    print(f"# checks={total} failures={failures}")
    return EXIT_OK if failures == 0 else EXIT_CHECK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qaoa-linear",
        description="Success-probability workbench for the layered ansatz on linear models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p_):
        p_.add_argument("--config", help="key=value config file; flags override it")

    def add_model(p_):
        p_.add_argument("--model", help="comma-separated coefficients, e.g. 1,2,3")
        p_.add_argument("--m", type=int, help="shorthand for the model 1,2,...,m")

    def add_opt(p_):
        p_.add_argument("--method", choices=("portfolio",) + METHODS)
        p_.add_argument("--budget", type=int, help="objective evaluations per restart")
        p_.add_argument("--restarts", type=int)
        p_.add_argument("--seed", type=int)

    p_prob = sub.add_parser("prob", help="success probability at given angles")
    add_common(p_prob)
    add_model(p_prob)
    p_prob.add_argument("--gamma", help="comma-separated angles; pi fractions allowed")
    p_prob.add_argument("--beta", help="comma-separated angles; pi fractions allowed")
    p_prob.add_argument("--log", action="store_true", help="also print the natural log")
    p_prob.set_defaults(func=cmd_prob)

    p_opt = sub.add_parser("optimize", help="maximize the success probability")
    add_common(p_opt)
    add_model(p_opt)
    p_opt.add_argument("--p", type=int, help="layer count")
    add_opt(p_opt)
    p_opt.set_defaults(func=cmd_optimize)

    p_table = sub.add_parser("table", help="probability/base grid over m and p")
    add_common(p_table)
    p_table.add_argument("--M", type=int, help="largest model size")
    p_table.add_argument("--P", type=int, help="largest layer count")
    add_opt(p_table)
    p_table.add_argument("--format", choices=("csv", "structured"))
    p_table.add_argument("--out", help="output path; stdout when omitted")
    p_table.set_defaults(func=cmd_table)

    p_sample = sub.add_parser("sample", help="trials-to-optimum sampling experiment")
    add_common(p_sample)
    add_model(p_sample)
    p_sample.add_argument("--gamma")
    p_sample.add_argument("--beta")
    p_sample.add_argument("--p", type=int, help="layer count for --auto")
    p_sample.add_argument("--auto", action="store_true", help="optimize angles first")
    p_sample.add_argument("--runs", type=int)
    add_opt(p_sample)
    p_sample.add_argument("--out", help="also write the report to this path")
    p_sample.set_defaults(func=cmd_sample)

    p_emit = sub.add_parser("emit-circuit", help="classical sign-reading circuit text")
    add_common(p_emit)
    add_model(p_emit)
    p_emit.add_argument("--width", type=int, help="two's complement register width")
    p_emit.add_argument("--out", help="output path; stdout when omitted")
    p_emit.set_defaults(func=cmd_emit_circuit)

    p_verify = sub.add_parser("verify", help="closed-form identity checks")
    add_common(p_verify)
    p_verify.add_argument("--seed", type=int)
    p_verify.set_defaults(func=cmd_verify)

    p_scan = sub.add_parser("scan", help="perfect-recovery scan over model size")
    add_common(p_scan)
    p_scan.add_argument("--p", type=int)
    p_scan.add_argument("--m-max", type=int)
    p_scan.add_argument("--tol", type=float)
    add_opt(p_scan)
    p_scan.set_defaults(func=cmd_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return ns.func(ns)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except QaoaLinearError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_CHECK
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

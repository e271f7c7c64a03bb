"""Command-line workbench over the library.

Each command declares its options once, in a table of Option entries
(key, parse, default, help).  One entry builds the --key flag, parses
the key's value in a --config file, and writes the "# key=value
(source)" provenance line.  Values resolve flag > config > default; an
option whose default is REQUIRED has none, so omitting it is a usage
error, as is a config key that names no option of the command.  An
on/off option is a bare flag, and true or false in a config file.

Once the options resolve, main prints their provenance lines, in table
order, before the command runs, so a captured output identifies the run
that produced it, even one that then fails.  Results are flat key=value
records; tables are CSV.  Exit status: 0 success, 1 failed check or
refused computation, 2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from typing import Callable, NamedTuple

from .circuit import emit_linear_solver_circuit
from .errors import QaoaLinearError
from .experiments import (
    build_tables,
    check_sampling_request,
    conjecture_scan,
    is_anomaly,
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
    philox,
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


class UsageError(ValueError):
    """A malformed or inconsistent command-line or config input (exit 2)."""


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
            if float(den) == 0.0:
                raise UsageError(f"zero denominator in angle {text!r}")
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


REQUIRED = object()  # the default of an Option that cannot be omitted


class Option(NamedTuple):
    """One command option: its --key flag, config key and provenance line."""

    key: str
    parse: Callable[[str], object]
    default: object = None
    help: str | None = None
    choices: tuple[str, ...] | None = None


def _on_off(raw: str) -> bool:
    """Config value of an on/off option, whose flag takes no value."""
    if raw not in ("true", "false"):
        raise UsageError(f"expected true or false, got {raw!r}")
    return raw == "true"


def _resolve(ns) -> list[str]:
    """Set each option of ns's command from its flag, else its config value, else its default.

    Returns the provenance lines in table order.  Omitting a REQUIRED
    option, or a config key naming no option of the command, is a usage error.
    """
    config = load_config(ns.config) if ns.config else {}
    provenance = []
    for opt in ns.options:
        dest = opt.key.replace("-", "_")
        raw = config.pop(opt.key, None)
        if getattr(ns, dest) is not None:
            source = "flag"
        elif raw is not None:
            try:
                value = opt.parse(raw)
            except ValueError as exc:
                raise UsageError(f"config {opt.key}: {exc}") from None
            if opt.choices and value not in opt.choices:
                raise UsageError(
                    f"config {opt.key}: {raw!r} is not one of {', '.join(opt.choices)}"
                )
            setattr(ns, dest, value)
            source = "config"
        elif opt.default is REQUIRED:
            raise UsageError(f"{ns.command} needs --{opt.key}")
        else:
            setattr(ns, dest, opt.default)
            source = "default"
        provenance.append(f"# {opt.key}={_fmt(getattr(ns, dest))} ({source})")
    if config:
        raise UsageError(f"unknown config keys: {', '.join(sorted(config))}")
    return provenance


def _model(ns) -> LinearIsing:
    if ns.model is not None and ns.m is not None:
        raise UsageError("give either --model or --m, not both")
    if ns.model is not None:
        return parse_model(ns.model)
    if ns.m is not None:
        return consecutive(ns.m)
    raise UsageError("a model is required: --model a1,a2,... or --m <size>")


def _specs(ns):
    if ns.method == "portfolio":
        return default_portfolio(seed=ns.seed, budget=ns.budget, restarts=ns.restarts)
    return (OptimizerSpec(ns.method, ns.budget, ns.seed, ns.restarts),)


def _write_text(path, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def cmd_prob(ns) -> int:
    model = _model(ns)
    params = QaoaParams(parse_angle_list(ns.gamma), parse_angle_list(ns.beta))
    print(f"prob_opt={prob_opt(model, params):.12g}")
    if ns.log:
        print(f"log_prob_opt={log_prob_opt(model, params):.12g}")
    return EXIT_OK


def cmd_optimize(ns) -> int:
    result = portfolio_maximize(_model(ns), ns.p, _specs(ns))
    print(f"best_value={result.best_value:.12g}")
    print(f"best_gammas={_fmt(result.best_gammas)}")
    print(f"best_betas={_fmt(result.best_betas)}")
    print(f"method={result.method}")
    print(f"evaluations_used={result.evaluations_used}")
    return EXIT_OK


def cmd_table(ns) -> int:
    table = build_tables(ns.M, ns.P, _specs(ns))
    _write_text(ns.out, table.to_csv())
    print(f"# cells={ns.M * ns.P}")
    for i, m in enumerate(table.m_values):
        for j, p in enumerate(table.p_values):
            if is_anomaly(m, p, table.prob[i, j]):
                print(f"# anomaly: m={m} p={p} prob={table.prob[i, j]:.6f}")
    return EXIT_OK


def cmd_sample(ns) -> int:
    model = _model(ns)
    specs = _specs(ns)
    check_sampling_request(ns.runs, model.n)
    if ns.auto:
        if ns.gamma is not None or ns.beta is not None:
            raise UsageError("--auto replaces --gamma/--beta; give one or the other")
        if ns.p is None:
            raise UsageError("--auto needs --p")
        best = portfolio_maximize(model, ns.p, specs)
        params = QaoaParams(best.best_gammas, best.best_betas)
    else:
        if ns.gamma is None or ns.beta is None:
            raise UsageError("sample needs --gamma and --beta, or --auto with --p")
        params = QaoaParams(parse_angle_list(ns.gamma), parse_angle_list(ns.beta))
    report = sample_until_optimum(model, params, ns.runs, seed=ns.seed)
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
    if ns.out not in (None, "-"):
        _write_text(ns.out, doc)
    return EXIT_OK


def cmd_emit_circuit(ns) -> int:
    _write_text(ns.out, emit_linear_solver_circuit(_model(ns), ns.width))
    return EXIT_OK


def cmd_scan(ns) -> int:
    entries = conjecture_scan(ns.p, ns.m_max, _specs(ns))
    for e in entries:
        print(
            f"m={e.m} best_prob={e.best_prob:.6f} "
            f"below_one={_fmt(e.below_one)} anomaly={_fmt(e.anomaly)}"
        )
    print(f"# anomalies={sum(e.anomaly for e in entries)}")
    return EXIT_OK


def _random_instance(rng, max_n: int) -> tuple[LinearIsing, QaoaParams]:
    """1..max_n signed coefficients in [0.5, 3) and 1..3 layers of angles in [0, pi)."""
    n = int(rng.integers(1, max_n + 1))
    coeffs = tuple(float(a) for a in rng.uniform(0.5, 3.0, n) * rng.choice([-1, 1], n))
    p = int(rng.integers(1, 4))
    params = QaoaParams(
        tuple(rng.uniform(0.0, math.pi, p)), tuple(rng.uniform(0.0, math.pi, p))
    )
    return LinearIsing(coeffs), params


def _verify_checks(seed: int):
    rng = philox(seed, 99)

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
        model, params = _random_instance(rng, 3)
        direct = prob_opt(replicate(model, k), params)
        worst = max(worst, abs(direct - prob_opt_replicated(model, k, params)))
    yield (
        "replication-power-law",
        worst <= 1e-12,
        f"max|direct-power|={worst:.3e} over k=1..8",
    )

    worst = 0.0
    for _ in range(10):
        model, params = _random_instance(rng, 8)
        dense = outcome_probability(run_ansatz(model, params), optimal_bits(model))
        worst = max(worst, abs(dense - prob_opt(model, params)))
    yield (
        "statevector-agreement",
        worst <= 1e-10,
        f"max|product-dense|={worst:.3e} over 10 instances",
    )


def cmd_verify(ns) -> int:
    failures = 0
    total = 0
    for name, ok, detail in _verify_checks(ns.seed):
        total += 1
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    print(f"# checks={total} failures={failures}")
    return EXIT_OK if failures == 0 else EXIT_CHECK


_MODEL = (
    Option("model", str, help="comma-separated coefficients, e.g. 1,2,3"),
    Option("m", int, help="shorthand for the model 1,2,...,m"),
)
_OPTIMIZER = (
    Option("method", str, "portfolio", choices=("portfolio",) + METHODS),
    Option("budget", int, DEFAULT_BUDGET, "objective evaluations per restart"),
    Option("restarts", int, DEFAULT_RESTARTS),
    Option("seed", int, 1),
)
_ANGLES = "comma-separated angles; pi fractions allowed"

# (name, command, help, options); each table's order is its provenance order.
_COMMANDS = (
    ("prob", cmd_prob, "success probability at given angles", _MODEL + (
        Option("gamma", str, REQUIRED, _ANGLES),
        Option("beta", str, REQUIRED, _ANGLES),
        Option("log", _on_off, False, "also print the natural log"),
    )),
    ("optimize", cmd_optimize, "maximize the success probability", _MODEL + (
        Option("p", int, REQUIRED, "layer count"),
    ) + _OPTIMIZER),
    ("table", cmd_table, "probability/base grid over m and p", (
        Option("M", int, REQUIRED, "largest model size"),
        Option("P", int, REQUIRED, "largest layer count"),
    ) + _OPTIMIZER + (
        Option("out", str, help="CSV output path; stdout when omitted"),
    )),
    ("sample", cmd_sample, "trials-to-optimum sampling experiment", _MODEL + (
        Option("runs", int, REQUIRED),
        Option("auto", _on_off, False, "optimize angles first"),
        Option("gamma", str),
        Option("beta", str),
        Option("p", int, help="layer count for --auto"),
    ) + _OPTIMIZER + (
        Option("out", str, help="also write the report to this path"),
    )),
    ("emit-circuit", cmd_emit_circuit, "classical sign-reading circuit text", _MODEL + (
        Option("width", int, REQUIRED, "two's complement register width"),
        Option("out", str, help="output path; stdout when omitted"),
    )),
    ("verify", cmd_verify, "closed-form identity checks", (
        Option("seed", int, 1),
    )),
    ("scan", cmd_scan, "perfect-recovery scan over model size", (
        Option("p", int, REQUIRED),
        Option("m-max", int, REQUIRED),
    ) + _OPTIMIZER),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qaoa-linear",
        description="Success-probability workbench for the layered ansatz on linear models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_, options in _COMMANDS:
        p_ = sub.add_parser(name, help=help_)
        p_.add_argument("--config", help="key=value config file; flags override it")
        for opt in options:
            if opt.parse is _on_off:
                p_.add_argument(
                    f"--{opt.key}", action="store_true", default=None, help=opt.help
                )
            else:
                p_.add_argument(
                    f"--{opt.key}", type=opt.parse, choices=opt.choices, help=opt.help
                )
        p_.set_defaults(func=func, options=options)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        print(*_resolve(ns), sep="\n")
        return ns.func(ns)
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

"""Command-line workbench over the library.

Each command declares its options once, in a table of Option entries
(key, parse, default, help).  One entry builds the --key flag, parses
the key's value in a --config file, and writes the "# key=value
(source)" provenance line.  Values resolve flag > config > default; an
option whose default is REQUIRED has none, so omitting it is a usage
error, as is a config key that names no option of the command.  Every
option takes a value: there are no on/off flags.  A flag is accepted
only under its full name; argparse's prefix matching is off.

Once the options resolve, main prints their provenance lines, in table
order, before the command runs, so a captured output identifies the run
that produced it, even one that then fails.  Results are flat key=value
records; tables are CSV; --out writes to a file in place of stdout,
through a temporary file beside it that is created before the work
starts and renamed over it only when the command succeeds.  Exit
status: 0 success, 1 failed check or refused computation, 2 usage
error, 3 I/O error, 141 stdout closed by its reader (128 + SIGPIPE, as a
shell reports a writer stopped by a closed pipe).
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
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
    _cubic,
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
EXIT_PIPE = 141


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


def _specs(ns):
    if ns.method == "portfolio":
        return default_portfolio(seed=ns.seed, budget=ns.budget, restarts=ns.restarts)
    return (OptimizerSpec(ns.method, ns.budget, ns.seed, ns.restarts),)


@contextlib.contextmanager
def _output(path):
    """The stream --out names: stdout for None or "-", else a file for path.

    The file is a temporary one beside path, created now so that an
    unwritable path fails before the work, and renamed over path only
    when the block succeeds; a failed run leaves path as it was.
    """
    if path is None or path == "-":
        yield sys.stdout
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        out = open(tmp, "x", encoding="utf-8", newline="")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with out:
            yield out
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _record(**fields) -> str:
    """One key=value line per field, in order."""
    return "\n".join(f"{key}={_fmt(value)}" for key, value in fields.items())


def cmd_prob(ns) -> int:
    model = parse_model(ns.model)
    params = QaoaParams(parse_angle_list(ns.gamma), parse_angle_list(ns.beta))
    print(_record(
        prob_opt=prob_opt(model, params), log_prob_opt=log_prob_opt(model, params)
    ))
    return EXIT_OK


def cmd_optimize(ns) -> int:
    result = portfolio_maximize(parse_model(ns.model), ns.p, _specs(ns))
    print(_record(
        best_value=result.best_value,
        best_gammas=result.best_gammas,
        best_betas=result.best_betas,
        method=result.method,
        evaluations_used=result.evaluations_used,
    ))
    return EXIT_OK


def cmd_table(ns) -> int:
    with _output(ns.out) as out:
        table = build_tables(ns.M, ns.P, _specs(ns))
        out.write(table.to_csv())
    print(f"# cells={ns.M * ns.P}")
    for i, m in enumerate(table.m_values):
        for j, p in enumerate(table.p_values):
            if is_anomaly(m, p, table.prob[i, j]):
                print(f"# anomaly: m={m} p={p} prob={table.prob[i, j]:.6f}")
    return EXIT_OK


def cmd_sample(ns) -> int:
    """Sample at --gamma/--beta, or at the angles optimized for --p layers."""
    model = parse_model(ns.model)
    check_sampling_request(ns.runs, model.n)
    if ns.p is None:
        if ns.gamma is None or ns.beta is None:
            raise UsageError("sample needs --gamma and --beta, or --p")
        params = QaoaParams(parse_angle_list(ns.gamma), parse_angle_list(ns.beta))
    elif ns.gamma is not None or ns.beta is not None:
        raise UsageError("--p optimizes the angles; give --p or --gamma/--beta, not both")
    with _output(ns.out) as out:
        if ns.p is not None:
            best = portfolio_maximize(model, ns.p, _specs(ns))
            params = QaoaParams(best.best_gammas, best.best_betas)
        report = sample_until_optimum(model, params, ns.runs, seed=ns.seed)
        print(_record(
            model=format_model(report.model),
            gammas=report.params.gammas,
            betas=report.params.betas,
            true_prob=report.true_prob,
            runs=report.runs,
            mean_trials=report.mean_trials,
            ci95_halfwidth=report.ci95_halfwidth,
        ), file=out)
    return EXIT_OK


def cmd_emit_circuit(ns) -> int:
    model = parse_model(ns.model)
    with _output(ns.out) as out:
        out.write(emit_linear_solver_circuit(model, ns.width))
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
    residual = _cubic(root)
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
    yield (
        "p2-sine-residuals",
        all(abs(r) <= 1e-12 for r in (r1_pos, r1_neg, r1_zero, r2_zero))
        and all(abs(r) >= 0.8 for r in (r2_pos, r2_neg)),
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
    for total, (name, ok, detail) in enumerate(_verify_checks(ns.seed), start=1):
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    print(f"# checks={total} failures={failures}")
    return EXIT_OK if failures == 0 else EXIT_CHECK


_MODEL = (Option("model", str, REQUIRED, "comma-separated coefficients, e.g. 1,2,3"),)
_OPTIMIZER = (
    Option("method", str, "portfolio", choices=("portfolio",) + METHODS),
    Option("budget", int, DEFAULT_BUDGET, "objective evaluations per restart"),
    Option("restarts", int, DEFAULT_RESTARTS),
    Option("seed", int, 1),
)
_ANGLES = "comma-separated angles; pi fractions allowed"
_OUT = Option("out", str, help="write the result to this path instead of stdout")

# (name, command, help, options); each table's order is its provenance order.
_COMMANDS = (
    ("prob", cmd_prob, "success probability at given angles", _MODEL + (
        Option("gamma", str, REQUIRED, _ANGLES),
        Option("beta", str, REQUIRED, _ANGLES),
    )),
    ("optimize", cmd_optimize, "maximize the success probability", _MODEL + (
        Option("p", int, REQUIRED, "layer count"),
    ) + _OPTIMIZER),
    ("table", cmd_table, "probability/base grid over m and p", (
        Option("M", int, REQUIRED, "largest model size"),
        Option("P", int, REQUIRED, "largest layer count"),
    ) + _OPTIMIZER + (_OUT,)),
    ("sample", cmd_sample, "trials-to-optimum sampling experiment", _MODEL + (
        Option("runs", int, REQUIRED, "sample-until-success experiments"),
        Option("gamma", str, help=_ANGLES),
        Option("beta", str, help=_ANGLES),
        Option("p", int, help="layer count; optimize the angles instead of --gamma/--beta"),
    ) + _OPTIMIZER + (_OUT,)),
    ("emit-circuit", cmd_emit_circuit, "classical sign-reading circuit text", _MODEL + (
        Option("width", int, REQUIRED, "two's complement register width"),
        _OUT,
    )),
    ("verify", cmd_verify, "closed-form identity checks", (
        Option("seed", int, 1),
    )),
    ("scan", cmd_scan, "perfect-recovery scan over model size", (
        Option("p", int, REQUIRED, "layer count"),
        Option("m-max", int, REQUIRED, "largest model size"),
    ) + _OPTIMIZER),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qaoa-linear",
        description="Success-probability workbench for the layered ansatz on linear models",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_, options in _COMMANDS:
        p_ = sub.add_parser(name, help=help_, allow_abbrev=False)
        p_.add_argument("--config", help="key=value config file; flags override it")
        for opt in options:
            text = opt.help + " (required)" if opt.default is REQUIRED else opt.help
            p_.add_argument(f"--{opt.key}", type=opt.parse, choices=opt.choices, help=text)
        p_.set_defaults(func=func, options=options, parser=p_)
    return parser


def _stdout_to_devnull() -> None:
    """Point stdout's file descriptor, if it has one, at os.devnull."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns, extra = parser.parse_known_args(argv)
        if extra:  # reported with the command's usage, not the top-level one
            ns.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        try:
            print(*_resolve(ns), sep="\n")
            return ns.func(ns)
        finally:
            sys.stdout.flush()  # a closed stdout shows here, not at interpreter exit
    except BrokenPipeError:
        # the reader is gone; what is left unflushed goes to devnull, so the
        # interpreter's flush at exit stays silent
        _stdout_to_devnull()
        return EXIT_PIPE
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

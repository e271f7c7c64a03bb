"""Per-layer metrics of the traced run.

Three sources:
- direct timed calls of the kernels (gates, probability), made before the
  wrappers are installed, as the median of seven timed batches;
- spans of the workload's rounds, divided by the number of rounds;
- spans of a small fixed probe, run after the rounds, for every layer the
  workload itself does not call (the README lists which).
"""

from __future__ import annotations

import contextlib
import io
import math
import statistics
import time

import numpy as np

import qaoa_linear.cli as cli
import qaoa_linear.experiments as experiments
import qaoa_linear.gates as gates
import qaoa_linear.ising as ising
import qaoa_linear.optimizers as optimizers
import qaoa_linear.probability as probability
import qaoa_linear.statevector as statevector
from tracing import duration, self_times

BATCH_ROWS = 512
WIDE_COPIES = 660  # (1..7) x 660: 4620 qubits


def _per_call(fn, calls: int, repeats: int = 7) -> float:
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - t) / calls)
    return statistics.median(times)


def time_kernels(seed: int) -> dict:
    rng = np.random.default_rng([seed, 4])
    g4, b4 = rng.uniform(0.0, math.pi, 4), rng.uniform(0.0, math.pi, 4)
    params4 = probability.QaoaParams(tuple(g4), tuple(b4))
    m7, m2 = ising.consecutive(7), ising.consecutive(2)
    wide = ising.replicate(m7, WIDE_COPIES)
    wide_params = probability.QaoaParams(tuple(rng.uniform(0.0, math.pi, 1)), tuple(rng.uniform(0.0, math.pi, 1)))
    rows1 = rng.uniform(0.0, math.pi, (BATCH_ROWS, 1)), rng.uniform(0.0, math.pi, (BATCH_ROWS, 1))
    rows4 = rng.uniform(0.0, math.pi, (BATCH_ROWS, 4)), rng.uniform(0.0, math.pi, (BATCH_ROWS, 4))
    return {
        "gates.bit_amplitudes.us_per_call": 1e6 * _per_call(lambda: gates.bit_amplitudes(3.0, g4, b4), 4000),
        "probability.prob_opt.us_per_call.m7p4": 1e6 * _per_call(lambda: probability.prob_opt(m7, params4), 400),
        "probability.prob_opt_batch.us_per_row.m2p1": 1e6 / BATCH_ROWS
        * _per_call(lambda: probability.prob_opt_batch(m2, *rows1), 100),
        "probability.prob_opt_batch.us_per_row.m7p4": 1e6 / BATCH_ROWS
        * _per_call(lambda: probability.prob_opt_batch(m7, *rows4), 15),
        "probability.log_prob_opt.ms_per_call.wide": 1e3 * _per_call(lambda: probability.log_prob_opt(wide, wide_params), 3),
    }


def run_probe(tracer, needs_table: bool, needs_analysis: bool):
    """Small fixed calls into the layers the workload did not reach."""
    with tracer.span("probe"):
        if needs_table:
            argv = ["table", "--M", "3", "--P", "2", "--budget", "300", "--restarts", "2", "--seed", "1"]
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(argv) != 0:
                    raise RuntimeError(f"probe {' '.join(argv)} failed")
        if needs_analysis:
            model = ising.replicate(ising.consecutive(5), 4)
            params = probability.QaoaParams((0.3, 1.1, 2.0), (0.7, 0.2, 1.3))
            statevector.run_ansatz(model, params)
            sampled = ising.replicate(ising.consecutive(3), 17)
            experiments.sample_until_optimum(sampled, probability.QaoaParams((0.338103,), (math.pi / 4,)), 2000)


def _run_ansatz_bytes(n: int, p: int) -> int:
    """Bytes the layer loop's array operations read and write, per call.

    Per layer on N = 2^n amplitudes: the phase step reads the objective
    values (8N), writes the phase (16N), reads state and phase (32N) and
    writes the state (16N); each of the n mixing steps copies one half
    (16N) and reads and writes both halves (32N).
    """
    return p * (1 << n) * (72 + 48 * n)


def span_metrics(spans) -> dict:
    """Per-layer metrics from the recorded spans.

    A layer's figures come from the spans under the workload's rounds when
    the rounds reach it, and from the probe otherwise; totals are divided
    by the number of rounds (or probes) they came from.
    """
    own = self_times(spans)
    roots = []
    for s in spans:
        roots.append(s["id"] if s["parent"] is None else roots[s["parent"]])
    rounds = [s["id"] for s in spans if s["name"] == "round"]
    probes = [s["id"] for s in spans if s["name"] == "probe"]

    def pick(name, **want):
        """(matching spans, count of the roots they came from)."""
        for group in (rounds, probes):
            found = [
                s for s in spans
                if s["name"] == name and roots[s["id"]] in group
                and all(s["attrs"].get(k) == v for k, v in want.items())
            ]
            if found:
                return found, len(group)
        raise RuntimeError(f"no span {name} {want} in the rounds or the probe")

    out = {}
    for method in optimizers.METHODS:
        found, count = pick("optimizers.maximize", method=method)
        out[f"optimizers.{method}.self_s"] = sum(own[s["id"]] for s in found) / count
        out[f"optimizers.{method}.evals_per_s"] = sum(s["attrs"]["evals"] for s in found) / sum(
            duration(s) for s in found
        )
    found, _ = pick("optimizers.portfolio_maximize")
    out["optimizers.portfolio_maximize.s_per_cell"] = statistics.mean(duration(s) for s in found)
    tables, count = pick("experiments.build_tables")
    ids = {s["id"] for s in tables}
    span_s = sum(duration(s) for s in tables)
    cells_s = sum(duration(s) for s in spans if s["parent"] in ids and s["name"] == "optimizers.portfolio_maximize")
    out["experiments.build_tables.self_s"] = sum(own[s["id"]] for s in tables) / count
    out["experiments.build_tables.s"] = span_s / count
    out["experiments.build_tables.cells_s"] = cells_s / count
    out["experiments.build_tables.cell_overlap"] = cells_s / span_s
    found, _ = pick("experiments.sample_until_optimum")
    out["experiments.sample_until_optimum.preparations_per_s"] = sum(s["attrs"]["preparations"] for s in found) / sum(
        duration(s) for s in found
    )
    found, _ = pick("statevector.run_ansatz", n=20, p=3)
    out["statevector.run_ansatz.s.n20"] = statistics.median(duration(s) for s in found)
    found, _ = pick("statevector.run_ansatz")
    out["statevector.run_ansatz.gb_per_s_computed"] = sum(
        _run_ansatz_bytes(s["attrs"]["n"], s["attrs"]["p"]) for s in found
    ) / sum(duration(s) for s in found) / 1e9
    found, count = pick("cli.main", command="table")
    out["cli.table.self_s"] = sum(own[s["id"]] for s in found) / count
    return out


def needs(spans) -> tuple[bool, bool]:
    """Whether the probe must run its table part and its analysis part."""
    names = {(s["name"], s["attrs"].get("n"), s["attrs"].get("p")) for s in spans}
    table = not any(name == "cli.main" for name, _, _ in names)
    analysis = ("statevector.run_ansatz", 20, 3) not in names or not any(
        name == "experiments.sample_until_optimum" for name, _, _ in names
    )
    return table, analysis

"""One workload in a process of its own; started by run.py.

Builds the workload's inputs, runs whole rounds of its timed section until
--seconds have passed, checks every round, and prints one JSON line.
With --setup-only it stops after building the inputs; with --traced it
also times the kernels, records spans and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import time
from pathlib import Path

import speed


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--t0", type=float, required=True, help="CLOCK_MONOTONIC before the process was started")
    parser.add_argument("--src", required=True)
    parser.add_argument("--trace-file")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()

    # Set-up is short, so its probe samples ten times as often with a
    # loop a sixth as long.
    with speed.SpeedProbe(period_s=0.01, size=1000) as setup_probe:
        import qaoa_linear

        if not Path(qaoa_linear.__file__).resolve().is_relative_to(Path(args.src).resolve()):
            raise SystemExit(f"imported {qaoa_linear.__file__}, not the program under {args.src}")
        import workloads

        workload = workloads.WORKLOADS[args.workload](args.seed)
        raw_setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.t0 - workload.own_s
    setup_s = raw_setup_s / setup_probe.slowness()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0

    probe = speed.SpeedProbe()
    tracer = kernels = None
    if args.traced:
        import layers
        import tracing

        kernels = layers.time_kernels(args.seed)
        tracer = tracing.Tracer()
        tracer.install()

    rounds, slowness, found, best = [], [], [], []
    start = time.perf_counter()
    while True:
        with probe:
            t = time.perf_counter()
            if tracer is None:
                out = workload.run()
            else:
                with tracer.span("round"):
                    out = workload.run()
            rounds.append(time.perf_counter() - t)
        slowness.append(probe.slowness())
        found += workload.check(out)
        best = workload.best_probs(out)
        if time.perf_counter() - start >= args.seconds:
            break

    per_round = len(found) // len(rounds)
    peak_kib = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    result = {
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "rounds_s": rounds,
        "slowness": slowness,
        "raw_wall_s": statistics.median(rounds),
        "wall_s": statistics.median(r / k for r, k in zip(rounds, slowness)),
        "peak_rss_mib": peak_kib / 1024.0,
        "best_prob_mean": statistics.fmean(best),
        "attempted": len(found),
        "failed": sum(not c.ok for c in found),
        "unexpected": sorted({c.name for c in found if not c.ok and not c.known_fault}),
        "checks": {c.name: [c.ok, c.detail] for c in found[-per_round:]},
    }
    if tracer is not None:
        layers.run_probe(tracer, *layers.needs(tracer.spans))
        tracer.uninstall()
        result["layers"] = {**kernels, **layers.span_metrics(tracer.spans)}
        if args.trace_file:
            with open(args.trace_file, "w", encoding="utf-8") as fh:
                json.dump({"kernels": kernels, "spans": tracer.spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

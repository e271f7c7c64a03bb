"""Benchmark of qaoa-linear: the table, deep-cells and analysis workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload table --seed 1 --seconds 15 --trace 0

Every workload runs in single-threaded child processes (bench/child.py)
against the program in ./src.  With --trace 0 the run reports the
end-to-end metrics; with --trace 1 it runs the workload once plain and
once traced and reports the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("table", "deep-cells", "analysis")
SETUP_SAMPLES = 13
# Every run ends within 180 s; a child still running at this point is killed.
RUN_LIMIT_S = 170.0


class Child:
    def __init__(self, args, deadline: float):
        self.args = args
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("QAOA_LINEAR_THREADS", None)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"

    def __call__(self, *extra) -> dict:
        a = self.args
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        cmd = [
            sys.executable, str(BENCH / "child.py"), "--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--t0", repr(t0),
            "--src", str(SRC), *extra,
        ]
        proc = subprocess.run(
            cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, self.deadline - time.monotonic()),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"child {' '.join(extra) or 'run'} exited {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True, help="seed of the workload's inputs")
    parser.add_argument("--seconds", type=int, required=True, help="rounds repeat until this long has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, leave through SystemExit so that subprocess.run kills and
    # reaps the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "qaoa_linear" / "__init__.py").is_file():
        print(f"bench: no program at {SRC / 'qaoa_linear'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    child = Child(args, time.monotonic() + RUN_LIMIT_S)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace == 0:
        child("--setup-only")  # fills the bytecode caches; not counted
        setups = [child("--setup-only")["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
        runs = [child()]
        setups.append(runs[0]["setup_s"])
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": runs[0]["wall_s"],
            "peak_rss_mib": runs[0]["peak_rss_mib"],
            "best_prob_mean": runs[0]["best_prob_mean"],
        }
    else:
        runs = [child(), child("--traced", "--trace-file", str(OUT / f"spans-{stem}.json"))]
        values = {**runs[1]["layers"], "trace.overhead_s": runs[1]["wall_s"] - runs[0]["wall_s"]}

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    if {d["name"] for d in declared} != set(values):
        raise RuntimeError(f"measured {sorted(values)}, BENCHMARK.json declares {[d['name'] for d in declared]}")
    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared}
    result = {
        "correct": not any(r["unexpected"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }
    with open(OUT / f"result-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"result": result, "runs": runs}, fh, indent=1)
    for r in runs:
        for name, (ok, detail) in r["checks"].items():
            if not ok:
                print(f"FAIL {name}: {detail}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"rounds={sum(len(r['rounds_s']) for r in runs)} attempted={result['attempted']} failed={result['failed']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

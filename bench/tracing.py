"""Spans around calls into the program's public functions.

A Tracer replaces each traced name in the module that looks it up with a
wrapper that records (id, name, start, end, parent, attrs).  Spans stay in
memory; the traced run writes them out when it ends.  Only the traced
process installs the wrappers, and `uninstall` puts the originals back.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time


def _maximize_attrs(args, kwargs, result):
    spec = args[2] if len(args) > 2 else kwargs["spec"]
    return {"method": spec.method, "evals": result.evaluations_used}


def _portfolio_attrs(args, kwargs, result):
    return {"m": args[0].n, "p": args[1], "evals": result.evaluations_used}


def _run_ansatz_attrs(args, kwargs, result):
    return {"n": args[0].n, "p": args[1].p}


def _sample_attrs(args, kwargs, result):
    return {
        "runs": result.runs,
        "preparations": round(result.mean_trials * result.runs),
    }


def _cli_attrs(args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    return {"command": argv[0] if argv else None}


_PROBABILITY = (
    "prob_opt",
    "log_prob_opt",
    "prob_opt_batch",
    "prob_opt_replicated",
    "runtime_estimate",
)

# (module where the name is looked up, name, span name, attrs hook)
TRACED = (
    ("cli", "main", "cli.main", _cli_attrs),
    ("cli", "build_tables", "experiments.build_tables", None),
    ("experiments", "portfolio_maximize", "optimizers.portfolio_maximize", _portfolio_attrs),
    ("optimizers", "portfolio_maximize", "optimizers.portfolio_maximize", _portfolio_attrs),
    ("optimizers", "maximize", "optimizers.maximize", _maximize_attrs),
    ("optimizers", "prob_opt", "probability.prob_opt", None),
    ("optimizers", "prob_opt_batch", "probability.prob_opt_batch", None),
    ("experiments", "prob_opt", "probability.prob_opt", None),
    ("experiments", "sample_until_optimum", "experiments.sample_until_optimum", _sample_attrs),
    ("statevector", "run_ansatz", "statevector.run_ansatz", _run_ansatz_attrs),
) + tuple(("probability", name, f"probability.{name}", None) for name in _PROBABILITY)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """A span the benchmark opens itself, around a round or a probe."""
        record = self._open(name, attrs)
        try:
            yield record
        finally:
            self._close(record)

    def _open(self, name, attrs) -> dict:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        return record

    def _close(self, record):
        record["end"] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                # Outside every benchmark span: the checks' own calls.
                return fn(*args, **kwargs)
            record = self._open(name, {})
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if hook is not None:
                record["attrs"] = hook(args, kwargs, result)
            return result

        return traced

    def install(self):
        for module_name, attr, span_name, hook in TRACED:
            module = importlib.import_module(f"qaoa_linear.{module_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name, hook))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def duration(span) -> float:
    return span["end"] - span["start"]


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    The program is single-threaded, so children of one span never overlap
    and their durations add up to the covered time.
    """
    own = [duration(s) for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= duration(s)
    return own

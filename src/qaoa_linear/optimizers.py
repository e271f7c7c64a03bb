"""Derivative-free maximization of the success probability over angles.

Four methods behind one interface: Nelder-Mead with restart-on-collapse,
differential evolution (rand/1/bin), simulated annealing, and uniform
random search.  All draw from counter-based Philox streams keyed by
(seed, method, restart), so results are bitwise reproducible and a run
with a smaller budget is an exact prefix of a longer run with the same
seed.  Budgets count objective evaluations, nothing else.

All four methods score points through one objective, built once per
maximize call over probability.qubit_kernel, the same kernel prob_opt
reduces: every value is prob_opt's, bit for bit.  Every restart of every
method spends exactly its budget.

Every method has one call shape, runner(objective, rngs, hi, budget) ->
(values, points) over all of its restarts, held in _RUNNERS in METHODS
order: maximize builds the restart streams once and makes one call.
Nelder-Mead and annealing propose one point at a time.  Each of their
restarts is an endless generator that yields the point it wants scored,
receives its value and never sees the budget.  _run_lockstep advances
all restarts of one method together, one objective call scoring the
pending point of every restart, and stops them after `budget` steps.
Each restart keeps its own stream and running best, so the results are
bit for bit those of running the restarts one after another, which is
what _run_each does for differential evolution and random search.

portfolio_maximize maps maximize over its specs with pool_map, the one
place work crosses processes; the table's cell loop maps over cells
through it the same way.  Every split ships whole calls of existing
functions, each call is deterministic, and results come back in job
order, so the bits cannot depend on the split.  portfolio_maximize
validates p and the phase before the map, so a bad input is refused
before anything is submitted.  The trade: a single spec runs in one
process, and the default portfolio uses at most four.

pool_map(fn, jobs) runs serially, [fn(*job) for job in jobs], outside a
pool, at one usable CPU, or with one job.  Otherwise it splits over
min(usable CPUs, len(jobs)) processes, the caller included, and the
jobs are pulled, never pushed: the map makes its own (front, back)
counter, set to [1, len(jobs)), and its own workers, each running one
_drain, which takes the next index from the front until the counter is
empty, and the caller runs job 0, then takes indices from the back (the
two-ended scheme of Blumofe and Leiserson, J. ACM 46(5), 1999, in its
smallest form).  So no job waits in a queue, and when the caller finds
the counter empty, only the jobs the workers are running remain.
Results come back in job order.  A job that raises, in the caller or in
a worker, empties the counter, as does Ctrl-C in the caller, so every
worker stops after its current job; the map reaps its workers before it
returns or raises.  The counter is a shared array, handed to each
worker as it starts: a lock cannot travel through submit.  While the
caller runs its share, no pool is open to it, so a map nested in a job
(the members of a cell's portfolio) runs serially rather than queueing
behind the cells; a worker process never has a pool.
The caller runs whole jobs, not a part of each, so whatever wraps calls
in the calling process, a profiler or a tracer, sees complete calls: a
cell run there makes its portfolio_maximize call, and one maximize call
per method, in this process, and a portfolio split over its members
makes there the maximize calls it runs itself.

The workers come from the forkserver start method, chosen explicitly:
they fork from a server process that runs none of our work, never from
the caller, whose OpenBLAS threads may be busy at the moment of a fork,
and a fork after OpenBLAS has started its threads can hang the child.
Python 3.12 warns on a fork of a multi-threaded process, and 3.14 no
longer forks by default.  The forkserver and multiprocessing's resource
tracker outlive the map that started them, until the interpreter
exits.  The library is serial unless a caller opens a pool.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import operator
import os
import signal
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial, reduce
from numbers import Integral

import numpy as np

from .errors import QaoaLinearError, ResourceLimitError, positive_int
from .gates import _check_phase
from .ising import LinearIsing
# bench/tracing.py wraps prob_opt and prob_opt_batch here, so both stay imported.
from .probability import prob_opt, prob_opt_batch, qubit_kernel  # noqa: F401

METHODS = (
    "nelder-mead",
    "differential-evolution",
    "simulated-annealing",
    "random-search",
)

DEFAULT_BUDGET = 20000
DEFAULT_RESTARTS = 8
# maximize builds one Philox generator per restart (about 0.7 KB each) before
# scoring anything, and a restart's stream word needs restart < 2**32
MAX_RESTARTS = 1 << 16

# Nelder-Mead shape coefficients: reflection, expansion, contraction, shrink
_NM_COEFFS = (1.0, 2.0, 0.5, 0.5)
_NM_EDGE = math.pi / 8.0
_NM_COLLAPSE = 1e-10

_DE_WEIGHT = 0.7
_DE_CROSSOVER = 0.9
_DE_POP_PER_DIM = 15

_SA_SIGMA = (math.pi / 4.0, 1e-4)
_SA_TEMP = (0.1, 1e-8)
_SA_CYCLE = 500

_RS_CHUNK = 512


@dataclass(frozen=True)
class OptimizerSpec:
    """One method's configuration; budget is per restart, and every
    restart spends all of it: evaluations_used = restarts x budget.
    Raises ResourceLimitError when restarts is above MAX_RESTARTS."""

    method: str
    budget: int = DEFAULT_BUDGET
    seed: int = 1
    restarts: int = DEFAULT_RESTARTS

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(
                f"unknown method {self.method!r}; choose from {', '.join(METHODS)}"
            )
        object.__setattr__(self, "budget", positive_int(self.budget, "budget"))
        object.__setattr__(self, "restarts", positive_int(self.restarts, "restarts"))
        if self.restarts > MAX_RESTARTS:
            raise ResourceLimitError(
                f"restarts {self.restarts} is above MAX_RESTARTS = {MAX_RESTARTS}"
            )
        object.__setattr__(self, "seed", _seed_int(self.seed))


@dataclass(frozen=True)
class OptimizationResult:
    best_value: float
    best_gammas: tuple[float, ...]
    best_betas: tuple[float, ...]
    evaluations_used: int
    method: str


def default_portfolio(
    seed: int = 1, budget: int = DEFAULT_BUDGET, restarts: int = DEFAULT_RESTARTS
) -> tuple[OptimizerSpec, ...]:
    """All four methods with shared seed, budget, and restart count."""
    return tuple(OptimizerSpec(m, budget, seed, restarts) for m in METHODS)


def gamma_period(model: LinearIsing):
    """Exact period of the landscape in each gamma, or None if unknown.

    The per-qubit amplitude picks up only a global sign when every
    gamma shifts by pi*t with t*a_l integral for all coefficients, so for
    rational coefficients p_l/q_l the period is pi*lcm(q)/gcd(p).
    Returns None when coefficients are not near small rationals or the
    period exceeds 16*pi.
    """
    nums, dens = [], []
    for a in model.coeffs:
        frac = Fraction(a).limit_denominator(64)
        if frac == 0 or abs(float(frac) - a) > 1e-12:
            return None
        nums.append(abs(frac.numerator))
        dens.append(frac.denominator)
    t = Fraction(math.lcm(*dens), math.gcd(*nums))
    period = math.pi * float(t)
    if period > 16.0 * math.pi:
        return None
    return period


def _seed_int(seed) -> int:
    """int(seed); ValueError unless seed is an integer (numpy's too) and not a bool."""
    if isinstance(seed, bool) or not isinstance(seed, Integral):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    return int(seed)


def philox(seed: int, word: int) -> np.random.Generator:
    """The one seed-to-stream rule: the Philox stream keyed by (seed mod 2**64, word)."""
    key = np.array([_seed_int(seed) % (1 << 64), word], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _make_rng(seed: int, method_id: int, restart: int) -> np.random.Generator:
    # Independent stream per (seed, method, restart); restart < MAX_RESTARTS < 2**32.
    return philox(seed, (method_id << 32) | restart)


def _place(verts, vals, x, fx):
    """Insert vertex x, of value fx, after every vertex whose value is at
    least fx; a NaN goes last.  Placed one at a time, the vertices stand
    in the order np.argsort(-vals, kind="stable") gives."""
    i = len(vals)
    if fx == fx:  # not NaN
        while i and not vals[i - 1] >= fx:
            i -= 1
    verts.insert(i, x)
    vals.insert(i, fx)


def _nelder_mead(rng, hi):
    """Downhill simplex (maximizing), restarted on collapse.

    An endless generator: yields each point to score, as a list, and
    receives its value.  The caller stops it after its budget.

    The simplex is a list of vertex lists on Python floats, kept best
    first by _place, one tie rule for every vertex (Lagarias et al.,
    SIAM J. Optim. 9, 112 (1998)): a new vertex goes after the vertices
    of equal value, so a shrink keeps the best ahead of its ties, and a
    NaN goes last.
    """
    dim = hi.size
    refl, expa, contr, shrink = _NM_COEFFS
    while True:
        x0 = rng.uniform(0.0, hi).tolist()  # never -0.0, so x0 + 0.0 is x0
        verts, vals = [], []
        for x in [x0] + [x0[:i] + [x0[i] + _NM_EDGE] + x0[i + 1:] for i in range(dim)]:
            _place(verts, vals, x, (yield x))
        while True:
            best = verts[0]
            if all(abs(a - b) < _NM_COLLAPSE for vert in verts[1:] for a, b in zip(vert, best)):
                break  # collapsed: reseed a fresh simplex
            # reduce(add) sums left to right as np.add.reduce does; sum() compensates from 3.12
            centroid = [reduce(operator.add, col) / dim for col in zip(*verts[:-1])]
            span = [c - w for c, w in zip(centroid, verts[-1])]
            xr = [c + refl * s for c, s in zip(centroid, span)]
            fr = yield xr
            if fr > vals[0]:
                xe = [c + expa * s for c, s in zip(centroid, span)]
                fe = yield xe
                x, fx = (xe, fe) if fe > fr else (xr, fr)
            elif fr > vals[-2]:
                x, fx = xr, fr
            else:
                if fr > vals[-1]:
                    xc = [c + contr * refl * s for c, s in zip(centroid, span)]
                else:
                    xc = [c - contr * s for c, s in zip(centroid, span)]
                fc = yield xc
                if fc > max(fr, vals[-1]):
                    x, fx = xc, fc
                else:
                    shrunk = [[a + shrink * (b - a) for a, b in zip(best, v)] for v in verts[1:]]
                    del verts[1:], vals[1:]
                    for x in shrunk:
                        _place(verts, vals, x, (yield x))
                    continue
            del verts[-1], vals[-1]  # the new vertex replaces the worst
            _place(verts, vals, x, fx)


def _simulated_annealing(rng, hi):
    """Gaussian-proposal annealing with wrap-around into the box.

    Step size and temperature cool geometrically over a fixed 500-step
    cycle, after which the walk reheats from the best point this restart
    has seen.  The schedule depends only on the step index, never on the
    requested budget, so shorter runs are exact prefixes of longer runs
    with the same seed; one complete cycle is enough to refine a basin
    to roughly the final step size.  An endless generator, like
    _nelder_mead.
    """
    steps = _SA_CYCLE - 1
    sig_rate = (_SA_SIGMA[1] / _SA_SIGMA[0]) ** (1.0 / steps)
    t_rate = (_SA_TEMP[1] / _SA_TEMP[0]) ** (1.0 / steps)
    x = rng.uniform(0.0, hi)
    fx = yield x
    best_x, best_f = x, fx
    for k in itertools.count():
        j = k % _SA_CYCLE
        if j == 0 and k:
            x, fx = best_x, best_f
        sigma = _SA_SIGMA[0] * sig_rate**j
        temp = _SA_TEMP[0] * t_rate**j
        cand = (x + rng.normal(0.0, sigma, hi.size)) % hi
        fc = yield cand
        if fc >= fx or rng.random() < math.exp((fc - fx) / temp):
            x, fx = cand, fc
        if fc > best_f:
            best_x, best_f = cand, fc


def _de_draws(rng, pop_size, dim):
    """One generation's mutation indices and crossover masks.

    Row i holds three distinct indices in [0, pop_size - 1), uniform over
    ordered triples, and a mask with at least one True column.
    """
    n = pop_size - 1
    idx = rng.integers(0, (n, n - 1, n - 2), size=(pop_size, 3))
    i0, i1, i2 = idx.T  # views: each shift skips the indices already taken
    i1 += i1 >= i0
    i2 += i2 >= np.minimum(i0, i1)
    i2 += i2 >= np.maximum(i0, i1)
    mask = rng.random((pop_size, dim)) < _DE_CROSSOVER
    mask[np.arange(pop_size), rng.integers(dim, size=pop_size)] = True
    return idx, mask


def _keep_best(best, xs, vals):
    """best, or (value, point) of the first maximum of vals if it beats best."""
    i = int(np.argmax(vals))
    if vals[i] > best[0]:
        return float(vals[i]), xs[i].copy()
    return best


def _differential_evolution(fbatch, rng, hi, budget):
    """rand/1/bin with F = 0.7, CR = 0.9, trial points clipped to the box.

    The first population and the last generation are cut to the budget;
    a cut generation still draws whole, so a larger budget repeats a
    smaller one's points.  Returns the best (value, point).
    """
    dim = hi.size
    pop_size = _DE_POP_PER_DIM * dim
    pop = rng.uniform(0.0, hi, (pop_size, dim))
    vals = fbatch(pop[:budget])
    best = _keep_best((-math.inf, None), pop, vals)
    for used in range(pop_size, budget, pop_size):
        m = min(pop_size, budget - used)
        idx, mask = _de_draws(rng, pop_size, dim)
        idx, mask = idx[:m], mask[:m]
        idx += idx >= np.arange(m)[:, None]  # never pick the parent
        mutant = pop[idx[:, 0]] + _DE_WEIGHT * (pop[idx[:, 1]] - pop[idx[:, 2]])
        trials = np.where(mask, np.clip(mutant, 0.0, hi), pop[:m])
        trial_vals = fbatch(trials)
        best = _keep_best(best, trials, trial_vals)
        better = trial_vals > vals[:m]
        pop[:m][better] = trials[better]
        vals[:m][better] = trial_vals[better]
    return best


def _random_search(fbatch, rng, hi, budget):
    """Uniform sampling of the box, evaluated in chunks; returns the best
    (value, point)."""
    best = (-math.inf, None)
    for used in range(0, budget, _RS_CHUNK):
        xs = rng.uniform(0.0, hi, (min(_RS_CHUNK, budget - used), hi.size))
        best = _keep_best(best, xs, fbatch(xs))
    return best


def _run_lockstep(method, fbatch, rngs, hi, budget):
    """Advance every restart of a point-at-a-time method together.

    Runs exactly budget steps.  Each step scores the pending point of
    every restart in one objective call and sends each restart its
    value.  Returns each restart's best value and point, as two arrays
    in restart order; a strict > keeps a restart's earliest best.
    """
    restarts = [method(rng, hi) for rng in rngs]
    points = np.array([next(restart) for restart in restarts])
    best_vals = np.full(len(restarts), -math.inf)
    best_xs = points.copy()
    for step in range(budget):
        if step:
            points = np.array([r.send(v) for r, v in zip(restarts, values.tolist())])
        values = fbatch(points)
        better = values > best_vals
        if better.any():  # cheaper than two masked copies on most steps
            best_vals[better] = values[better]
            best_xs[better] = points[better]
    return best_vals, best_xs


def _run_each(method, fbatch, rngs, hi, budget):
    """Run a batch-at-a-time method's restarts one after another; returns
    their best values and points, as two arrays in restart order."""
    values, points = zip(*(method(fbatch, rng, hi, budget) for rng in rngs))
    return np.array(values), np.array(points)


# runner(objective, rngs, hi, budget) -> (values, points) over all restarts, in METHODS order
_RUNNERS = (
    partial(_run_lockstep, _nelder_mead),
    partial(_run_each, _differential_evolution),
    partial(_run_lockstep, _simulated_annealing),
    partial(_run_each, _random_search),
)


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_pool: int | None = None  # the process count of the innermost open worker_pool
_counter = None  # in a worker process, its map's shared counter


def _start_worker(counter):
    # Ctrl-C reaches the whole process group; the caller alone handles it,
    # empties the counter and shuts the pool down.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    global _counter
    _counter = counter


def _take(counter, back: bool = False):
    """The next index of counter's [front, back) range, taken from its
    front or its back, or None once the range is empty."""
    with counter.get_lock():
        ends = counter.get_obj()
        if ends[0] >= ends[1]:
            return None
        if back:
            ends[1] -= 1
            return ends[1]
        ends[0] += 1
        return ends[0] - 1


def _empty(counter):
    """Take every index left, so that each worker stops after its current job."""
    with counter.get_lock():
        ends = counter.get_obj()
        ends[1] = ends[0]


def _drain(fn, jobs: list) -> dict:
    """A worker's share of a map: {k: fn(*jobs[k])} for each index k it
    takes from the front of the counter, until the counter is empty."""
    done = {}
    try:
        while (k := _take(_counter)) is not None:
            done[k] = fn(*jobs[k])
    except BaseException:
        _empty(_counter)
        raise
    return done


@contextlib.contextmanager
def worker_pool():
    """Split the pool_map calls in the block over usable_cpus() processes.

    The calling process is one of them.  A split map of k jobs starts
    min(usable_cpus(), k) - 1 workers by the forkserver method and reaps
    them before it returns or raises, each after the job it is running:
    a block that splits nothing starts none, and one that splits several
    maps starts workers for each.  Results are bit for bit those of the
    serial path.  The forkserver imports the main module, so a script
    that opens a pool needs the `if __name__ == "__main__":` guard;
    without it the pool breaks, and the map raises QaoaLinearError.
    """
    global _pool
    outer, _pool = _pool, usable_cpus()
    try:
        yield
    finally:
        _pool = outer


def pool_map(fn, jobs: list) -> list:
    """[fn(*job) for job in jobs], with the jobs shared with the map's workers.

    Inside worker_pool, a map of two or more jobs splits over
    min(usable_cpus(), len(jobs)) processes, the caller included, unless
    it is nested in a job the caller runs.  A split map starts its own
    workers and counter, and ends them before it returns or raises.
    When the map splits, fn and the jobs must pickle.  An exception from
    a job propagates wherever it ran, and no job starts after it.  See
    the module docstring for the order of work.
    """
    global _pool
    workers = _pool
    processes = 0 if workers is None else min(workers, len(jobs))
    if processes < 2:
        return [fn(*job) for job in jobs]
    # imported here: a serial caller never loads the pool machinery
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    context = multiprocessing.get_context("forkserver")
    # a SemLock cannot travel through submit, only to a starting process
    counter = context.Array("q", [1, len(jobs)])
    done = {}
    _pool = None  # a map inside the caller's share runs serially
    try:
        with ProcessPoolExecutor(
            processes - 1, mp_context=context, initializer=_start_worker, initargs=(counter,)
        ) as executor:
            try:
                drains = [executor.submit(_drain, fn, jobs) for _ in range(processes - 1)]
                done[0] = fn(*jobs[0])
                while (k := _take(counter, back=True)) is not None:
                    done[k] = fn(*jobs[k])
                for drain in drains:
                    done.update(drain.result())
            except BaseException:
                _empty(counter)  # leaving the with waits for each worker's current job
                raise
    except BrokenProcessPool as exc:
        raise QaoaLinearError(
            "a worker process died before returning its work; every worker "
            "imports the main module, so a script that runs the optimizer needs "
            'the `if __name__ == "__main__":` guard'
        ) from exc
    finally:
        _pool = workers
    return [done[k] for k in range(len(jobs))]


def _box(model: LinearIsing, p) -> np.ndarray:
    """The far corner of maximize's angle box, [G]*p + [pi]*p; raises
    ValueError on a bad layer count or a phase G*a that overflows."""
    p = positive_int(p, "layer count")
    period = gamma_period(model)
    gamma_box = period if period is not None else 2.0 * math.pi
    _check_phase(gamma_box, model.coeffs)
    return np.array([gamma_box] * p + [math.pi] * p)


def maximize(model: LinearIsing, p: int, spec: OptimizerSpec) -> OptimizationResult:
    """Run one method over the angle box and return its best point.

    The box is [0, G)^p x [0, pi)^p with G the model's gamma period when
    known (pi for integer coefficients), else 2*pi; the landscape is
    periodic in every coordinate, so with a known period the box covers
    all attainable values.  Every restart spends exactly spec.budget
    evaluations, and ties between restarts keep the earliest.  The
    reported best_value is the value the search measured at the returned
    angles, which is prob_opt's there, bit for bit.  Nelder-Mead starts
    inside the box but is not confined to it (reflection can step out),
    so reported angles may lie outside the box, and without a known gamma
    period they need not equal an in-box point.
    """
    hi = _box(model, p)
    p = hi.size // 2
    kernel = qubit_kernel(model)

    def objective(xs: np.ndarray) -> np.ndarray:
        return np.multiply.reduce(kernel(xs[:, :p], xs[:, p:]), axis=0)

    method_id = METHODS.index(spec.method)
    rngs = [_make_rng(spec.seed, method_id, restart) for restart in range(spec.restarts)]
    # Nelder-Mead can reflect past the box, where gamma*a overflows: such a
    # point scores NaN, which never beats a running best, so nothing changes.
    with np.errstate(over="ignore", invalid="ignore"):
        values, points = _RUNNERS[method_id](objective, rngs, hi, spec.budget)
    i = int(np.argmax(values))
    best = points[i].tolist()
    return OptimizationResult(
        best_value=float(values[i]),
        best_gammas=tuple(best[:p]),
        best_betas=tuple(best[p:]),
        evaluations_used=spec.restarts * spec.budget,
        method=spec.method,
    )


def portfolio_maximize(model: LinearIsing, p: int, specs) -> OptimizationResult:
    """Best result across several specs, ties keeping the earliest spec;
    its evaluations_used is the sum over the specs.  Inside worker_pool
    the specs are split over its processes by pool_map, with the same
    result; a bad p or model is refused before any of them runs."""
    specs = tuple(specs)
    if not specs:
        raise ValueError("portfolio needs at least one OptimizerSpec")
    _box(model, p)
    results = pool_map(maximize, [(model, p, spec) for spec in specs])
    best = max(results, key=lambda result: result.best_value)  # first of equals
    return replace(best, evaluations_used=sum(r.evaluations_used for r in results))

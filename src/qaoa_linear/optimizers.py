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

Nelder-Mead and annealing propose one point at a time.  Each of their
restarts is an endless generator that yields the point it wants scored,
receives its value and never sees the budget.  All restarts of one
method advance in lockstep, one objective call scoring the pending point
of every restart, and stop together after `budget` steps.  Each restart
keeps its own stream and running best, so the results are bit for bit
those of running the restarts one after another.

Differential evolution draws each generation's mutation indices and
crossover masks from one block of raw Philox words and decodes them with
array operations into exactly what per-individual choice, random and
integers calls draw (_de_draws).  This relies on numpy internals: Lemire
bounded draws on 32-bit halves of raw words, buffered in the bit
generator's has_uint32/uinteger state; Floyd's algorithm and a two-swap
shuffle in choice; doubles as (x >> 11) * 2**-53.  A rejected bounded
draw or a half-full buffer falls back to the per-individual calls.
TestDifferentialEvolutionDraws in tests/test_optimizers.py pins these
internals.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from numbers import Integral

import numpy as np

from .errors import positive_int
from .ising import LinearIsing
# bench/tracing.py wraps prob_opt and prob_opt_batch here, so both stay imported.
from .probability import QaoaParams, prob_opt, prob_opt_batch, qubit_kernel  # noqa: F401

METHODS = (
    "nelder-mead",
    "differential-evolution",
    "simulated-annealing",
    "random-search",
)
_METHOD_IDS = {name: i for i, name in enumerate(METHODS)}

DEFAULT_BUDGET = 20000
DEFAULT_RESTARTS = 8

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
    restart spends all of it: evaluations_used = restarts x budget."""

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
    # Independent stream per (seed, method, restart); restart < 2**32.
    return philox(seed, (method_id << 32) | restart)


def _nelder_mead(rng, hi):
    """Downhill simplex (maximizing), restarted on collapse.

    An endless generator: yields each point to score and receives its
    value.  The caller stops it after its budget.
    """
    dim = hi.size
    refl, expa, contr, shrink = _NM_COEFFS
    while True:
        x0 = rng.uniform(0.0, hi)
        verts = [x0]
        for i in range(dim):
            v = x0.copy()
            v[i] += _NM_EDGE
            verts.append(v)
        vals = []
        for v in verts:
            vals.append((yield v))
        verts = np.array(verts)
        vals = np.array(vals)
        while True:
            order = np.argsort(-vals)
            verts = verts[order]
            vals = vals[order]
            if np.abs(verts - verts[0]).max() < _NM_COLLAPSE:
                break  # collapsed: reseed a fresh simplex
            centroid = np.add.reduce(verts[:-1], axis=0) / dim  # = .mean(axis=0), same bits
            span = centroid - verts[-1]
            xr = centroid + refl * span
            fr = yield xr
            if fr > vals[0]:
                xe = centroid + expa * span
                fe = yield xe
                if fe > fr:
                    verts[-1], vals[-1] = xe, fe
                else:
                    verts[-1], vals[-1] = xr, fr
            elif fr > vals[-2]:
                verts[-1], vals[-1] = xr, fr
            else:
                if fr > vals[-1]:
                    xc = centroid + contr * refl * span
                else:
                    xc = centroid - contr * span
                fc = yield xc
                if fc > max(fr, vals[-1]):
                    verts[-1], vals[-1] = xc, fc
                else:
                    for i in range(1, len(verts)):
                        verts[i] = verts[0] + shrink * (verts[i] - verts[0])
                        vals[i] = yield verts[i]


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


def _de_loop_draws(rng, m, pop_size, dim):
    """Mutation indices in [0, pop_size - 1) and crossover masks of m
    individuals, drawn one individual at a time in stream order."""
    idx = np.empty((m, 3), dtype=np.int64)
    mask = np.empty((m, dim), dtype=bool)
    for i in range(m):
        idx[i] = rng.choice(pop_size - 1, 3, replace=False)
        mask[i] = rng.random(dim) < _DE_CROSSOVER
        mask[i, rng.integers(dim)] = True
    return idx, mask


def _lemire_rejects(leftover, bounds) -> bool:
    """Whether numpy's bounded 32-bit draw would redraw any of these."""
    return bool((leftover < (2**32 - bounds) % bounds).any())


def _de_draws(rng, m, pop_size, dim):
    """_de_loop_draws decoded from one block of raw Philox words, bit for bit.

    Each individual of the loop makes six bounded draws through numpy's
    Lemire method, (u32 * bound) >> 32, on 32-bit halves of raw words,
    low half first: choice's Floyd draws with bounds n - 2, n - 1, n
    (n = pop_size - 1) and its shuffle's two swaps with bounds 3 and 2,
    then integers(dim).  Between the fifth and the sixth come dim doubles
    (x >> 11) * 2**-53, one raw word each, which leave the 32-bit buffer
    holding the sixth draw.  With that buffer empty, an individual is
    therefore three words of bounded draws and dim words of doubles.
    When the buffer is not empty, or a draw would be rejected (about one
    in 10**8), the state is restored and the loop draws instead.
    Needs dim >= 2 (dim = 2p), so that integers(dim) draws.
    """
    bitgen = rng.bit_generator
    before = bitgen.state
    if not before["has_uint32"]:
        words = bitgen.random_raw(m * (3 + dim)).reshape(m, 3 + dim)
        halves = np.stack((words[:, :3] & 0xFFFFFFFF, words[:, :3] >> 32), axis=2)
        n = pop_size - 1
        bounds = np.array([n - 2, n - 1, n, 3, 2, dim], dtype=np.uint64)
        scaled = halves.reshape(m, 6) * bounds
        if not _lemire_rejects(scaled & 0xFFFFFFFF, bounds):
            r = (scaled >> 32).astype(np.int64)
            # Floyd: the draw at step j is kept unless already taken, then j.
            idx = r[:, :3].copy()
            idx[idx[:, 1] == idx[:, 0], 1] = n - 2
            idx[(idx[:, 2] == idx[:, 0]) | (idx[:, 2] == idx[:, 1]), 2] = n - 1
            rows = np.arange(m)
            for i, col in ((2, 3), (1, 4)):  # shuffle: swap i with r[:, col]
                held = idx[rows, r[:, col]]
                idx[rows, r[:, col]] = idx[:, i]
                idx[:, i] = held
            mask = (words[:, 3:] >> 11) * 2.0**-53 < _DE_CROSSOVER
            mask[rows, r[:, 5]] = True
            after = bitgen.state
            after["uinteger"] = int(words[-1, 2] >> 32)  # the loop leaves it spent
            bitgen.state = after
            return idx, mask
        bitgen.state = before
    return _de_loop_draws(rng, m, pop_size, dim)


def _keep_best(best, xs, vals):
    """best, or (value, point) of the first maximum of vals if it beats best."""
    i = int(np.argmax(vals))
    if vals[i] > best[0]:
        return float(vals[i]), xs[i].copy()
    return best


def _differential_evolution(fbatch, rng, hi, budget):
    """rand/1/bin with F = 0.7, CR = 0.9, trial points clipped to the box.

    The first population and the last generation are cut to the budget.
    Returns the best (value, point).
    """
    dim = hi.size
    pop_size = _DE_POP_PER_DIM * dim
    pop = rng.uniform(0.0, hi, (pop_size, dim))
    vals = fbatch(pop[:budget])
    best = _keep_best((-math.inf, None), pop, vals)
    for used in range(pop_size, budget, pop_size):
        m = min(pop_size, budget - used)
        idx, mask = _de_draws(rng, m, pop_size, dim)
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


_LOCKSTEP = {0: _nelder_mead, 2: _simulated_annealing}
_BATCHED = {1: _differential_evolution, 3: _random_search}


def _run_lockstep(runner, fbatch, spec: OptimizerSpec, hi):
    """Advance every restart of a point-at-a-time method together.

    Runs exactly spec.budget steps.  Each step scores the pending point
    of every restart in one objective call and sends each restart its
    value.  Returns each restart's best value and point, as two arrays
    in restart order; a strict > keeps a restart's earliest best.
    """
    method_id = _METHOD_IDS[spec.method]
    restarts = [
        runner(_make_rng(spec.seed, method_id, restart), hi)
        for restart in range(spec.restarts)
    ]
    points = np.array([next(restart) for restart in restarts])
    best_vals = np.full(spec.restarts, -math.inf)
    best_xs = points.copy()
    for step in range(spec.budget):
        if step:
            points = np.array([r.send(v) for r, v in zip(restarts, values.tolist())])
        values = fbatch(points)
        better = values > best_vals
        if better.any():  # cheaper than two masked copies on most steps
            best_vals[better] = values[better]
            best_xs[better] = points[better]
    return best_vals, best_xs


def maximize(model: LinearIsing, p: int, spec: OptimizerSpec) -> OptimizationResult:
    """Run one method over the angle box and return its best point.

    The box is [0, G)^p x [0, pi)^p with G the model's gamma period when
    known (pi for integer coefficients), else 2*pi; the landscape is
    periodic in every coordinate, so with a known period the box covers
    all attainable values.  Every restart spends exactly spec.budget
    evaluations, and ties between restarts keep the earliest.  The
    reported best_value is re-evaluated through prob_opt at the returned
    angles.  Nelder-Mead starts inside the box but is not confined to it
    (reflection can step out); reported angles are then equivalent to an
    in-box point modulo the period.
    """
    p = positive_int(p, "layer count")
    method_id = _METHOD_IDS[spec.method]
    period = gamma_period(model)
    gamma_box = period if period is not None else 2.0 * math.pi
    hi = np.array([gamma_box] * p + [math.pi] * p)
    kernel = qubit_kernel(model)

    def objective(xs: np.ndarray) -> np.ndarray:
        return np.multiply.reduce(kernel(xs[:, :p], xs[:, p:]), axis=0)

    if method_id in _LOCKSTEP:
        values, points = _run_lockstep(_LOCKSTEP[method_id], objective, spec, hi)
    else:
        runner = _BATCHED[method_id]
        values, points = zip(*(
            runner(objective, _make_rng(spec.seed, method_id, restart), hi, spec.budget)
            for restart in range(spec.restarts)
        ))
    best = points[int(np.argmax(values))]
    params = QaoaParams(tuple(best[:p]), tuple(best[p:]))
    return OptimizationResult(
        best_value=prob_opt(model, params),
        best_gammas=params.gammas,
        best_betas=params.betas,
        evaluations_used=spec.restarts * spec.budget,
        method=spec.method,
    )


def portfolio_maximize(model: LinearIsing, p: int, specs) -> OptimizationResult:
    """Best result across several specs, ties keeping the earliest spec;
    its evaluations_used is the sum over the specs."""
    specs = tuple(specs)
    if not specs:
        raise ValueError("portfolio needs at least one OptimizerSpec")
    results = [maximize(model, p, spec) for spec in specs]
    best = max(results, key=lambda result: result.best_value)  # first of equals
    return replace(best, evaluations_used=sum(r.evaluations_used for r in results))

"""Derivative-free maximization of the success probability over angles.

Four methods behind one interface: Nelder-Mead with restart-on-collapse,
differential evolution (rand/1/bin), simulated annealing, and uniform
random search.  All draw from counter-based Philox streams keyed by
(seed, method, restart), so results are bitwise reproducible and a run
with a smaller budget is an exact prefix of a longer run with the same
seed.  Budgets count objective evaluations, nothing else.

Nelder-Mead and annealing propose one point at a time.  Each of their
restarts is a generator that yields the point it wants scored and
receives its value, and all restarts of one method advance in lockstep:
one batched objective call scores the pending point of every restart.
Each restart keeps its own stream, budget and running best, and the
batched objective repeats the float operations of the scalar recurrence
in gates.bit_amplitudes, so the results are bit for bit those of running
the restarts one after another.

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

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .gates import SQRT_HALF
from .ising import LinearIsing, optimal_bits
from .probability import QaoaParams, prob_opt, prob_opt_batch

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
    """One method's configuration; budget is per restart."""

    method: str
    budget: int = DEFAULT_BUDGET
    seed: int = 1
    restarts: int = DEFAULT_RESTARTS

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(
                f"unknown method {self.method!r}; choose from {', '.join(METHODS)}"
            )
        if not isinstance(self.budget, int) or self.budget < 1:
            raise ValueError(f"budget must be a positive integer, got {self.budget!r}")
        if not isinstance(self.restarts, int) or self.restarts < 1:
            raise ValueError(
                f"restarts must be a positive integer, got {self.restarts!r}"
            )
        if not isinstance(self.seed, int):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")


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


def _make_rng(seed: int, method_id: int, restart: int) -> np.random.Generator:
    # Independent stream per (seed, method, restart); restart < 2**32.
    key = np.array(
        [seed % (1 << 64), (method_id << 32) | restart], dtype=np.uint64
    )
    return np.random.Generator(np.random.Philox(key=key))


# Signs that fold CPython's complex products into two real products per
# step; see _lockstep_objective.  Rows: real, imaginary parts; columns:
# amplitudes v0, v1.
_TURN_SIGNS = np.array([[-1.0, 1.0], [1.0, -1.0]])[:, :, None, None]
_MIX_SIGNS = np.array([[1.0, 1.0], [-1.0, -1.0]])[:, :, None, None]


def _lockstep_objective(model: LinearIsing, p: int):
    """prob_opt over a (batch, 2p) array of points, bit for bit.

    Repeats the float operations of gates.bit_amplitudes on real arrays,
    since numpy's complex multiply rounds differently from CPython's.
    u[part, amplitude, qubit, point] holds the real and imaginary parts
    of (v0, v1).  Per layer, with t = -gamma*a:

        v0 *= e^{it}, v1 *= e^{-it}:  u*cos t + u[::-1] * (sin t * _TURN_SIGNS)
        (c v0 - i s v1, c v1 - i s v0):  u*c + u[::-1, ::-1] * (s * _MIX_SIGNS)

    which are CPython's complex products term by term: a sign folded into
    a factor and the order of two summands change no bits.  np.cos and
    np.sin match math.cos and math.sin, and the product over qubits
    reduces axis 0 in qubit order, as the scalar loop does.
    """
    coeffs = np.array(model.coeffs)[:, None]
    qubits = np.arange(model.n)
    bits = np.array(optimal_bits(model))

    def fbatch(xs: np.ndarray) -> np.ndarray:
        t = -(xs[:, :p].T[:, None, :] * coeffs)  # (layer, qubit, point)
        turn_cos = np.cos(t)[:, None, None]
        turn_sin = np.sin(t)[:, None, None] * _TURN_SIGNS
        mix_cos = np.cos(xs[:, p:].T)[:, None, None, None, :]
        mix_sin = np.sin(xs[:, p:].T)[:, None, None, None, :] * _MIX_SIGNS
        u = np.zeros((2, 2, model.n, len(xs)))
        u[0] = SQRT_HALF
        for j in range(p):
            u = u * turn_cos[j] + u[::-1] * turn_sin[j]
            u = u * mix_cos[j] + u[::-1, ::-1] * mix_sin[j]
        re = u[0, bits, qubits]
        im = u[1, bits, qubits]
        return np.multiply.reduce(re * re + im * im, axis=0)

    return fbatch


def _batch_objective(model: LinearIsing, p: int):
    def fbatch(xs: np.ndarray) -> np.ndarray:
        return prob_opt_batch(model, xs[:, :p], xs[:, p:])

    return fbatch


class _Tracker:
    """Running best across evaluations, with the consumed-eval count."""

    __slots__ = ("best_value", "best_x", "used")

    def __init__(self):
        self.best_value = -math.inf
        self.best_x = None
        self.used = 0

    def offer(self, x, value: float):
        self.used += 1
        if value > self.best_value:
            self.best_value = value
            self.best_x = np.array(x, dtype=float, copy=True)

    def offer_batch(self, xs: np.ndarray, values: np.ndarray):
        self.used += len(values)
        i = int(np.argmax(values))
        if values[i] > self.best_value:
            self.best_value = float(values[i])
            self.best_x = np.array(xs[i], dtype=float, copy=True)

    def merge(self, other: "_Tracker"):
        """Fold in a later restart's tracker; ties keep the earlier best."""
        self.used += other.used
        if other.best_value > self.best_value:
            self.best_value = other.best_value
            self.best_x = other.best_x


def _run_nelder_mead(rng, hi, budget, track):
    """Downhill simplex (maximizing), restarted on collapse within budget.

    A generator: yields each point to score and receives its value.
    """
    dim = hi.size
    refl, expa, contr, shrink = _NM_COEFFS
    start = track.used
    while track.used - start < budget:
        left = budget - (track.used - start)
        x0 = rng.uniform(0.0, hi)
        verts = [x0]
        for i in range(dim):
            v = x0.copy()
            v[i] += _NM_EDGE
            verts.append(v)
        vals = []
        for v in verts[: min(len(verts), left)]:
            fv = yield v
            track.offer(v, fv)
            vals.append(fv)
        if len(vals) < len(verts):
            return
        verts = np.array(verts)
        vals = np.array(vals)
        while track.used - start < budget:
            order = np.argsort(-vals)
            verts = verts[order]
            vals = vals[order]
            if np.abs(verts - verts[0]).max() < _NM_COLLAPSE:
                break  # collapsed: reseed a fresh simplex
            centroid = np.add.reduce(verts[:-1], axis=0) / dim  # = .mean(axis=0), same bits
            span = centroid - verts[-1]
            xr = centroid + refl * span
            fr = yield xr
            track.offer(xr, fr)
            if track.used - start >= budget:
                return
            if fr > vals[0]:
                xe = centroid + expa * span
                fe = yield xe
                track.offer(xe, fe)
                if fe > fr:
                    verts[-1], vals[-1] = xe, fe
                else:
                    verts[-1], vals[-1] = xr, fr
                if track.used - start >= budget:
                    return
            elif fr > vals[-2]:
                verts[-1], vals[-1] = xr, fr
            else:
                if fr > vals[-1]:
                    xc = centroid + contr * refl * span
                else:
                    xc = centroid - contr * span
                fc = yield xc
                track.offer(xc, fc)
                if track.used - start >= budget:
                    return
                if fc > max(fr, vals[-1]):
                    verts[-1], vals[-1] = xc, fc
                else:
                    for i in range(1, len(verts)):
                        verts[i] = verts[0] + shrink * (verts[i] - verts[0])
                        fv = yield verts[i]
                        track.offer(verts[i], fv)
                        vals[i] = fv
                        if track.used - start >= budget:
                            return


def _run_simulated_annealing(rng, hi, budget, track):
    """Gaussian-proposal annealing with wrap-around into the box.

    Step size and temperature cool geometrically over a fixed 500-step
    cycle, after which the walk reheats from the best point this restart
    has seen.  The schedule depends only on the step index, never on the
    requested budget, so shorter runs are exact prefixes of longer runs
    with the same seed; one complete cycle is enough to refine a basin
    to roughly the final step size.  A generator, like _run_nelder_mead.
    """
    steps = _SA_CYCLE - 1
    sig_rate = (_SA_SIGMA[1] / _SA_SIGMA[0]) ** (1.0 / steps)
    t_rate = (_SA_TEMP[1] / _SA_TEMP[0]) ** (1.0 / steps)
    start = track.used
    x = rng.uniform(0.0, hi)
    fx = yield x
    track.offer(x, fx)
    best_x, best_f = x, fx
    k = 0
    while track.used - start < budget:
        j = k % _SA_CYCLE
        if j == 0 and k:
            x, fx = best_x, best_f
        sigma = _SA_SIGMA[0] * sig_rate**j
        temp = _SA_TEMP[0] * t_rate**j
        cand = (x + rng.normal(0.0, sigma, hi.size)) % hi
        fc = yield cand
        track.offer(cand, fc)
        if fc >= fx or rng.random() < math.exp((fc - fx) / temp):
            x, fx = cand, fc
        if fc > best_f:
            best_x, best_f = cand, fc
        k += 1


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


def _run_differential_evolution(fbatch, rng, hi, budget, track):
    """rand/1/bin with F = 0.7, CR = 0.9, trial points clipped to the box."""
    dim = hi.size
    pop_size = _DE_POP_PER_DIM * dim
    start = track.used
    pop = rng.uniform(0.0, hi, (pop_size, dim))
    first = min(pop_size, budget)
    vals = fbatch(pop[:first])
    track.offer_batch(pop[:first], vals)
    if first < pop_size:
        return
    while track.used - start < budget:
        m = min(pop_size, budget - (track.used - start))
        idx, mask = _de_draws(rng, m, pop_size, dim)
        idx += idx >= np.arange(m)[:, None]  # never pick the parent
        mutant = pop[idx[:, 0]] + _DE_WEIGHT * (pop[idx[:, 1]] - pop[idx[:, 2]])
        trials = np.where(mask, np.clip(mutant, 0.0, hi), pop[:m])
        trial_vals = fbatch(trials)
        track.offer_batch(trials, trial_vals)
        better = trial_vals > vals[:m]
        pop[:m][better] = trials[better]
        vals[:m][better] = trial_vals[better]


def _run_random_search(fbatch, rng, hi, budget, track):
    """Uniform sampling of the box, evaluated in chunks."""
    dim = hi.size
    start = track.used
    while track.used - start < budget:
        m = min(_RS_CHUNK, budget - (track.used - start))
        xs = rng.uniform(0.0, hi, (m, dim))
        track.offer_batch(xs, fbatch(xs))


_LOCKSTEP = {0: _run_nelder_mead, 2: _run_simulated_annealing}
_BATCHED = {1: _run_differential_evolution, 3: _run_random_search}


def _run_lockstep(runner, model: LinearIsing, p: int, spec: OptimizerSpec, hi):
    """Advance every restart of a point-at-a-time method together.

    Each step scores the pending point of every live restart in one
    objective call and sends each restart its value.  Returns the
    restarts' trackers in restart order.
    """
    objective = _lockstep_objective(model, p)
    method_id = _METHOD_IDS[spec.method]
    trackers = [_Tracker() for _ in range(spec.restarts)]
    live = [
        runner(_make_rng(spec.seed, method_id, restart), hi, spec.budget, track)
        for restart, track in enumerate(trackers)
    ]
    values = [None] * len(live)
    while live:
        moving, points = [], []
        for restart, value in zip(live, values):
            try:
                points.append(restart.send(value))
            except StopIteration:
                continue
            moving.append(restart)
        live = moving
        if live:
            values = objective(np.array(points)).tolist()
    return trackers


def _gamma_box(model: LinearIsing, gamma_max) -> float:
    if gamma_max is not None:
        g = float(gamma_max)
        if not math.isfinite(g) or g <= 0.0:
            raise ValueError(f"gamma_max must be positive and finite, got {gamma_max!r}")
        return g
    period = gamma_period(model)
    # Unknown period: search two full 2*pi turns' worth of nothing -- just
    # a heuristic box; callers can widen via gamma_max.
    return period if period is not None else 2.0 * math.pi


def maximize(
    model: LinearIsing, p: int, spec: OptimizerSpec, gamma_max=None
) -> OptimizationResult:
    """Run one method over the angle box and return its best point.

    The box is [0, G)^p x [0, pi)^p with G the model's gamma period when
    known (pi for integer coefficients); the landscape is periodic in
    every coordinate, so the box covers all attainable values.  The
    reported best_value is re-evaluated through prob_opt at the returned
    angles.  Nelder-Mead starts inside the box but is not confined to it
    (reflection can step out); reported angles are then equivalent to an
    in-box point modulo the period.
    """
    if not isinstance(p, int) or p < 1:
        raise ValueError(f"layer count must be a positive integer, got {p!r}")
    method_id = _METHOD_IDS[spec.method]
    hi = np.array([_gamma_box(model, gamma_max)] * p + [math.pi] * p)
    track = _Tracker()
    if method_id in _LOCKSTEP:
        for restart_track in _run_lockstep(_LOCKSTEP[method_id], model, p, spec, hi):
            track.merge(restart_track)
    else:
        runner = _BATCHED[method_id]
        objective = _batch_objective(model, p)
        for restart in range(spec.restarts):
            rng = _make_rng(spec.seed, method_id, restart)
            runner(objective, rng, hi, spec.budget, track)
    best = track.best_x
    params = QaoaParams(tuple(best[:p]), tuple(best[p:]))
    return OptimizationResult(
        best_value=prob_opt(model, params),
        best_gammas=params.gammas,
        best_betas=params.betas,
        evaluations_used=track.used,
        method=spec.method,
    )


def portfolio_maximize(
    model: LinearIsing, p: int, specs, gamma_max=None
) -> OptimizationResult:
    """Best result across several specs; ties keep the earliest spec."""
    specs = tuple(specs)
    if not specs:
        raise ValueError("portfolio needs at least one OptimizerSpec")
    best = None
    total = 0
    for spec in specs:
        result = maximize(model, p, spec, gamma_max=gamma_max)
        total += result.evaluations_used
        if best is None or result.best_value > best.best_value:
            best = result
    return OptimizationResult(
        best_value=best.best_value,
        best_gammas=best.best_gammas,
        best_betas=best.best_betas,
        evaluations_used=total,
        method=best.method,
    )

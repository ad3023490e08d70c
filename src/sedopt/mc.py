"""Event-driven Monte Carlo simulation of the controlled storage process.

Between events the storage decays linearly at the regime's transport rate
and sticks at zero, so every path is integrated exactly: depletion times
are closed-form hitting times and the discounted depletion penalty is an
exact exponential integral over the recorded depletion intervals. No
time-stepping error enters, which is what makes the estimator a trustworthy
independent check of the analytic and finite difference solutions. All
paths of a run advance together in numpy; a recorded path is replayed alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .analytic import CostSpec, ScalarProblem, evaluate_candidate, solve_smooth_pasting
from .errors import DomainError, InputError, StructureError
from .pde import ThresholdPolicy, single_regime_chain
from .regime import (RegimeChain, RegimePath, check_horizon, check_integer, check_rates,
                     sample_regime_path)
from .regime import spawn_streams as _streams  # looked up per run, so tests can patch it

__all__ = [
    "StoragePath",
    "PathRecord",
    "CostEstimate",
    "GapRow",
    "simulate_storage",
    "simulate_controlled",
    "estimate_cost",
    "policy_gap_check",
]


@dataclass(frozen=True)
class StoragePath:
    """Piecewise-linear storage trajectory given by its breakpoints.

    Breakpoints include every slope change (regime switches, depletion
    hits) and both sides of every replenishment jump.
    """

    times: NDArray[np.float64]
    values: NDArray[np.float64]

    def at(self, t):
        """Storage at time(s) t by linear interpolation of the breakpoints."""
        return np.interp(t, self.times, self.values)


@dataclass
class PathRecord:
    """One controlled trajectory: drivers, decisions and the storage curve."""

    regime_path: RegimePath
    observations: NDArray[np.float64]
    actions: NDArray[np.float64]  # replenished amount at each observation (0 = none)
    storage: StoragePath
    depletion: list[tuple[float, float]]
    cost: float  # realized cost, discounted (ergodic: undivided)


@dataclass(frozen=True)
class CostEstimate:
    """Sample mean and standard error of the simulated performance index."""

    mean: float
    stderr: float
    n_paths: int
    horizon: float
    truncation_bound: float
    events_per_path: float  # regime switches plus observations
    replenishments_per_path: float
    depleted_fraction: float  # share of path time spent at zero storage
    samples: NDArray[np.float64] = field(compare=False, repr=False)  # read-only, per path

    def __post_init__(self):
        if self.stderr < 0:
            raise InputError("standard error cannot be negative")


def _discounted_interval(delta: float, t0, t1):
    # integral of e^{-delta s} over [t0, t1]
    if delta == 0.0:
        return t1 - t0
    return (np.exp(-delta * t0) - np.exp(-delta * t1)) / delta


def _decay(t, y, rate, end):
    """Linear decay from storage y at time t to `end` at a constant rate,
    stuck at 0. A step from y > 0 empties the store when t + y / rate <= end
    or max(y - rate (end - t), 0) == 0 (rounded, the two can disagree by an
    ulp): it ends at 0, hit at min(t + y / rate, end), and otherwise at that
    clamp. Returns the end storage, hit time and hit; the caller silences y / 0."""
    t_hit = np.asarray(y / rate)  # 0-d in a replay; both are updated in place
    t_hit += t
    y_end = np.asarray(y - rate * (end - t))
    np.maximum(y_end, 0.0, out=y_end)
    y_end *= t_hit > end  # a multiply: np.where on a mask of random paths is branch-bound
    return y_end, np.minimum(t_hit, end, out=t_hit), (y_end == 0.0) & (y > 0.0)


def _replay(regime_path: RegimePath, rates, y0: float, observations=(), limits=None,
            costs: CostSpec | None = None):
    """One path in closed form: the engine's step, event by event, under one
    row of fill `limits`. Events are the switches, the observation times
    (increasing, in [0, horizon)) and the horizon. Returns a PathRecord's tail:
    refills (0 = none), storage curve, depletion intervals and the cost under
    `costs`, the engine's bit for bit (ergodic: undivided; no costs: undiscounted)."""
    if not 0.0 <= y0 <= 1.0:
        raise InputError("initial storage must lie in [0, 1]")
    rates = check_rates(rates, regime_path.count)
    starts, regimes, horizon = regime_path.start_times, regime_path.regimes, regime_path.horizon
    observations = np.asarray(observations, dtype=float)
    if np.isin(observations, starts[1:]).any():
        raise StructureError("an observation coincides with a regime switch")
    # events in time order, each with the regime held up to it
    at = np.concatenate([starts[1:], [horizon], observations])
    held = np.concatenate([regimes, regimes[np.searchsorted(starts, observations, "right") - 1]])
    order = np.argsort(at, kind="stable")
    delta = 0.0 if costs is None else costs.delta
    points, fills, depletion = [(0.0, float(y0))], [], []
    t, y, cost, since = 0.0, float(y0), 0.0, 0.0 if y0 == 0.0 else None
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # tiny rates never empty
        for now, i, observed in zip(at[order].tolist(), held[order].tolist(),
                                    (order >= regimes.size).tolist()):
            y_end, t_hit, hit = _decay(t, y, rates[i], now)
            if hit:
                since = float(t_hit)
                points.append((since, 0.0))
            t, y = now, float(y_end)
            filled = observed and y <= limits[i]
            if since is not None and (filled or now == horizon):  # depletion ends
                cost += _discounted_interval(delta, since, now)
                depletion.append((since, now))
                since = None
            if observed:
                fills.append(1.0 - y if filled else 0.0)
            if filled:
                cost += np.exp(-delta * now) * costs.intervention_cost(y)
                points += [(now, y), (now, 1.0)]
                y = 1.0
            elif not observed:
                points.append((now, y))
    times, values = np.array(points).T
    return np.asarray(fills, dtype=float), StoragePath(times, values), depletion, float(cost)


def simulate_storage(regime_path: RegimePath, rates, y0: float) -> StoragePath:
    """Exact uncontrolled storage path: linear decay per regime, stuck at 0.

    Equals max{0, y0 - integral of the rate} at every time; breakpoints are
    placed at t = 0, every regime switch, the depletion instant and the
    horizon. It is the replay of `simulate_controlled` without observations.
    """
    return _replay(regime_path, rates, y0)[1]


def _next_switch(rng: np.random.Generator, t, out_rates):
    """Next switch times after t: exponential(1) / out-rate, or never (inf,
    also for a zero hold, where fmin drops the NaN of 0 / 0). The caller
    silences hold / 0."""
    return np.fmin(t + rng.standard_exponential(t.size) / out_rates, np.inf)


def _thresholds(policy: ThresholdPolicy | None, count: int) -> NDArray[np.float64]:
    """One policy as a 1 x count row of thresholds; None never replenishes."""
    return np.full((1, count), -np.inf) if policy is None else policy.boundaries[None, :]


def _limits(thresholds, count: int) -> NDArray[np.float64]:
    """Fill limits of threshold rows: only y < 1 fills, as a full store is never depleted."""
    if thresholds.shape[1] != count:
        raise StructureError("policy size does not match the chain")
    return np.minimum(thresholds, np.nextafter(1.0, 0.0))


def _settle(costs: CostSpec, t, y, since, cost, filled, done):
    """One row's bookkeeping after a step, in place: depletion intervals end at
    the refills `filled` and the horizon arrivals `done`, and each refill pays
    its discounted cost and fills the store. Returns the refill count and the
    path-days of depletion that ended."""
    closing = np.concatenate([filled, done]) if done.size else filled
    closing = closing[~np.isnan(since[closing])]
    depleted = 0.0
    if closing.size:
        start, end = since[closing], t[closing]
        cost[closing] += _discounted_interval(costs.delta, start, end)
        depleted = float((end - start).sum())
        since[closing] = np.nan
    if filled.size:
        cost[filled] += np.exp(-costs.delta * t[filled]) * costs.intervention_cost(y[filled])
        y[filled] = 1.0
    return filled.size, depleted


def _simulate(chain: RegimeChain, rates, thresholds, costs: CostSpec, y0: float,
              initial_regime: int, horizon: float, n_paths: int, seed):
    """Advance n_paths paths together, one event per live path per step, under
    every row of `thresholds` (P x regimes, one policy a row) at once.

    Returns per row the realized cost per path (undivided in ergodic mode),
    the replenishment count and the path-days spent at zero storage, and the
    event (switch and observation) count over all paths, which no row moves.

    A path's drivers are its time, regime, next switch and next observation;
    each row adds its own storage, depletion start (NaN when not depleted)
    and cost. Each step moves every live path to its next event (switch,
    observation or the horizon), draws what the event needs and updates
    every row's storage in closed form. A path at the horizon parks there,
    where each later step has length 0 and adds nothing to its cost, until
    parked paths are a quarter of the arrays and leave them. Which paths
    draw never depends on the storage, so every row sees the same drivers.
    The seed contract is the draw order of a step: the regime stream's
    `random(switching)`, then its `standard_exponential(switching)`, then
    the observation stream's `standard_exponential(observing)`, each in
    path order. A row of -inf never replenishes (the null control).

    A start regime with no way out (`still`, chosen once per run) keeps no
    regime or switch clock and never draws the regime stream, as none of its
    values could reach an output: every live path observes next, storage
    drains at that regime's one rate and each row fills at its one limit.
    """
    if not 0.0 <= y0 <= 1.0:
        raise InputError("initial storage must lie in [0, 1]")
    initial_regime = check_integer(initial_regime, "initial regime", chain.count)
    limits = _limits(thresholds, chain.count)
    rates = check_rates(rates, chain.count)
    horizon = check_horizon(horizon)
    rng_regime, rng_obs = _streams(seed)
    lam, out_rates = costs.lam, chain.out_rates
    still = out_rates[initial_regime] == 0.0
    rows = range(thresholds.shape[0])

    path = np.arange(n_paths)
    t = np.zeros(n_paths)
    y = np.full((len(rows), n_paths), float(y0))
    depleted_since = np.full(y.shape, 0.0 if y0 == 0.0 else np.nan)
    cost, samples = np.zeros(y.shape), np.empty(y.shape)
    events, replenishments, depleted_time = 0, [0] * len(rows), [0.0] * len(rows)
    done = np.empty(0, dtype=np.intp)  # paths at the horizon, parked or just arrived
    # x / 0: never empties, never switches; x / subnormal lam: never observes
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if still:
            drain, limit = rates[initial_regime], limits[:, initial_regime, None]
        else:
            regime = np.full(n_paths, initial_regime)
            t_switch = _next_switch(rng_regime, t, out_rates[regime])
        t_obs = rng_obs.standard_exponential(n_paths) / lam
        while path.size:
            if still:
                t_next = np.minimum(t_obs, horizon)
                live = t_obs < horizon
                done = (~live).nonzero()[0]
            else:
                t_next = np.minimum(t_switch, t_obs)
                switching, observing = t_switch < t_obs, t_obs < t_switch
                if t_next.max() >= horizon:
                    live = t_next < horizon
                    done = (~live).nonzero()[0]
                    t_next[done] = horizon
                    switching &= live
                    observing &= live
                drain = rates[regime[None]]
            y, t_hit, hit = _decay(t[None], y, drain, t_next[None])  # rows like y's: no broadcast
            np.putmask(depleted_since, hit, t_hit)
            t = t_next

            if still:
                draws = rng_obs.standard_exponential(path.size - done.size) / lam
                if done.size:
                    t_obs[live] = t[live] + draws
                else:
                    t_obs = t + draws
                events += draws.size
                fill = y <= limit
                if done.size:
                    fill &= live
            else:
                switch, observe = switching.nonzero()[0], observing.nonzero()[0]
                # switching and observation draws are continuous, so coincidences
                # are a null event; the event order below relies on it
                if switch.size + observe.size + done.size != t.size:
                    raise StructureError("an observation coincides with a regime switch")
                if switch.size:
                    entered = chain.jump(regime[switch], rng_regime.random(switch.size))
                    regime[switch] = entered
                    t_switch[switch] = _next_switch(rng_regime, t[switch], out_rates[entered])
                if observe.size:
                    t_obs[observe] = t[observe] + rng_obs.standard_exponential(observe.size) / lam
                events += switch.size + observe.size
                observed = regime[observe]

            for r in rows:  # the rows differ only in which observations replenish
                filled = (fill[r].nonzero()[0] if still
                          else observe[y[r][observe] <= limits[r][observed]])
                count, depleted = _settle(costs, t, y[r], depleted_since[r], cost[r],
                                          filled, done)
                replenishments[r] += count
                depleted_time[r] += depleted

            if done.size * 4 >= path.size:  # parked paths leave
                samples[:, path[done]] = cost[:, done]
                if not still:
                    regime, t_switch = regime.compress(live), t_switch.compress(live)
                path, t, t_obs, y, depleted_since, cost = (
                    a.compress(live, axis=-1) for a in (path, t, t_obs, y, depleted_since, cost))
                done = done[:0]
    return samples, events, replenishments, depleted_time


def simulate_controlled(
    chain: RegimeChain,
    rates,
    policy: ThresholdPolicy | None,
    costs: CostSpec,
    y0: float,
    horizon: float,
    seed: int | None = None,
    initial_regime: int = 0,
) -> PathRecord:
    """One controlled trajectory under the threshold rule, fully recorded.

    The regime chain and the observation stream are driven by two
    independent generators spawned from one seed, so paths are
    reproducible and every policy sees the same drivers. The regime path
    is `sample_regime_path` on the regime stream and the observations are
    drawn in the engine's order, so the record is a one-path run of the
    engine of `estimate_cost`, replayed in closed form at about 10 us an
    event. `policy = None` never replenishes (the null control).
    """
    limits = _limits(_thresholds(policy, chain.count), chain.count)[0]
    rng_regime, rng_obs = _streams(seed)
    regime_path = sample_regime_path(chain, initial_regime, horizon, rng_regime)
    observations, t = [], 0.0
    while (t := t + rng_obs.exponential() / costs.lam) < regime_path.horizon:
        observations.append(t)
    return PathRecord(regime_path, np.asarray(observations, dtype=float),
                      *_replay(regime_path, rates, y0, observations, limits, costs))


def estimate_cost(
    chain: RegimeChain,
    rates,
    policy: ThresholdPolicy | None,
    costs: CostSpec,
    y0: float,
    horizon: float,
    n_paths: int,
    seed: int | None = None,
    initial_regime: int = 0,
) -> CostEstimate:
    """Sample mean / standard error of the performance index over n_paths.

    Discounted mode (delta > 0) accumulates the exact discounted depletion
    integral plus the discounted intervention costs; the reported
    truncation bound e^{-delta T}/delta caps the tail lost to the finite
    horizon. Ergodic mode (delta = 0) instead returns the time-averaged
    cost per day over [0, horizon]. Summation is compensated so the result
    does not depend on accumulation order. The estimate also reports what
    the paths saw: events and replenishments per path, the share of time
    spent depleted and, in `samples`, every path's cost.
    """
    return _estimates(chain, rates, _thresholds(policy, chain.count), costs, y0, horizon,
                      n_paths, seed, initial_regime)[0]


def _estimates(chain: RegimeChain, rates, thresholds, costs: CostSpec, y0: float, horizon: float,
               n_paths: int, seed, initial_regime: int = 0) -> list[CostEstimate]:
    """`estimate_cost` of every row of `thresholds`, all from one run of the drivers."""
    if check_integer(n_paths, "path count") < 2:
        raise InputError("need at least 2 paths for a standard error")
    costs_per_row, events, replenishments, depleted_time = _simulate(
        chain, rates, thresholds, costs, y0, initial_regime, horizon, n_paths, seed)
    ergodic = costs.delta == 0.0
    truncation = math.exp(-costs.delta * horizon) / costs.delta if not ergodic else math.nan
    costs_per_row = costs_per_row / horizon if ergodic else costs_per_row  # ergodic: per day
    costs_per_row.flags.writeable = False  # each estimate's samples are a row of it
    estimates = []
    for samples, filled, depleted in zip(costs_per_row, replenishments, depleted_time):
        peak = float(samples.max())  # costs are >= 0
        if not math.isfinite(peak):
            raise DomainError("a path's cost exceeds the double range")
        k = max(math.frexp(peak)[1], 0)  # reduced at scale 2^-k, exact, so no square overflows
        scaled = np.ldexp(samples, -k)
        mean = math.fsum(scaled.tolist()) / n_paths
        var = math.fsum(((scaled - mean) ** 2).tolist()) / (n_paths - 1)
        estimates.append(CostEstimate(
            mean=math.ldexp(mean, k),
            stderr=math.ldexp(math.sqrt(var / n_paths), k),
            n_paths=n_paths,
            horizon=horizon,
            truncation_bound=truncation,
            events_per_path=events / n_paths,
            replenishments_per_path=filled / n_paths,
            depleted_fraction=depleted / (n_paths * horizon),
            samples=samples,
        ))
    return estimates


@dataclass(frozen=True)
class GapRow:
    """Cost of a perturbed threshold relative to the analytic optimum."""

    delta_shift: float
    threshold: float
    mean: float
    stderr: float
    gap: float  # mean - candidate value at y0; >~ 0 when the optimum holds


def policy_gap_check(
    problem: ScalarProblem,
    perturbations,
    y0: float = 1.0,
    horizon: float = 200.0,
    n_paths: int = 20000,
    seed: int | None = 0,
) -> list[GapRow]:
    """Dominance check of the analytic threshold against shifted ones.

    Every perturbed threshold is evaluated in one run against the same
    drivers (common random numbers), so the zero shift must sit at the
    statistical minimum: its gap is noise around zero and no shift may
    undercut it beyond noise. Each row equals `estimate_cost` of its
    threshold with the same seed.
    """
    shifts = [float(shift) for shift in perturbations]
    if not shifts:
        raise InputError("need at least one threshold shift")
    for shift in shifts:
        if not math.isfinite(shift):
            raise InputError(f"threshold shift must be finite, got {shift}")
    sol = solve_smooth_pasting(problem)
    reference = float(evaluate_candidate(sol, y0))
    thresholds = [min(1.0, max(0.0, sol.ybar + shift)) for shift in shifts]
    estimates = _estimates(single_regime_chain(), np.array([problem.S]),
                           np.array(thresholds)[:, None], problem, y0, horizon, n_paths, seed)
    return [GapRow(delta_shift=shift, threshold=threshold, mean=est.mean,
                   stderr=est.stderr, gap=est.mean - reference)
            for shift, threshold, est in zip(shifts, thresholds, estimates)]

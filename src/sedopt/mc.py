"""Event-driven Monte Carlo simulation of the controlled storage process.

Between events the storage decays linearly at the regime's transport rate
and sticks at zero, so every path is integrated exactly: depletion times
are closed-form hitting times and the discounted depletion penalty is an
exact exponential integral over the recorded depletion intervals. No
time-stepping error enters, which is what makes the estimator a trustworthy
independent check of the analytic and finite difference solutions. All
paths of a run advance together in numpy, one event per path per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .analytic import CostSpec, ScalarProblem, evaluate_candidate, solve_smooth_pasting
from .errors import DomainError, InputError, StructureError
from .pde import ThresholdPolicy, single_regime_chain
from .regime import RegimeChain, RegimePath, check_rates
from .regime import sample_regime_path  # noqa: F401  perfbench/run.py traces it here

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
    samples: tuple[float, ...] | None = None  # per-path costs, on request

    def __post_init__(self):
        if self.stderr < 0:
            raise InputError("standard error cannot be negative")


def _discounted_interval(delta: float, t0, t1):
    # integral of e^{-delta s} over [t0, t1]
    if delta == 0.0:
        return t1 - t0
    return (np.exp(-delta * t0) - np.exp(-delta * t1)) / delta


def _decay(t, y, rate, target):
    """Closed-form linear decay from storage y at time t to time `target`
    at a constant rate, stuck at 0.

    Returns the storage at `target` and the time it hits 0 (NaN where it
    was already 0 or stays positive).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        t_hit = t + y / rate
    empty = t_hit <= target
    y_end = np.where(empty, 0.0, np.maximum(y - rate * (target - t), 0.0))
    return y_end, np.where(empty & (y > 0.0), t_hit, np.nan)


def simulate_storage(regime_path: RegimePath, rates, y0: float) -> StoragePath:
    """Exact uncontrolled storage path: linear decay per regime, stuck at 0.

    Equals max{0, y0 - integral of the rate} at every time; breakpoints are
    placed at t = 0, every regime switch, the depletion instant and the
    horizon.
    """
    if not 0.0 <= y0 <= 1.0:
        raise InputError("initial storage must lie in [0, 1]")
    rates = check_rates(rates, regime_path.count)
    times = [0.0]
    values = [float(y0)]
    y = float(y0)
    for t0, t1, i in regime_path.spans():
        y, t_hit = map(float, _decay(t0, y, rates[i], t1))
        if not math.isnan(t_hit):
            times.append(t_hit)
            values.append(0.0)
        times.append(t1)
        values.append(y)
    return StoragePath(times=np.asarray(times), values=np.asarray(values))


def _streams(seed) -> list[np.random.Generator]:
    """Independent regime and observation generators from one seed."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)]


def _next_switch(rng: np.random.Generator, t, out_rates):
    """Next switch times after t: exponential(1) / out-rate, or never."""
    hold = rng.exponential(size=t.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(out_rates > 0.0, t + hold / out_rates, np.inf)


class _Recorder:
    """Event log of a one-path run, turned into a PathRecord."""

    def __init__(self, y0: float, regime: int):
        self.starts, self.regimes, self.observations, self.actions = [0.0], [regime], [], []
        self.points, self.depletion = [(0.0, float(y0))], []

    def step(self, t, t_hit, y, switched_to, observed, acted, closed_since) -> None:
        """One event at t: the zero-hitting time before it (NaN if none),
        the storage before any replenishment, the regime entered (None
        unless a switch), and the start of the depletion interval the event
        closes (NaN if none). An event that is neither is the horizon."""
        if not math.isnan(t_hit):
            self.points.append((t_hit, 0.0))
        if not math.isnan(closed_since):
            self.depletion.append((closed_since, t))
        if observed:
            self.observations.append(t)
            self.actions.append(1.0 - y if acted else 0.0)
            if acted and y < 1.0:
                self.points += [(t, y), (t, 1.0)]
            return
        if switched_to is not None:
            self.starts.append(t)
            self.regimes.append(switched_to)
        self.points.append((t, y))

    def record(self, count: int, horizon: float, cost: float) -> PathRecord:
        times, values = np.array(self.points).T
        return PathRecord(
            regime_path=RegimePath(start_times=np.asarray(self.starts),
                                   regimes=np.asarray(self.regimes),
                                   horizon=float(horizon), count=count),
            observations=np.asarray(self.observations, dtype=float),
            actions=np.asarray(self.actions, dtype=float),
            storage=StoragePath(times=times, values=values),
            depletion=self.depletion,
            cost=cost,
        )


def _simulate(chain: RegimeChain, rates, policy: ThresholdPolicy | None, costs: CostSpec,
              y0: float, initial_regime: int, horizon: float, n_paths: int, seed,
              recorder: _Recorder | None = None):
    """Advance n_paths paths together, one event per live path per step.

    Returns the realized cost per path (undivided in ergodic mode), the
    event (switch and observation) and replenishment counts over all paths
    and the path-days spent at zero storage.

    A path's state is its time, storage, regime, next switch, next
    observation, depletion start (NaN when not depleted) and cost. Each
    step moves every live path to its next event (switch, observation or
    the horizon) by the closed-form decay and applies the event. Paths at
    the horizon leave the arrays. Which paths draw at a step never depends
    on the storage, so every policy sees the same drivers for one seed.
    `policy = None` is the null control: no replenishment ever.
    """
    if not 0.0 <= y0 <= 1.0:
        raise InputError("initial storage must lie in [0, 1]")
    if not 0 <= initial_regime < chain.count:
        raise InputError(f"initial regime {initial_regime} out of range")
    if policy is not None and policy.boundaries.size != chain.count:
        raise StructureError("policy size does not match the chain")
    rates = check_rates(rates, chain.count)
    rng_regime, rng_obs = _streams(seed)
    delta, lam, out_rates = costs.delta, costs.lam, chain.out_rates
    thresholds = np.full(chain.count, -np.inf) if policy is None else policy.boundaries

    path = np.arange(n_paths)
    t = np.zeros(n_paths)
    y = np.full(n_paths, float(y0))
    regime = np.full(n_paths, int(initial_regime))
    t_switch = _next_switch(rng_regime, t, out_rates[regime])
    t_obs = rng_obs.exponential(size=n_paths) / lam
    depleted_since = np.full(n_paths, 0.0 if y0 == 0.0 else np.nan)
    cost, samples = np.zeros(n_paths), np.empty(n_paths)
    events = replenishments = 0
    depleted_time = 0.0  # path-days at zero storage
    while path.size:
        t_next = np.minimum(np.minimum(t_switch, t_obs), horizon)
        y, t_hit = _decay(t, y, rates[regime], t_next)
        depleted_since = np.where(np.isnan(t_hit), depleted_since, t_hit)
        t = t_next
        live = t < horizon
        # switching and observation draws are continuous, so coincidences
        # are a null event; the event order below relies on it
        if np.any(live & (t_switch == t_obs)):
            raise StructureError("an observation coincides with a regime switch")
        switch = np.flatnonzero(live & (t_switch < t_obs))
        observe = np.flatnonzero(live & (t_obs < t_switch))
        regime[switch] = chain.jump(regime[switch], rng_regime.random(switch.size))
        t_switch[switch] = _next_switch(rng_regime, t[switch], out_rates[regime[switch]])
        t_obs[observe] = t[observe] + rng_obs.exponential(size=observe.size) / lam

        acted = observe[y[observe] <= thresholds[regime[observe]]]
        # a depletion interval ends at a replenishing observation or the horizon
        closing = np.concatenate([acted, np.flatnonzero(~live)])
        closing = closing[~np.isnan(depleted_since[closing])]
        cost[closing] += _discounted_interval(delta, depleted_since[closing], t[closing])
        depleted_time += float(np.sum(t[closing] - depleted_since[closing]))
        filled = acted[y[acted] < 1.0]
        cost[filled] += np.exp(-delta * t[filled]) * costs.intervention_cost(y[filled])
        if recorder is not None:
            recorder.step(t[0], t_hit[0], y[0], regime[0] if switch.size else None,
                          observe.size > 0, acted.size > 0,
                          depleted_since[0] if closing.size else np.nan)
        y[filled] = 1.0
        depleted_since[closing] = np.nan
        events += switch.size + observe.size
        replenishments += filled.size

        if not live.all():
            samples[path[~live]] = cost[~live]
            path, t, y, regime, t_switch, t_obs, depleted_since, cost = (
                a[live] for a in (path, t, y, regime, t_switch, t_obs, depleted_since, cost)
            )
    return samples, events, replenishments, depleted_time


def simulate_controlled(
    chain: RegimeChain,
    rates,
    policy: ThresholdPolicy | None,
    costs: CostSpec,
    y0: float,
    horizon: float,
    seed: int | np.random.SeedSequence | None = None,
    initial_regime: int = 0,
) -> PathRecord:
    """One controlled trajectory under the threshold rule, fully recorded.

    It is a one-path run of the same engine as `estimate_cost`. The regime
    chain and the observation stream are driven by two independent
    generators spawned from one seed, so paths are reproducible, the two
    noise sources stay independent and every policy sees the same drivers.
    `policy = None` never replenishes (the null control).
    """
    if horizon <= 0:
        raise InputError("horizon must be positive")
    recorder = _Recorder(y0, initial_regime)
    cost = _simulate(chain, rates, policy, costs, y0, initial_regime, horizon, 1, seed, recorder)[0]
    return recorder.record(chain.count, horizon, float(cost[0]))


def estimate_cost(
    chain: RegimeChain,
    rates,
    policy: ThresholdPolicy | None,
    costs: CostSpec,
    y0: float,
    horizon: float,
    n_paths: int,
    seed: int | np.random.SeedSequence | None = None,
    initial_regime: int = 0,
    keep_samples: bool = False,
) -> CostEstimate:
    """Sample mean / standard error of the performance index over n_paths.

    Discounted mode (delta > 0) accumulates the exact discounted depletion
    integral plus the discounted intervention costs; the reported
    truncation bound e^{-delta T}/delta caps the tail lost to the finite
    horizon. Ergodic mode (delta = 0) instead returns the time-averaged
    cost per day over [0, horizon]. Summation is compensated so the result
    does not depend on accumulation order. The estimate also reports what
    the paths saw: events and replenishments per path and the share of
    time spent depleted.
    """
    if n_paths < 2:
        raise InputError("need at least 2 paths for a standard error")
    if horizon <= 0 or not math.isfinite(horizon):
        if costs.delta == 0.0:
            raise DomainError(
                "ergodic cost-rate estimation needs a finite positive horizon"
            )
        raise InputError("horizon must be finite and positive")
    samples, events, replenishments, depleted_time = _simulate(
        chain, rates, policy, costs, y0, initial_regime, horizon, n_paths, seed)
    ergodic = costs.delta == 0.0
    if ergodic:
        samples = samples / horizon
    mean = math.fsum(samples) / n_paths
    var = math.fsum((samples - mean) ** 2) / (n_paths - 1)
    return CostEstimate(
        mean=mean,
        stderr=math.sqrt(var / n_paths),
        n_paths=n_paths,
        horizon=horizon,
        truncation_bound=(
            math.exp(-costs.delta * horizon) / costs.delta if not ergodic else math.nan
        ),
        events_per_path=events / n_paths,
        replenishments_per_path=replenishments / n_paths,
        depleted_fraction=depleted_time / (n_paths * horizon),
        samples=tuple(samples.tolist()) if keep_samples else None,
    )


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

    Every perturbed threshold is evaluated with the same seed (common
    random numbers), so the zero shift must sit at the statistical minimum:
    its gap is noise around zero and no shift may undercut it beyond noise.
    """
    sol = solve_smooth_pasting(problem)
    reference = float(evaluate_candidate(sol, y0))
    chain = single_regime_chain()
    rates = np.array([problem.S])

    rows: list[GapRow] = []
    for shift in perturbations:
        threshold = min(1.0, max(0.0, sol.ybar + float(shift)))
        est = estimate_cost(
            chain,
            rates,
            ThresholdPolicy(boundaries=np.array([threshold])),
            problem,
            y0,
            horizon,
            n_paths,
            seed=seed,
        )
        rows.append(
            GapRow(
                delta_shift=float(shift),
                threshold=threshold,
                mean=est.mean,
                stderr=est.stderr,
                gap=est.mean - reference,
            )
        )
    return rows

"""Event-driven Monte Carlo simulation of the controlled storage process.

Between events the storage decays linearly at the regime's transport rate
and sticks at zero, so every path is integrated exactly: depletion times
are closed-form hitting times and the discounted depletion penalty is an
exact exponential integral over the recorded depletion intervals. No
time-stepping error enters, which is what makes the estimator a trustworthy
independent check of the analytic and finite difference solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .analytic import ScalarProblem, evaluate_candidate, solve_smooth_pasting
from .errors import DomainError, InputError, StructureError
from .pde import CostSpec, ThresholdPolicy, single_regime_chain
from .regime import RegimeChain, RegimePath, sample_regime_path

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


@dataclass(frozen=True)
class CostEstimate:
    """Sample mean and standard error of the simulated performance index."""

    mean: float
    stderr: float
    n_paths: int
    horizon: float
    truncation_bound: float
    samples: tuple[float, ...] | None = None  # per-path costs, on request

    def __post_init__(self):
        if self.stderr < 0:
            raise InputError("standard error cannot be negative")


def _discounted_interval(delta: float, t0: float, t1: float) -> float:
    # integral of e^{-delta s} over [t0, t1]
    if delta == 0.0:
        return t1 - t0
    return (math.exp(-delta * t0) - math.exp(-delta * t1)) / delta


def simulate_storage(regime_path: RegimePath, rates, y0: float) -> StoragePath:
    """Exact uncontrolled storage path: linear decay per regime, stuck at 0.

    Equals max{0, y0 - integral of the rate} at every time; breakpoints are
    placed at t = 0, every regime switch, the depletion instant and the
    horizon.
    """
    if not 0.0 <= y0 <= 1.0:
        raise InputError("initial storage must lie in [0, 1]")
    rates = np.asarray(rates, dtype=float)
    if rates.shape != (regime_path.count,):
        raise StructureError(
            f"rates shape {rates.shape} != ({regime_path.count},)"
        )
    times = [0.0]
    values = [float(y0)]
    y = float(y0)
    for t0, t1, i in regime_path.spans():
        rate = rates[i]
        if y > 0.0 and rate > 0.0:
            t_hit = t0 + y / rate
            if t_hit < t1:
                times.append(t_hit)
                values.append(0.0)
                y = 0.0
            else:
                y = max(0.0, y - rate * (t1 - t0))
        times.append(t1)
        values.append(y)
    return StoragePath(times=np.asarray(times), values=np.asarray(values))


def _poisson_times(rng: np.random.Generator, lam: float, horizon: float) -> NDArray[np.float64]:
    block = max(16, int(lam * horizon * 1.5) + 8)
    gaps = rng.exponential(1.0 / lam, size=block)
    times = np.cumsum(gaps)
    while times[-1] < horizon:
        gaps = rng.exponential(1.0 / lam, size=block)
        times = np.concatenate([times, times[-1] + np.cumsum(gaps)])
    return times[times < horizon]


def _run_path(
    chain: RegimeChain,
    rates: NDArray[np.float64],
    boundaries: NDArray[np.float64] | None,
    costs: CostSpec,
    y0: float,
    initial_regime: int,
    horizon: float,
    rng_regime: np.random.Generator,
    rng_obs: np.random.Generator,
    record: bool,
) -> tuple[float, PathRecord | None]:
    """Simulate one path; return its realized discounted (or raw) cost.

    `boundaries = None` is the null control: no replenishment ever.
    """
    path = sample_regime_path(chain, initial_regime, horizon, rng_regime)
    taus = _poisson_times(rng_obs, costs.lam, horizon)
    switches = path.start_times
    # switching and observation draws are continuous, so coincidences are
    # a null event; the event order below relies on it
    if taus.size and switches.size > 1 and np.intersect1d(taus, switches[1:]).size:
        raise StructureError("an observation coincides with a regime switch")

    delta = costs.delta
    t = 0.0
    y = float(y0)
    seg = 0  # current segment index in the regime path
    depl_start: float | None = 0.0 if y == 0.0 else None
    cost = 0.0

    actions = np.zeros(taus.size)
    bt: list[float] = [0.0]
    by: list[float] = [y]
    depletions: list[tuple[float, float]] = []

    def advance(target: float) -> None:
        """Decay y over [t, target]; the regime is constant on it."""
        nonlocal t, y, depl_start
        rate = rates[path.regimes[seg]]
        if y > 0.0 and rate > 0.0:
            t_hit = t + y / rate
            if t_hit <= target:
                y = 0.0
                depl_start = t_hit
                if record:
                    bt.append(t_hit)
                    by.append(0.0)
            else:
                y -= rate * (target - t)
        t = target

    next_switch = 1  # switches[0] is time 0
    next_obs = 0
    while True:
        t_switch = switches[next_switch] if next_switch < switches.size else math.inf
        t_obs = taus[next_obs] if next_obs < taus.size else math.inf
        t_event = min(t_switch, t_obs, horizon)
        advance(t_event)
        if t_event == horizon:
            break
        if t_switch < t_obs:
            seg += 1
            next_switch += 1
            if record:
                bt.append(t)
                by.append(y)
        else:
            if boundaries is not None and y <= boundaries[path.regimes[seg]]:
                eta = 1.0 - y
                actions[next_obs] = eta
                if depl_start is not None:
                    cost += _discounted_interval(delta, depl_start, t)
                    if record:
                        depletions.append((depl_start, t))
                    depl_start = None
                if eta > 0.0:
                    discount = math.exp(-delta * t) if delta > 0.0 else 1.0
                    cost += discount * (costs.c * eta + costs.d)
                    if record:
                        bt.append(t)
                        by.append(y)
                    y = 1.0
                    if record:
                        bt.append(t)
                        by.append(1.0)
            next_obs += 1

    if depl_start is not None:
        cost += _discounted_interval(delta, depl_start, horizon)
        if record:
            depletions.append((depl_start, horizon))

    rec = None
    if record:
        bt.append(horizon)
        by.append(y)
        rec = PathRecord(
            regime_path=path,
            observations=taus,
            actions=actions,
            storage=StoragePath(times=np.asarray(bt), values=np.asarray(by)),
            depletion=depletions,
        )
    return cost, rec


def _check_policy(policy: ThresholdPolicy | None, chain: RegimeChain) -> NDArray[np.float64] | None:
    if policy is None:
        return None
    if policy.boundaries.size != chain.count:
        raise StructureError("policy size does not match the chain")
    return policy.boundaries


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

    The regime chain and the observation stream are driven by two
    independent generators spawned from one seed, so paths are reproducible
    and the two noise sources stay independent. `policy = None` never
    replenishes (the null control).
    """
    if horizon <= 0:
        raise InputError("horizon must be positive")
    if not 0.0 <= y0 <= 1.0:
        raise InputError("initial storage must lie in [0, 1]")
    rates = np.asarray(rates, dtype=float)
    boundaries = _check_policy(policy, chain)
    stream_regime, stream_obs = np.random.SeedSequence(seed).spawn(2)
    _, rec = _run_path(
        chain,
        rates,
        boundaries,
        costs,
        y0,
        initial_regime,
        horizon,
        np.random.default_rng(stream_regime),
        np.random.default_rng(stream_obs),
        record=True,
    )
    return rec


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
    does not depend on accumulation order.
    """
    if n_paths < 2:
        raise InputError("need at least 2 paths for a standard error")
    if not 0.0 <= y0 <= 1.0:
        raise InputError("initial storage must lie in [0, 1]")
    if horizon <= 0 or not math.isfinite(horizon):
        if costs.delta == 0.0:
            raise DomainError(
                "ergodic cost-rate estimation needs a finite positive horizon"
            )
        raise InputError("horizon must be finite and positive")
    rates = np.asarray(rates, dtype=float)
    boundaries = _check_policy(policy, chain)

    stream_regime, stream_obs = np.random.SeedSequence(seed).spawn(2)
    rng_regime = np.random.default_rng(stream_regime)
    rng_obs = np.random.default_rng(stream_obs)

    ergodic = costs.delta == 0.0
    samples = []
    for _ in range(n_paths):
        cost, _ = _run_path(
            chain, rates, boundaries, costs, y0, initial_regime, horizon,
            rng_regime, rng_obs, record=False,
        )
        samples.append(cost / horizon if ergodic else cost)

    mean = math.fsum(samples) / n_paths
    var = math.fsum((x - mean) ** 2 for x in samples) / (n_paths - 1)
    return CostEstimate(
        mean=mean,
        stderr=math.sqrt(var / n_paths),
        n_paths=n_paths,
        horizon=horizon,
        truncation_bound=(
            math.exp(-costs.delta * horizon) / costs.delta if not ergodic else math.nan
        ),
        samples=tuple(samples) if keep_samples else None,
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
    costs = CostSpec(delta=problem.delta, c=problem.c, d=problem.d, lam=problem.lam)

    rows: list[GapRow] = []
    for shift in perturbations:
        threshold = min(1.0, max(0.0, sol.ybar + float(shift)))
        est = estimate_cost(
            chain,
            rates,
            ThresholdPolicy(boundaries=np.array([threshold])),
            costs,
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

import itertools
import math
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sedopt.analytic import (
    BENCHMARK,
    ScalarProblem,
    ergodic_threshold,
    evaluate_candidate,
    solve_smooth_pasting,
)
from sedopt import cli, mc
from sedopt.errors import DomainError, InputError, StructureError
from sedopt.pde import Grid, ValueField, extract_policy, solve_stationary
from sedopt.mc import (
    estimate_cost,
    policy_gap_check,
    simulate_controlled,
    simulate_storage,
)
from sedopt.pde import CostSpec, ThresholdPolicy, single_regime_chain
from sedopt.regime import (
    DischargeSeries,
    RegimeChain,
    RegimePath,
    estimate_chain,
    realistic_chain,
    sample_regime_path,
    spawn_streams,
    stationary_distribution,
)
from sedopt.transport import SedimentProperties, rates_for_chain

BENCH_COSTS = CostSpec(delta=BENCHMARK.delta, c=BENCHMARK.c, d=BENCHMARK.d, lam=BENCHMARK.lam)
BENCH_RATES = np.array([BENCHMARK.S])
CHAIN_1 = single_regime_chain()


def three_regime_chain():
    rates = np.array([
        [0.0, 0.8, 0.1],
        [1.0, 0.0, 0.4],
        [0.3, 1.5, 0.0],
    ])
    return RegimeChain(discharges=np.array([1.0, 5.0, 20.0]), rates=rates)


def reference_decay(t, y, rate, target):
    """The oracle's decay from y at t to `target`: empty when either rounded
    test says so, the hit time t + y / rate <= target or the clamp
    max(y - rate (target - t), 0) == 0, and then hit at min(t + y / rate,
    target). Returns the end storage and the hit time (NaN for no hit)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t_hit = t + y / rate
    clamp = np.maximum(y - rate * (target - t), 0.0)
    empty = (t_hit <= target) | (clamp == 0.0)
    return np.where(empty, 0.0, clamp), np.where(empty & (y > 0.0),
                                                 np.minimum(t_hit, target), np.nan)


def reference_simulate(chain, rates, policy, costs, y0, initial_regime, horizon, n_paths,
                       seed):
    """The event loop as it stood before the fused step, frozen as the
    bit-for-bit reference of `mc._simulate`, with the dense jump rule: a
    separate decay, horizon check and event decision per step, and paths
    leaving the arrays at the horizon. Its `reference_decay` follows the
    engine's emptiness rule, not the hit time alone."""
    def next_switch(rng, t, out):
        hold = rng.exponential(size=t.size)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(out > 0.0, t + hold / out, np.inf)

    cum = np.cumsum(chain.rates, axis=1)
    table = np.divide(cum, cum[:, -1:], out=np.ones_like(cum), where=cum[:, -1:] > 0)

    def jump(regimes, u):
        return np.count_nonzero(u[:, None] >= table[regimes], axis=-1)

    def interval(t0, t1):
        if delta == 0.0:
            return t1 - t0
        return (np.exp(-delta * t0) - np.exp(-delta * t1)) / delta

    rng_regime, rng_obs = [np.random.default_rng(s)
                           for s in np.random.SeedSequence(seed).spawn(2)]
    delta, lam, out_rates = costs.delta, costs.lam, chain.out_rates
    thresholds = np.full(chain.count, -np.inf) if policy is None else policy.boundaries
    path = np.arange(n_paths)
    t = np.zeros(n_paths)
    y = np.full(n_paths, float(y0))
    regime = np.full(n_paths, int(initial_regime))
    t_switch = next_switch(rng_regime, t, out_rates[regime])
    t_obs = rng_obs.exponential(size=n_paths) / lam
    depleted_since = np.full(n_paths, 0.0 if y0 == 0.0 else np.nan)
    cost, samples = np.zeros(n_paths), np.empty(n_paths)
    events = replenishments = 0
    depleted_time = 0.0
    while path.size:
        t_next = np.minimum(np.minimum(t_switch, t_obs), horizon)
        y, t_hit = reference_decay(t, y, rates[regime], t_next)
        depleted_since = np.where(np.isnan(t_hit), depleted_since, t_hit)
        t = t_next
        live = t < horizon
        if np.any(live & (t_switch == t_obs)):
            raise StructureError("an observation coincides with a regime switch")
        switch = np.flatnonzero(live & (t_switch < t_obs))
        observe = np.flatnonzero(live & (t_obs < t_switch))
        regime[switch] = jump(regime[switch], rng_regime.random(switch.size))
        t_switch[switch] = next_switch(rng_regime, t[switch], out_rates[regime[switch]])
        t_obs[observe] = t[observe] + rng_obs.exponential(size=observe.size) / lam
        acted = observe[y[observe] <= thresholds[regime[observe]]]
        closing = np.concatenate([acted, np.flatnonzero(~live)])
        closing = closing[~np.isnan(depleted_since[closing])]
        cost[closing] += interval(depleted_since[closing], t[closing])
        depleted_time += float(np.sum(t[closing] - depleted_since[closing]))
        filled = acted[y[acted] < 1.0]
        cost[filled] += np.exp(-delta * t[filled]) * costs.intervention_cost(y[filled])
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


def absorbing_chain():
    """Three regimes; regime 2 is entered from both others and never left."""
    rates = np.array([
        [0.0, 0.8, 0.1],
        [1.0, 0.0, 0.4],
        [0.0, 0.0, 0.0],
    ])
    return RegimeChain(discharges=np.array([1.0, 5.0, 20.0]), rates=rates)


ENGINE_CASES = {
    "realistic43": (realistic_chain(0), rates_for_chain(realistic_chain(0), SedimentProperties())),
    "three-regime, zero transport": (three_regime_chain(), np.array([0.0, 0.08, 0.5])),
    "absorbing": (absorbing_chain(), np.array([0.02, 0.08, 0.5])),
    "single": (CHAIN_1, BENCH_RATES),
}
THRESHOLDS = st.one_of(st.sampled_from([-np.inf, 0.0, 1.0]), st.floats(0.0, 1.0))


def integrated_rate_oracle(path: RegimePath, rates, t):
    """Independent evaluation of the cumulative transport integral."""
    total = 0.0
    for t0, t1, idx in path.spans():
        if t <= t0:
            break
        total += rates[idx] * (min(t, t1) - t0)
    return total


@pytest.mark.parametrize("rates, error", [
    ([-0.05], InputError),
    ([math.nan], InputError),
    ([math.inf], InputError),
    ([0.05, 0.05], StructureError),
])
@pytest.mark.parametrize("entry", [
    lambda r: estimate_cost(CHAIN_1, r, None, BENCH_COSTS, 1.0, 50.0, 8, seed=0),
    lambda r: simulate_controlled(CHAIN_1, r, None, BENCH_COSTS, 1.0, 50.0, seed=0),
    lambda r: simulate_storage(RegimePath(np.array([0.0]), np.array([0]), 50.0, 1), r, 1.0),
    lambda r: solve_stationary(CHAIN_1, r, BENCH_COSTS, Grid(11)),
    lambda r: ValueField(np.zeros((1, 11)), Grid(11), CHAIN_1, r, BENCH_COSTS),
], ids=["estimate_cost", "simulate_controlled", "simulate_storage", "solve_stationary",
        "ValueField"])
def test_bad_drain_rates_rejected(entry, rates, error):
    # unchecked, a negative rate gives a mean cost above the 1/delta = 10
    # that no path can exceed, and a NaN rate a mean of 0.0 +- 0.0
    with pytest.raises(error):
        entry(np.array(rates))


@pytest.mark.parametrize("horizon", [0.0, -1.0, math.inf, math.nan])
@pytest.mark.parametrize("entry", [
    lambda h: estimate_cost(CHAIN_1, BENCH_RATES, None, BENCH_COSTS, 1.0, h, 8, seed=0),
    lambda h: simulate_controlled(CHAIN_1, BENCH_RATES, None, BENCH_COSTS, 1.0, h, seed=0),
    lambda h: sample_regime_path(three_regime_chain(), 0, h, seed=0),
    lambda h: RegimePath(np.array([0.0]), np.array([0]), h, 1),
], ids=["estimate_cost", "simulate_controlled", "sample_regime_path", "RegimePath"])
def test_bad_horizon_rejected(entry, horizon):
    with pytest.raises(InputError):
        entry(horizon)


@pytest.mark.parametrize("y0, initial",
                         [(1.5, 0), (math.nan, 0), (1.0, -1), (1.0, 3), (1.0, 0.5),
                          (1.0, True)],
                         ids=["y0-above-1", "y0-nan", "regime-negative", "regime-count",
                              "regime-fraction", "regime-bool"])
def test_bad_start_rejected(y0, initial):
    with pytest.raises(InputError):
        estimate_cost(three_regime_chain(), np.zeros(3), None, BENCH_COSTS, y0, 10.0, 8,
                      seed=0, initial_regime=initial)


@pytest.mark.parametrize("n_paths", [2.5, math.nan, np.float64(8.0), 1, -3])
def test_bad_path_count_rejected(n_paths):
    # a float count used to raise a bare TypeError, and NaN a bare ValueError
    with pytest.raises(InputError, match="path"):
        estimate_cost(CHAIN_1, BENCH_RATES, None, BENCH_COSTS, 1.0, 10.0, n_paths, seed=0)


@pytest.mark.parametrize("entry", [
    lambda seed: estimate_cost(CHAIN_1, BENCH_RATES, None, BENCH_COSTS, 1.0, 10.0, 8, seed),
    lambda seed: simulate_controlled(CHAIN_1, BENCH_RATES, None, BENCH_COSTS, 1.0, 10.0, seed),
    lambda seed: sample_regime_path(three_regime_chain(), 0, 10.0, seed),
], ids=["estimate_cost", "simulate_controlled", "sample_regime_path"])
@pytest.mark.parametrize("seed", [-1, 1.5, True, np.True_])
def test_bad_seed_rejected(entry, seed):
    # numpy's SeedSequence raises a bare ValueError or TypeError, and takes True as 1
    with pytest.raises(InputError, match="bad seed"):
        entry(seed)


@pytest.mark.parametrize("case", sorted(ENGINE_CASES))
def test_sample_regime_path_is_the_engine_regime_path(case):
    # one seed contract: `simulate_controlled` draws its regime path with
    # `sample_regime_path` and its observations in the engine's order, then
    # replays them in closed form, so it is a one-path run of the engine:
    # cost, events, refills and depleted time agree bit for bit
    chain, rates = ENGINE_CASES[case]
    rng = np.random.default_rng(2024)
    absorbed = 0
    for delta in (0.2, 0.0):
        costs = CostSpec(delta=delta, c=0.1, d=0.05, lam=0.5)
        for seed in range(25):
            initial, y0 = seed % chain.count, (0.0, 0.5, 1.0)[seed % 3]
            thresholds = rng.choice([-np.inf, 1.0, *rng.uniform(size=3)], size=chain.count)
            record = simulate_controlled(chain, rates, ThresholdPolicy(boundaries=thresholds),
                                         costs, y0, 40.0, seed, initial)
            cost, events, filled, depleted = mc._simulate(
                chain, rates, thresholds[None, :], costs, y0, initial, 40.0, 1, seed)
            assert record.cost == cost[0, 0]
            assert record.regime_path.regimes.size - 1 + record.observations.size == events
            assert np.count_nonzero(record.actions) == filled[0]
            assert sum(end - start for start, end in record.depletion) == depleted[0]
            np.testing.assert_array_equal(
                record.regime_path.start_times,
                sample_regime_path(chain, initial, 40.0, seed).start_times)
            regimes = record.regime_path.regimes
            absorbed += regimes.size > 1 and regimes[-1] == 2
    if case == "absorbing":
        assert absorbed  # some paths switch into the absorbing regime and stay


class TestSimulateStorage:
    def test_single_regime_depletion_time(self):
        path = RegimePath(start_times=np.array([0.0]), regimes=np.array([0]),
                          horizon=40.0, count=1)
        storage = simulate_storage(path, np.array([0.05]), y0=1.0)
        # hits zero exactly at y0 / S = 20 days and stays there
        assert storage.at(20.0) == 0.0
        assert storage.at(39.0) == 0.0
        assert storage.at(10.0) == pytest.approx(0.5, abs=1e-15)
        assert 20.0 in storage.times.tolist()

    def test_zero_rate_constant(self):
        path = RegimePath(start_times=np.array([0.0]), regimes=np.array([0]),
                          horizon=10.0, count=1)
        storage = simulate_storage(path, np.array([0.0]), y0=0.7)
        assert np.all(storage.values == 0.7)

    def test_matches_closed_form_on_random_paths(self):
        rates = np.array([0.0, 0.08, 0.5])
        for seed in range(5):
            chain = three_regime_chain()
            path = sample_regime_path(chain, initial=0, horizon=30.0, seed=seed)
            storage = simulate_storage(path, rates, y0=0.9)
            rng = np.random.default_rng(seed + 100)
            probes = rng.uniform(0.0, 30.0, size=100)
            for t in probes:
                exact = max(0.0, 0.9 - integrated_rate_oracle(path, rates, t))
                assert abs(storage.at(t) - exact) < 1e-14

    def test_pathwise_comparison(self):
        chain = three_regime_chain()
        rates = np.array([0.0, 0.08, 0.5])
        path = sample_regime_path(chain, initial=1, horizon=25.0, seed=3)
        hi = simulate_storage(path, rates, y0=0.8)
        lo = simulate_storage(path, rates, y0=0.5)
        probes = np.linspace(0.0, 25.0, 400)
        assert np.all(hi.at(probes) >= lo.at(probes) - 1e-15)

    def test_identical_runs_coincide_exactly(self):
        chain = three_regime_chain()
        path = sample_regime_path(chain, initial=0, horizon=15.0, seed=8)
        a = simulate_storage(path, np.array([0.0, 0.08, 0.5]), y0=0.6)
        b = simulate_storage(path, np.array([0.0, 0.08, 0.5]), y0=0.6)
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.values, b.values)

    def test_nonincreasing_between_events(self):
        path = sample_regime_path(three_regime_chain(), 0, 20.0, seed=2)
        storage = simulate_storage(path, np.array([0.0, 0.08, 0.5]), y0=1.0)
        assert np.all(np.diff(storage.values) <= 1e-15)

    def test_hand_built_path_of_the_paper_chain(self):
        # a path that never enters regime 42 still belongs to the 43-regime
        # chain: it states the chain's size, which its regimes cannot give,
        # so the chain's rates replay it and its occupancy has 43 entries
        chain = realistic_chain(0)
        segments = dict(start_times=np.array([0.0, 2.0, 5.0]), regimes=np.array([2, 3, 2]),
                        horizon=10.0)
        with pytest.raises(TypeError, match="count"):
            RegimePath(**segments)
        path = RegimePath(**segments, count=chain.count)
        rates = rates_for_chain(chain, SedimentProperties())
        storage = simulate_storage(path, rates, y0=1.0)
        assert storage.at(1.0) == pytest.approx(1.0 - rates[2])
        occupancy = path.occupancy()
        assert occupancy.shape == (43,)
        np.testing.assert_array_equal(occupancy[[2, 3]], [7.0, 3.0])
        assert occupancy.sum() == 10.0

    def test_bad_initial(self):
        path = RegimePath(start_times=np.array([0.0]), regimes=np.array([0]),
                          horizon=1.0, count=1)
        with pytest.raises(InputError):
            simulate_storage(path, np.array([0.1]), y0=1.5)

    def test_drain_too_small_to_empty_raises_no_warning(self):
        # y / rate overflows at a drain of 1e-310, inside the replay: the
        # store never empties, and no RuntimeWarning (an error here) escapes
        path = RegimePath(np.array([0.0]), np.array([0]), 10.0, 1)
        assert np.all(simulate_storage(path, np.array([1e-310]), 1.0).values == 1.0)
        policy = ThresholdPolicy(boundaries=np.array([0.5]))
        record = simulate_controlled(CHAIN_1, np.array([1e-310]), policy, BENCH_COSTS,
                                     y0=1.0, horizon=100.0, seed=1)
        assert record.depletion == [] and record.cost == 0.0
        assert record.observations.size and not record.actions.any()


# Two one-switch paths on which the emptiness tests of the decay disagree by
# an ulp. The first step of ONE_SWITCH ends at zero storage by the clamp
# y - S dt although the hit time t + y0 / S lies one ulp past the switch; the
# first step of MIRROR_SWITCH has its hit time at the switch (49 * (1 / 49)
# rounds below 1) although the clamp leaves 1.1e-16, and its zero-rate
# regime would hold that residue to the horizon. Each must charge its
# depletion from the switch on.
ONE_SWITCH_AT = 0.11277678848227612
ONE_SWITCH = dict(
    regime_path=RegimePath(start_times=np.array([0.0, ONE_SWITCH_AT]), regimes=np.array([0, 1]),
                           horizon=ONE_SWITCH_AT + 5.0, count=2),
    rates=np.array([4.75479529681338, 0.3]), y0=0.5362305434652439, observations=(),
    limits=np.full(2, -np.inf), costs=CostSpec(delta=0.2, c=0.1, d=0.05, lam=0.5))
MIRROR_SWITCH_AT = 1.0 / 49.0
MIRROR_SWITCH = dict(
    ONE_SWITCH, regime_path=RegimePath(start_times=np.array([0.0, MIRROR_SWITCH_AT]),
                                       regimes=np.array([0, 1]), horizon=MIRROR_SWITCH_AT + 5.0,
                                       count=2),
    rates=np.array([49.0, 0.0]), y0=1.0)


def replayed_record(case):
    return mc.PathRecord(case["regime_path"], np.empty(0), *mc._replay(**case))


def seeded_record(case, thresholds, y0, seed):
    chain, rates = ENGINE_CASES[case]
    policy = ThresholdPolicy(boundaries=np.array(thresholds[:chain.count]))
    costs = CostSpec(delta=0.2, c=0.3, d=0.05, lam=0.4)
    return simulate_controlled(chain, rates, policy, costs, y0, 60.0, seed, seed % chain.count)


def at_or_near_emptying(t, y, rate, ulps):
    """The step end t + y / rate moved by `ulps` units in the last place,
    or t + `ulps` when the rate never empties."""
    if rate == 0.0 or not math.isfinite(y / rate):
        return t + abs(ulps)
    end = t + y / rate
    for _ in range(abs(ulps)):
        end = math.nextafter(end, math.copysign(math.inf, ulps))
    return max(end, t)


class TestDecay:
    @pytest.mark.parametrize("case, s, cost", [
        (ONE_SWITCH, ONE_SWITCH_AT, 3.090112226020334),
        (MIRROR_SWITCH, MIRROR_SWITCH_AT, 3.1477286661786783),
    ], ids=["clamp at zero", "hit time at the switch"])
    def test_one_switch_path_charges_its_depletion(self, case, s, cost):
        with np.errstate(divide="ignore", invalid="ignore"):  # the caller's
            assert mc._decay(0.0, case["y0"], case["rates"][0], s) == (0.0, s, True)
            fills, storage, depletion, charged = mc._replay(**case)
        assert fills.size == 0 and np.all(storage.at(np.linspace(s, s + 5.0, 9)) == 0.0)
        assert depletion == [(s, s + 5.0)]
        assert charged == (math.exp(-0.2 * s) - math.exp(-0.2 * (s + 5.0))) / 0.2 == cost

    @settings(max_examples=300, deadline=None)
    @given(t=st.one_of(st.just(0.0), st.floats(0.0, 1000.0)),
           y=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
           rate=st.one_of(st.just(0.0), st.floats(0.0, 50.0)),
           end=st.one_of(st.floats(0.0, 1000.0).map(lambda d: ("after", d)),
                         st.integers(-4, 4).map(lambda k: ("ulps", k))))
    @example(t=0.0, y=ONE_SWITCH["y0"], rate=ONE_SWITCH["rates"][0],
             end=("after", ONE_SWITCH_AT))
    @example(t=0.0, y=1.0, rate=49.0, end=("after", MIRROR_SWITCH_AT))
    def test_a_step_that_either_test_calls_empty_empties(self, t, y, rate, end):
        kind, value = end
        end = t + value if kind == "after" else at_or_near_emptying(t, y, rate, value)
        with np.errstate(all="ignore"):  # the caller's: a zero rate never empties
            y_end, t_hit, hit = mc._decay(t, y, np.float64(rate), end)  # a rate is numpy's
        # the two rounded tests of emptiness: the hit time and the clamp
        clamp = max(y - rate * (end - t), 0.0)
        empties = y > 0.0 and (clamp == 0.0 or rate > 0.0 and t + y / rate <= end)
        assert hit == empties
        if hit:
            assert y_end == 0.0 and t <= t_hit <= end
        else:
            assert y_end == clamp
        # and the exact storage y - rate (end - t) of the rounded inputs, away
        # from the band that rounding the step's few operations can cross
        exact = Fraction(y) - Fraction(rate) * (Fraction(end) - Fraction(t))
        band = 16 * (rate * math.ulp(max(end, 1.0)) + math.ulp(1.0))
        if y > 0.0 and exact < -band:
            assert hit
        if exact > band:
            assert not hit and y_end > 0.0

    @settings(max_examples=40, deadline=None)
    @given(record=st.builds(seeded_record, case=st.sampled_from(sorted(ENGINE_CASES)),
                            thresholds=st.lists(THRESHOLDS, min_size=43, max_size=43),
                            y0=st.sampled_from([0.0, 0.4, 1.0]),
                            seed=st.integers(0, 2**32 - 1)))
    @example(record=replayed_record(ONE_SWITCH))
    @example(record=replayed_record(MIRROR_SWITCH))
    def test_depletion_is_the_time_at_zero_storage(self, record):
        # every stretch where the storage curve sits at 0 is charged, and
        # nothing else: a refill is a jump at one time, so it adds no length
        times, values = record.storage.times, record.storage.values
        at_zero = (values[:-1] == 0.0) & (values[1:] == 0.0)
        assert math.fsum(np.diff(times)[at_zero]) == pytest.approx(
            math.fsum(end - start for start, end in record.depletion), rel=0, abs=1e-12)
        # and no stretch is held at a rounding residue above 0 instead
        held = (values[:-1] == values[1:]) & (np.diff(times) > 0.0)
        assert not np.any(held & (values[:-1] > 0.0) & (values[:-1] <= 4 * np.finfo(float).eps))


class TestSimulateControlled:
    def test_zero_threshold_acts_only_at_depletion(self):
        policy = ThresholdPolicy(boundaries=np.array([0.0]))
        rec = simulate_controlled(CHAIN_1, BENCH_RATES, policy, BENCH_COSTS,
                                  y0=1.0, horizon=300.0, seed=4)
        acted = rec.actions > 0.0
        assert acted.any()
        # replenishment happens exactly from the depleted state
        np.testing.assert_allclose(rec.actions[acted], 1.0)
        # and the first action comes after the deterministic depletion time
        assert rec.observations[acted][0] > 1.0 / BENCHMARK.S

    def test_full_threshold_replenishes_every_observation(self):
        policy = ThresholdPolicy(boundaries=np.array([1.0]))
        rec = simulate_controlled(CHAIN_1, BENCH_RATES, policy, BENCH_COSTS,
                                  y0=1.0, horizon=100.0, seed=5)
        assert rec.observations.size > 0
        assert np.all(rec.actions > 0.0)
        # replenished amount is the gap to full storage at the observation
        pre = 1.0 - np.minimum(BENCHMARK.S * np.diff(np.concatenate([[0.0], rec.observations])), 1.0)
        np.testing.assert_allclose(rec.actions, 1.0 - pre, atol=1e-12)

    def test_null_policy_never_acts(self):
        rec = simulate_controlled(CHAIN_1, BENCH_RATES, None, BENCH_COSTS,
                                  y0=1.0, horizon=300.0, seed=6)
        assert np.all(rec.actions == 0.0)
        assert rec.depletion and rec.depletion[0][0] == pytest.approx(20.0)
        assert rec.depletion[0][1] == 300.0

    def test_never_boundary_is_the_null_control(self):
        never = ThresholdPolicy(boundaries=np.array([-np.inf]))
        runs = [estimate_cost(CHAIN_1, BENCH_RATES, policy, BENCH_COSTS, 1.0, 300.0, 64,
                              seed=6) for policy in (never, None)]
        assert runs[0] == runs[1] and runs[0].replenishments_per_path == 0.0

    def test_deterministic_given_seed(self):
        policy = ThresholdPolicy(boundaries=np.array([0.6]))
        a = simulate_controlled(CHAIN_1, BENCH_RATES, policy, BENCH_COSTS,
                                1.0, 50.0, seed=11)
        b = simulate_controlled(CHAIN_1, BENCH_RATES, policy, BENCH_COSTS,
                                1.0, 50.0, seed=11)
        np.testing.assert_array_equal(a.observations, b.observations)
        np.testing.assert_array_equal(a.actions, b.actions)
        np.testing.assert_array_equal(a.storage.values, b.storage.values)

    def test_observation_count_is_poisson(self):
        lam, horizon, n = 0.5, 40.0, 400
        costs = CostSpec(delta=0.2, c=0.1, d=0.1, lam=lam)
        counts = [
            simulate_controlled(CHAIN_1, BENCH_RATES, None, costs, 1.0, horizon,
                                seed=k).observations.size
            for k in range(n)
        ]
        mean = np.mean(counts)
        sigma = math.sqrt(lam * horizon / n)
        assert abs(mean - lam * horizon) < 3.0 * sigma

    def test_storage_stays_in_unit_interval(self):
        chain = three_regime_chain()
        rates = np.array([0.0, 0.08, 0.5])
        policy = ThresholdPolicy(boundaries=np.array([0.3, 0.5, 0.7]))
        costs = CostSpec(delta=0.2, c=0.1, d=0.05, lam=0.3)
        rec = simulate_controlled(chain, rates, policy, costs, 0.4, 200.0, seed=1)
        assert rec.storage.values.min() >= 0.0
        assert rec.storage.values.max() <= 1.0

    def test_policy_size_checked(self):
        with pytest.raises(StructureError):
            simulate_controlled(three_regime_chain(), np.zeros(3),
                                ThresholdPolicy(boundaries=np.array([0.5])),
                                BENCH_COSTS, 1.0, 10.0, seed=0)

    def test_observation_at_a_switch_rejected(self, monkeypatch):
        # a null event for continuous draws, but the event order relies on it
        costs = CostSpec(delta=0.2, c=0.1, d=0.1, lam=1.0)
        path = RegimePath(start_times=np.array([0.0, 1.0]), regimes=np.array([0, 1]),
                          horizon=10.0, count=2)
        with pytest.raises(StructureError, match="coincides"):
            mc._replay(path, np.full(2, 0.1), 1.0, [1.0], np.full(2, 0.5), costs)

        # in the engine: with every exponential draw 1, the first switch
        # (rate 1) and the first observation (lambda 1) both fall at t = 1
        class Constant:
            def standard_exponential(self, size):
                return np.ones(size)

            def random(self, size):
                return np.zeros(size)

        monkeypatch.setattr(mc, "_streams", lambda seed: [Constant(), Constant()])
        chain = RegimeChain(discharges=np.array([1.0, 2.0]),
                            rates=np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(StructureError, match="coincides"):
            estimate_cost(chain, np.full(2, 0.1), None, costs, 1.0, 10.0, 4)

    def test_common_random_numbers(self):
        chain = three_regime_chain()
        rates = np.array([0.0, 0.08, 0.5])
        costs = CostSpec(delta=0.2, c=0.1, d=0.05, lam=0.3)
        a, b = (
            simulate_controlled(chain, rates, ThresholdPolicy(boundaries=b), costs,
                                0.4, 200.0, seed=12)
            for b in (np.array([0.3, 0.5, 0.7]), np.array([0.9, 0.0, 0.1]))
        )
        assert a.regime_path.regimes.size > 10
        np.testing.assert_array_equal(a.regime_path.start_times, b.regime_path.start_times)
        np.testing.assert_array_equal(a.regime_path.regimes, b.regime_path.regimes)
        np.testing.assert_array_equal(a.observations, b.observations)
        assert not np.array_equal(a.actions, b.actions)

    def test_record_matches_engine(self):
        chain = three_regime_chain()
        rates = np.array([0.0, 0.08, 0.5])
        policy = ThresholdPolicy(boundaries=np.array([0.3, 0.5, 0.7]))
        costs = CostSpec(delta=0.2, c=0.1, d=0.05, lam=0.3)
        for seed in range(5):
            rec = simulate_controlled(chain, rates, policy, costs, 0.0, 100.0, seed=seed)
            acted = rec.actions > 0.0
            assert acted.any() and rec.depletion
            recomputed = math.fsum(
                math.exp(-0.2 * tau) * (costs.c * eta + costs.d)
                for tau, eta in zip(rec.observations[acted], rec.actions[acted])
            ) + math.fsum(
                (math.exp(-0.2 * t0) - math.exp(-0.2 * t1)) / 0.2 for t0, t1 in rec.depletion
            )
            assert abs(rec.cost - recomputed) < 1e-12
            # each observation applies the threshold of the regime it falls in
            held = np.array([rec.regime_path.regime_at(tau) for tau in rec.observations])
            before = np.where(acted, 1.0 - rec.actions, rec.storage.at(rec.observations))
            np.testing.assert_array_equal(acted, before <= policy.boundaries[held])
            # the storage curve sits at zero on the depletion intervals (the
            # right end is the jump to full storage)
            for t0, t1 in rec.depletion:
                assert np.all(rec.storage.at(np.linspace(t0, t1, 7)[:-1]) == 0.0)


class TestEstimateCost:
    def test_null_policy_closed_form(self):
        # deterministic single-regime depletion: integral of e^{-delta s}
        # from y0/S on, exactly e^{-4}/0.2 here
        est = estimate_cost(CHAIN_1, BENCH_RATES,
                            None, CostSpec(delta=0.2, c=0.2, d=0.3, lam=1.0 / 7.0),
                            y0=1.0, horizon=200.0, n_paths=16, seed=0)
        # paths are identical up to accumulation order, so the spread is
        # pure rounding noise
        assert est.stderr < 1e-15
        assert est.mean == pytest.approx(math.exp(-4.0) / 0.2, abs=1e-12)

    def test_mean_respects_value_bound(self):
        policy = ThresholdPolicy(boundaries=np.array([0.9]))
        est = estimate_cost(CHAIN_1, BENCH_RATES, policy, BENCH_COSTS,
                            y0=0.0, horizon=150.0, n_paths=500, seed=2)
        assert est.mean <= 1.0 / BENCH_COSTS.delta + est.truncation_bound

    def test_matches_candidate_value(self):
        sol = solve_smooth_pasting(BENCHMARK)
        policy = ThresholdPolicy(boundaries=np.array([sol.ybar]))
        est = estimate_cost(CHAIN_1, BENCH_RATES, policy, BENCH_COSTS,
                            y0=0.3, horizon=200.0, n_paths=20000, seed=3)
        gap = abs(est.mean - float(evaluate_candidate(sol, 0.3)))
        assert gap < 4.0 * est.stderr

    def test_stderr_scales_with_paths(self):
        policy = ThresholdPolicy(boundaries=np.array([0.6]))
        small = estimate_cost(CHAIN_1, BENCH_RATES, policy, BENCH_COSTS,
                              1.0, 120.0, n_paths=400, seed=5)
        large = estimate_cost(CHAIN_1, BENCH_RATES, policy, BENCH_COSTS,
                              1.0, 120.0, n_paths=4000, seed=6)
        ratio = small.stderr / large.stderr
        assert math.sqrt(10.0) / 1.5 < ratio < math.sqrt(10.0) * 1.5

    def test_horizon_truncation(self):
        policy = ThresholdPolicy(boundaries=np.array([0.6]))
        horizon = 30.0
        a = estimate_cost(CHAIN_1, BENCH_RATES, policy, BENCH_COSTS,
                          1.0, horizon, n_paths=4000, seed=7)
        b = estimate_cost(CHAIN_1, BENCH_RATES, policy, BENCH_COSTS,
                          1.0, 2 * horizon, n_paths=4000, seed=7)
        bound = math.exp(-BENCH_COSTS.delta * horizon) / BENCH_COSTS.delta
        assert abs(b.mean - a.mean) < bound + 3.0 * (a.stderr + b.stderr)

    def test_ergodic_rate_mode(self):
        erg = ergodic_threshold(0.05, 0.2, 0.3, 1.0 / 7.0)
        costs = CostSpec(delta=0.0, c=0.2, d=0.3, lam=1.0 / 7.0)
        policy = ThresholdPolicy(boundaries=np.array([erg.ybar]))
        est = estimate_cost(CHAIN_1, BENCH_RATES, policy, costs,
                            y0=1.0, horizon=2e4, n_paths=60, seed=8)
        assert math.isnan(est.truncation_bound)
        assert abs(est.mean - erg.u) < 3.0 * est.stderr + 0.01 * erg.u

    def test_preconditions(self):
        with pytest.raises(InputError):
            estimate_cost(CHAIN_1, BENCH_RATES, None, BENCH_COSTS, 1.0, 10.0,
                          n_paths=1, seed=0)
        with pytest.raises(InputError):
            estimate_cost(CHAIN_1, BENCH_RATES, None,
                          CostSpec(delta=0.0, c=0.2, d=0.3, lam=1.0 / 7.0),
                          1.0, math.inf, n_paths=10, seed=0)
        with pytest.raises(InputError):
            estimate_cost(CHAIN_1, BENCH_RATES, None, BENCH_COSTS, 1.0, math.inf,
                          n_paths=10, seed=0)

    def test_diagnostics(self):
        # single regime, y0 = 1: the null control is depleted from day 20 on
        null = estimate_cost(CHAIN_1, BENCH_RATES, None, BENCH_COSTS, 1.0, 200.0,
                             n_paths=400, seed=3)
        assert null.replenishments_per_path == 0.0
        assert null.depleted_fraction == pytest.approx(0.9, rel=1e-12)
        mean_obs = BENCH_COSTS.lam * 200.0
        assert abs(null.events_per_path - mean_obs) < 3.0 * math.sqrt(mean_obs / 400)
        # same observations; a full threshold replenishes at every one
        full = estimate_cost(CHAIN_1, BENCH_RATES, ThresholdPolicy(boundaries=np.array([1.0])),
                             BENCH_COSTS, 1.0, 200.0, n_paths=400, seed=3)
        assert full.events_per_path == null.events_per_path
        assert full.replenishments_per_path == full.events_per_path
        assert full.depleted_fraction < null.depleted_fraction

    @pytest.mark.parametrize("chain, rates", [(three_regime_chain(), np.array([0.02, 0.08, 0.5])),
                                              (CHAIN_1, BENCH_RATES)],
                             ids=["switching", "single"])
    def test_subnormal_observation_rate_never_observes(self, chain, rates):
        # each observation wait overflows to +inf: an observation that never
        # comes, so every policy costs what the null control does
        costs = CostSpec(delta=0.2, c=0.2, d=0.3, lam=1e-320)
        policy = ThresholdPolicy(boundaries=np.ones(chain.count))
        est = estimate_cost(chain, rates, policy, costs, 0.4, 60.0, 200, seed=11)
        assert est == estimate_cost(chain, rates, None, costs, 0.4, 60.0, 200, seed=11)
        assert est.replenishments_per_path == 0.0
        # every event is a switch: one path's count is that of its regime path
        _, events, filled, _ = mc._simulate(chain, rates, policy.boundaries[None, :], costs,
                                            0.4, 0, 60.0, 1, 11)
        assert filled == [0]
        assert events == sample_regime_path(chain, 0, 60.0, 11).regimes.size - 1
        assert (events > 0) == (chain.count > 1)

    def test_every_estimate_carries_its_per_path_costs(self):
        policy = ThresholdPolicy(boundaries=np.array([0.4]))
        for delta in (0.2, 0.0):
            costs = CostSpec(delta=delta, c=0.2, d=0.3, lam=1.0 / 7.0)
            est = estimate_cost(CHAIN_1, BENCH_RATES, policy, costs, 1.0, 50.0, n_paths=8,
                                seed=0)
            assert est.samples.shape == (8,) and est.samples.dtype == np.float64
            assert not est.samples.flags.writeable
            with pytest.raises(ValueError):
                est.samples[0] = 0.0
            assert math.fsum(est.samples) / 8 == est.mean
            # the engine's per-path costs; ergodic samples are per day
            row = mc._simulate(CHAIN_1, BENCH_RATES, policy.boundaries[None, :], costs, 1.0, 0,
                               50.0, 8, 0)[0][0]
            np.testing.assert_array_equal(est.samples, row / 50.0 if delta == 0.0 else row)
            assert "samples" not in repr(est)


@cache
def paper_policy_11():
    chain, rates = ENGINE_CASES["realistic43"]
    costs = CostSpec(delta=0.2, c=0.02, d=0.01, lam=1.0 / 7.0)
    return extract_policy(solve_stationary(chain, rates, costs, Grid(11)).field)


@pytest.mark.parametrize("c", [1e306, 1e307, 3e307])
def test_estimate_whose_sums_pass_the_double_range(c):
    # the costs' sum and squares overflow: the reduction runs at a power-of-two
    # scale, with no RuntimeWarning (an error here), and agrees with one at 1e-300
    chain, rates = ENGINE_CASES["realistic43"]
    est = estimate_cost(chain, rates, paper_policy_11(), CostSpec(0.2, c, c, 1.0 / 7.0), 1.0,
                        200.0, 200, seed=1)
    scaled = est.samples * 1e-300
    assert est.mean == pytest.approx(1e300 * scaled.mean(), rel=1e-12)
    assert est.stderr == pytest.approx(1e300 * scaled.std(ddof=1) / math.sqrt(200), rel=1e-12)


def test_path_cost_past_the_double_range_raises():
    chain, rates = ENGINE_CASES["realistic43"]
    with pytest.raises(DomainError, match="double range"):
        estimate_cost(chain, rates, paper_policy_11(), CostSpec(0.2, 1e308, 1e308, 1.0 / 7.0),
                      1.0, 200.0, 200, seed=1)


class TestUnvisitedRegime:
    """A chain estimated from a record that never enters its top bin: that
    regime keeps zero rates in and out, so it is a closed class of its own."""

    COSTS = CostSpec(delta=0.2, c=0.02, d=0.01, lam=1.0 / 7.0)

    @staticmethod
    def record() -> DischargeSeries:
        """Ten days of hourly discharges wandering over bins 0-2 of 4."""
        walk = np.cumsum(np.random.default_rng(0).integers(-1, 2, 240)) % 6
        bins = np.where(walk > 2, 5 - walk, walk)
        return DischargeSeries(times=np.arange(240) / 24.0, discharges=1.25 + 2.5 * bins)

    @pytest.fixture(scope="class")
    def estimated(self):
        with pytest.warns(UserWarning, match=r"never visited in the record: \[3\]"):
            chain = estimate_chain(self.record(), width=2.5, count=4)
        return chain, rates_for_chain(chain, SedimentProperties())

    def test_discounted_solve_converges(self, estimated):
        chain, drains = estimated
        assert chain.rates[3].sum() == chain.rates[:, 3].sum() == 0.0
        result = solve_stationary(chain, drains, self.COSTS, Grid(51))
        assert result.converged
        assert np.all(np.isfinite(result.field.values))
        # the unvisited regime solves its own single-regime problem
        alone = solve_stationary(single_regime_chain(), drains[3:], self.COSTS, Grid(51))
        np.testing.assert_allclose(result.field.values[3], alone.field.values[0], atol=1e-9)

    def test_ergodic_solve_sees_two_closed_classes(self, estimated):
        # no unique long run: the ergodic solve and the stationary law refuse
        # it with the one closed-class error
        chain, drains = estimated
        with pytest.raises(StructureError, match="closed class") as solve_error:
            solve_stationary(chain, drains, CostSpec(delta=0.0, c=0.02, d=0.01, lam=1.0 / 7.0),
                             Grid(51))
        with pytest.raises(StructureError) as law_error:
            stationary_distribution(chain)
        assert str(law_error.value) == str(solve_error.value)

    def test_ergodic_cli_solve_names_both_classes(self, estimated, tmp_path, capsys):
        series = tmp_path / "series.csv"
        record = self.record()
        rows = [f"{t!r},{q!r}" for t, q in zip(record.times.tolist(),
                                               record.discharges.tolist())]
        series.write_text("\n".join(["timestamp,discharge_m3s", *rows]) + "\n")
        out = tmp_path / "out"
        with pytest.warns(UserWarning, match="never visited"):
            assert cli.main(["identify", "--series", str(series), "--width", "2.5",
                             "--count", "4", "--outdir", str(out)]) == 0
        np.testing.assert_array_equal(RegimeChain.from_json(out / "chain.json").rates,
                                      estimated[0].rates)
        capsys.readouterr()
        assert cli.main(["solve", "--chain", str(out / "chain.json"), "--delta", "0",
                         "--n", "21", "--outdir", str(out)]) == 1
        assert "closed classes of regimes, [[0, 1, 2], [3]]" in capsys.readouterr().err
        assert not (out / "solve_result.json").exists()

    def test_cost_started_there_stays_and_matches_the_field(self, estimated):
        chain, drains = estimated
        fld = solve_stationary(chain, drains, self.COSTS, Grid(51)).field
        policy = extract_policy(fld)
        est = estimate_cost(chain, drains, policy, self.COSTS, y0=1.0, horizon=100.0,
                            n_paths=4000, seed=5, initial_regime=3)
        # it never switches: the run is the single-regime run of regime 3
        alone = estimate_cost(single_regime_chain(), drains[3:],
                              ThresholdPolicy(boundaries=policy.boundaries[3:]), self.COSTS,
                              y0=1.0, horizon=100.0, n_paths=4000, seed=5)
        assert (est.mean, est.events_per_path) == (alone.mean, alone.events_per_path)
        # the field is the scheme's, off the exact value by its grid error
        exact = evaluate_candidate(solve_smooth_pasting(ScalarProblem(
            S=float(drains[3]), delta=0.2, c=0.02, d=0.01, lam=1.0 / 7.0)), 1.0)
        grid_error = abs(fld.values[3, -1] - exact)
        assert abs(est.mean - fld.values[3, -1]) <= 3.0 * est.stderr + grid_error


SWITCH_FREE_CASES = {  # (chain, drain rates), start regime: no path ever switches
    "single": ((CHAIN_1, BENCH_RATES), 0),
    "single, zero transport": ((CHAIN_1, np.array([0.0])), 0),
    **{f"no switching, start {i}": ((RegimeChain(discharges=np.array([1.0, 5.0, 20.0]),
                                                 rates=np.zeros((3, 3))),
                                     np.array([0.05, 0.0, 0.3])), i) for i in range(3)},
    "absorbing, start 2": (ENGINE_CASES["absorbing"], 2),
}


def assert_rows_equal_separate_runs(chain, rates, stack, initial):
    """One driver pass for a stack of policies gives each row what a run of
    that policy alone gives, depleted time included."""
    costs = CostSpec(delta=0.2, c=0.02, d=0.01, lam=1.0 / 7.0)
    args = (costs, 0.0, initial, 60.0, 300, 17)
    samples, events, replenishments, depleted_time = mc._simulate(chain, rates, stack, *args)
    for k, row in enumerate(stack):
        alone = mc._simulate(chain, rates, row[None, :], *args)
        np.testing.assert_array_equal(samples[k], alone[0][0])
        assert (events, replenishments[k], depleted_time[k]) == (
            alone[1], alone[2][0], alone[3][0])


class TestEngineOracle:
    @settings(max_examples=60, deadline=None)
    @given(case=st.sampled_from(sorted(ENGINE_CASES)), y0=st.sampled_from([0.0, 0.4, 1.0]),
           n_paths=st.sampled_from([1, 2, 257]), delta=st.sampled_from([0.0, 0.2]),
           thresholds=st.lists(THRESHOLDS, min_size=43, max_size=43),
           initial=st.integers(0, 42), seed=st.integers(0, 2**32 - 1))
    # full storage observed under a threshold of 1: it acts but fills nothing
    @example(case="three-regime, zero transport", y0=1.0, n_paths=257, delta=0.2,
             thresholds=[1.0] * 43, initial=0, seed=3)
    @example(case="single", y0=0.0, n_paths=2, delta=0.0, thresholds=[-np.inf] * 43,
             initial=0, seed=0)
    def test_bit_identical_to_the_frozen_loop(self, case, y0, n_paths, delta, thresholds,
                                              initial, seed):
        chain, rates = ENGINE_CASES[case]
        policy = ThresholdPolicy(boundaries=np.array(thresholds[:chain.count]))
        costs = CostSpec(delta=delta, c=0.3, d=0.05, lam=0.4)
        args = (costs, y0, initial % chain.count, 30.0, n_paths, seed)
        samples, events, replenishments, depleted_time = mc._simulate(
            chain, rates, policy.boundaries[None, :], *args)
        expected = reference_simulate(chain, rates, policy, *args)
        np.testing.assert_array_equal(samples, expected[0][None, :])
        assert (events, replenishments, depleted_time) == (expected[1], [expected[2]],
                                                           [expected[3]])

    @pytest.mark.parametrize("case, initial", SWITCH_FREE_CASES.values(),
                             ids=SWITCH_FREE_CASES.keys())
    @pytest.mark.parametrize("threshold", [-np.inf, 0.0, 1.0, 0.37])
    def test_switch_free_start_is_the_frozen_loop(self, monkeypatch, case, initial, threshold):
        # a start regime with no way out takes the switch-free branch: the
        # frozen loop's outputs bit for bit, and no draw of the regime stream
        chain, rates = case
        monkeypatch.setattr(mc, "_streams", lambda seed: (None, spawn_streams(seed)[1]))
        boundaries = np.full(chain.count, 0.9)  # the other regimes' 0.9 must not act
        boundaries[initial] = threshold
        policy = ThresholdPolicy(boundaries=boundaries)
        for y0, n_paths, delta in itertools.product([0.0, 0.4, 1.0], [1, 2, 257], [0.0, 0.2]):
            args = (CostSpec(delta=delta, c=0.3, d=0.05, lam=0.4), y0, initial, 30.0, n_paths,
                    n_paths + 7)
            samples, events, replenishments, depleted_time = mc._simulate(
                chain, rates, policy.boundaries[None, :], *args)
            expected = reference_simulate(chain, rates, policy, *args)
            np.testing.assert_array_equal(samples, expected[0][None, :])
            assert (events, replenishments, depleted_time) == (expected[1], [expected[2]],
                                                               [expected[3]])

    @pytest.mark.parametrize("case, s", [(ONE_SWITCH, ONE_SWITCH_AT),
                                         (MIRROR_SWITCH, MIRROR_SWITCH_AT)],
                             ids=["clamp at zero", "hit time at the switch"])
    def test_oracle_decay_is_the_engines(self, case, s):
        # on the first steps, where the two rounded tests of emptiness
        # disagree, the oracle empties as the engine does, hit at the switch
        y, rate = case["y0"], case["rates"][0]
        with np.errstate(divide="ignore", invalid="ignore"):  # the engine's caller's
            assert mc._decay(0.0, y, rate, s) == (0.0, s, True)
        assert reference_decay(0.0, y, rate, s) == (0.0, s)

    def test_rows_equal_separate_runs(self):
        chain, rates = ENGINE_CASES["realistic43"]
        rng = np.random.default_rng(4)
        stack = np.vstack([np.full(chain.count, -np.inf), np.ones(chain.count),
                           rng.uniform(0.0, 1.0, (3, chain.count))])
        assert_rows_equal_separate_runs(chain, rates, stack, initial=5)

    def test_switch_free_rows_equal_separate_runs(self):
        # the rows differ only in the start regime's threshold; 0.9 elsewhere
        for (chain, rates), initial in [(ENGINE_CASES["single"], 0),
                                        (ENGINE_CASES["absorbing"], 2)]:
            stack = np.full((3, chain.count), 0.9)
            stack[:, initial] = [-np.inf, 0.37, 1.0]
            assert_rows_equal_separate_runs(chain, rates, stack, initial)

    def test_gap_rows_equal_estimate_cost(self):
        perturbations = [-0.3, -0.05, 0.0, 0.2, 1.0]
        rows = policy_gap_check(BENCHMARK, perturbations, y0=0.6, horizon=80.0,
                                n_paths=300, seed=9)
        assert [row.delta_shift for row in rows] == perturbations
        assert rows[-1].threshold == 1.0
        for row in rows:
            est = estimate_cost(CHAIN_1, BENCH_RATES,
                                ThresholdPolicy(boundaries=np.array([row.threshold])),
                                BENCHMARK, 0.6, 80.0, 300, seed=9)
            assert (row.mean, row.stderr) == (est.mean, est.stderr)


class TestPolicyGapCheck:
    def test_zero_shift_self_consistent(self):
        rows = policy_gap_check(BENCHMARK, [0.0], n_paths=20000, seed=1)
        assert abs(rows[0].gap) < 3.0 * rows[0].stderr

    def test_no_perturbation_beats_optimum(self):
        rows = policy_gap_check(BENCHMARK, [-0.15, 0.0, 0.15], n_paths=20000, seed=2)
        for row in rows:
            assert row.gap > -3.0 * row.stderr

    def test_gross_over_replenishment_costs_extra(self):
        expensive = ScalarProblem(S=0.05, delta=0.2, c=0.3, d=1.2, lam=1.0 / 7.0)
        sol = solve_smooth_pasting(expensive)
        rows = policy_gap_check(expensive, [0.0, 1.0 - sol.ybar],
                                n_paths=20000, seed=3)
        assert rows[1].threshold == 1.0
        assert rows[1].gap > 3.0 * rows[1].stderr

    @pytest.mark.parametrize("shift", [math.nan, math.inf, -math.inf])
    def test_non_finite_shift_raises_before_drawing(self, shift, monkeypatch):
        def no_paths(*args, **kwargs):
            raise AssertionError("paths drawn")

        monkeypatch.setattr(mc, "_estimates", no_paths)
        with pytest.raises(InputError, match=f"shift must be finite, got {shift}"):
            policy_gap_check(BENCHMARK, [0.0, shift], n_paths=100, seed=4)

    def test_no_shift_raises_before_solving(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work done")

        monkeypatch.setattr(mc, "solve_smooth_pasting", no_work)
        monkeypatch.setattr(mc, "_estimates", no_work)
        with pytest.raises(InputError, match="at least one threshold shift"):
            policy_gap_check(BENCHMARK, [], n_paths=100, seed=4)

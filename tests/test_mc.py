import math

import numpy as np
import pytest

from sedopt.analytic import (
    BENCHMARK,
    ScalarProblem,
    ergodic_threshold,
    evaluate_candidate,
    solve_smooth_pasting,
)
from sedopt import mc
from sedopt.errors import DomainError, InputError, StructureError
from sedopt.pde import Grid, ValueField, solve_stationary
from sedopt.mc import (
    estimate_cost,
    policy_gap_check,
    simulate_controlled,
    simulate_storage,
)
from sedopt.pde import CostSpec, ThresholdPolicy, single_regime_chain
from sedopt.regime import RegimeChain, RegimePath, sample_regime_path

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
    lambda r: simulate_storage(RegimePath(np.array([0.0]), np.array([0]), 50.0), r, 1.0),
    lambda r: solve_stationary(CHAIN_1, r, BENCH_COSTS, Grid(11)),
    lambda r: ValueField(np.zeros((1, 11)), Grid(11), CHAIN_1, r, BENCH_COSTS),
], ids=["estimate_cost", "simulate_controlled", "simulate_storage", "solve_stationary",
        "ValueField"])
def test_bad_drain_rates_rejected(entry, rates, error):
    # unchecked, a negative rate gives a mean cost above the 1/delta = 10
    # that no path can exceed, and a NaN rate a mean of 0.0 +- 0.0
    with pytest.raises(error):
        entry(np.array(rates))


class TestSimulateStorage:
    def test_single_regime_depletion_time(self):
        path = RegimePath(start_times=np.array([0.0]), regimes=np.array([0]),
                          horizon=40.0)
        storage = simulate_storage(path, np.array([0.05]), y0=1.0)
        # hits zero exactly at y0 / S = 20 days and stays there
        assert storage.at(20.0) == 0.0
        assert storage.at(39.0) == 0.0
        assert storage.at(10.0) == pytest.approx(0.5, abs=1e-15)
        assert 20.0 in storage.times.tolist()

    def test_zero_rate_constant(self):
        path = RegimePath(start_times=np.array([0.0]), regimes=np.array([0]),
                          horizon=10.0)
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

    def test_bad_initial(self):
        path = RegimePath(start_times=np.array([0.0]), regimes=np.array([0]),
                          horizon=1.0)
        with pytest.raises(InputError):
            simulate_storage(path, np.array([0.1]), y0=1.5)


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
        # a null event for continuous draws, but the event order relies on it:
        # with every exponential draw 1, the first switch (rate 1) and the
        # first observation (lambda 1) both fall at t = 1
        class Constant:
            def exponential(self, size):
                return np.ones(size)

            def random(self, size):
                return np.zeros(size)

        monkeypatch.setattr(mc, "_streams", lambda seed: [Constant(), Constant()])
        chain = RegimeChain(discharges=np.array([1.0, 2.0]),
                            rates=np.array([[0.0, 1.0], [1.0, 0.0]]))
        costs = CostSpec(delta=0.2, c=0.1, d=0.1, lam=1.0)
        for run in (
            lambda: simulate_controlled(chain, np.full(2, 0.1), None, costs, 1.0, 10.0),
            lambda: estimate_cost(chain, np.full(2, 0.1), None, costs, 1.0, 10.0, 4),
        ):
            with pytest.raises(StructureError, match="coincides"):
                run()

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
        with pytest.raises(DomainError):
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

    def test_keep_samples(self):
        est = estimate_cost(CHAIN_1, BENCH_RATES, None, BENCH_COSTS, 1.0, 50.0,
                            n_paths=8, seed=0, keep_samples=True)
        assert len(est.samples) == 8
        assert math.fsum(est.samples) / 8 == pytest.approx(est.mean, rel=1e-15)


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

"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion. The single-regime reference problem is the packaged
BENCHMARK (threshold 0.615195); the multi-regime gate runs a synthetic
8-regime chain with Meyer-Peter-Mueller rates, coarsened as allowed, and
the Monte Carlo check also runs at the paper's size, 43 regimes x 301
vertices.
"""

import math
import time

import numpy as np
import pytest

from sedopt.analytic import (
    BENCHMARK,
    complete_info_threshold,
    ergodic_threshold,
    evaluate_candidate,
    solve_smooth_pasting,
    threshold_sensitivity_sign,
)
from sedopt.errors import NoInteriorThresholdError
from sedopt.mc import estimate_cost, policy_gap_check, simulate_storage
from sedopt.pde import (
    CostSpec,
    Grid,
    SolverConfig,
    ThresholdPolicy,
    convergence_study,
    extract_policy,
    single_regime_chain,
    solve_stationary,
    solve_with_ambiguity,
)
from sedopt.regime import RegimeChain, realistic_chain, sample_regime_path
from sedopt.transport import SedimentProperties, rates_for_chain

EXACT_YBAR = 0.615195  # six-digit reference threshold of the benchmark
TABLE1_LINF = {51: 1.98e-2, 101: 5.58e-3, 201: 1.52e-3, 401: 4.00e-4, 801: 1.10e-4}
TABLE1_L1 = {51: 5.59e-3, 101: 1.45e-3, 201: 3.80e-4, 401: 9.59e-5, 801: 2.40e-5}

BENCH_COSTS = CostSpec(delta=BENCHMARK.delta, c=BENCHMARK.c, d=BENCHMARK.d,
                       lam=BENCHMARK.lam)
BENCH_RATES = np.array([BENCHMARK.S])

_shared = {}


def _report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:>2} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def coarse_chain():
    """Synthetic 8-regime birth-death flow chain on 2.5 m^3/s bins."""
    count = 8
    rates = np.zeros((count, count))
    for i in range(count - 1):
        rates[i, i + 1] = 0.4   # upward bursts
        rates[i + 1, i] = 1.2   # relaxation toward low flow
    return RegimeChain(discharges=(np.arange(count) + 0.5) * 2.5, rates=rates)


def test_criterion_1_smooth_pasting_benchmark():
    start = time.perf_counter()
    sol = solve_smooth_pasting(BENCHMARK)
    elapsed = time.perf_counter() - start
    ok = abs(sol.ybar - EXACT_YBAR) <= 1e-5 and elapsed < 1.0
    _report(1, "smooth-pasting benchmark", ok,
            f"ybar={sol.ybar:.6f} (target {EXACT_YBAR} +-1e-5), {elapsed:.3f}s")


def test_criterion_2_table1_errors_and_orders():
    start = time.perf_counter()
    rows = convergence_study(
        BENCHMARK, [51, 101, 201, 401, 801],
        SolverConfig(tol=1e-10),
    )
    elapsed = time.perf_counter() - start
    _shared["table_rows"] = rows

    within = all(
        1.0 / 3.0 <= row.linf_error / TABLE1_LINF[row.n] <= 3.0
        and 1.0 / 3.0 <= row.l1_error / TABLE1_L1[row.n] <= 3.0
        for row in rows
    )
    orders = [r.linf_rate for r in rows[1:]] + [r.l1_rate for r in rows[1:]]
    ok = within and all(rate >= 1.8 for rate in orders) and elapsed < 120.0
    worst = min(orders)
    _report(2, "error-table reproduction", ok,
            f"all errors within 3x of reference, min order {worst:.2f}, {elapsed:.1f}s")


def test_criterion_3_threshold_error_within_grid_spacing():
    rows = _shared["table_rows"]
    gaps = {row.n: abs(row.ybar - EXACT_YBAR) for row in rows}
    ok = all(gap <= 1.0 / (n - 1) for n, gap in gaps.items())
    detail = ", ".join(f"n={n}: {gap:.2e}<=h={1.0 / (n - 1):.2e}" for n, gap in gaps.items())
    _report(3, "threshold within one spacing", ok, detail)


def test_criterion_4_ergodic_root_gate_and_limit():
    S, c, d, lam = 0.05, 0.2, 0.3, 1.0 / 7.0
    sol = ergodic_threshold(S, c, d, lam)
    residual = abs((1.0 - sol.ybar) * math.exp(-lam / S * sol.ybar)
                   - d * S / (1.0 - c * S))

    gate_fires = False
    try:
        ergodic_threshold(2.0, c, d, lam)  # (c+d)S = 1 exactly
    except NoInteriorThresholdError:
        gate_fires = True
    gate_clears = ergodic_threshold(1.99, c, d, lam).ybar > 0.0

    closed = complete_info_threshold(S, c, d)
    limit_gap = abs(ergodic_threshold(S, c, d, 1e-6 * S / closed).ybar - closed)

    ok = residual < 1e-12 and gate_fires and gate_clears and limit_gap < 1e-6
    _report(4, "ergodic root equation", ok,
            f"residual={residual:.1e}, gate ok, closed-form gap={limit_gap:.1e}")


def test_criterion_5_sensitivity_sign_and_unimodality():
    c, d, lam, step = 0.2, 0.3, 1.0 / 7.0, 1e-6
    signs = []
    agree = True
    for S in np.linspace(0.05, 1.9, 20):
        sign = threshold_sensitivity_sign(S, c, d, lam)
        fd = (ergodic_threshold(S + step, c, d, lam).ybar
              - ergodic_threshold(S - step, c, d, lam).ybar) / (2 * step)
        agree &= sign == np.sign(fd)
        signs.append(sign)
    flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    ok = agree and flips == 1
    _report(5, "threshold sensitivity in transport rate", ok,
            f"signs match centered differences at 20 rates, {flips} sign change")


def test_criterion_6_monte_carlo_verifies_the_analytic_policy():
    start = time.perf_counter()
    sol = solve_smooth_pasting(BENCHMARK)
    policy = ThresholdPolicy(boundaries=np.array([sol.ybar]))
    horizon, n_paths = 200.0, 100_000

    checks = []
    for k, y0 in enumerate((0.0, 0.3, 1.0)):
        est = estimate_cost(single_regime_chain(), BENCH_RATES, policy,
                            BENCH_COSTS, y0, horizon, n_paths, seed=100 + k)
        target = float(evaluate_candidate(sol, y0))
        checks.append((y0, est.mean, target, est.stderr,
                       abs(est.mean - target) <= 3.0 * est.stderr))
        # the truncated tail is orders of magnitude below the noise floor
        assert est.truncation_bound < est.stderr * 1e-3

    rows = policy_gap_check(BENCHMARK, [-0.15, 0.0, 0.15],
                            n_paths=20_000, seed=55)
    dominance = all(row.gap >= -3.0 * row.stderr for row in rows)
    elapsed = time.perf_counter() - start

    ok = all(c[-1] for c in checks) and dominance and elapsed < 120.0
    detail = "; ".join(
        f"y0={y0}: {mean:.5f} vs {target:.5f} ({abs(mean - target) / se:.1f} se)"
        for y0, mean, target, se, _ in checks
    )
    _report(6, "Monte Carlo optimality verification", ok,
            f"{detail}; no perturbation wins; {elapsed:.1f}s")


def test_criterion_7_exact_path_law():
    rates = np.array([0.0, 0.08, 0.5])
    chain = RegimeChain(
        discharges=np.array([1.0, 5.0, 20.0]),
        rates=np.array([[0.0, 0.8, 0.1], [1.0, 0.0, 0.4], [0.3, 1.5, 0.0]]),
    )
    worst = 0.0
    for seed in range(3):
        path = sample_regime_path(chain, initial=0, horizon=30.0, seed=seed)
        storage = simulate_storage(path, rates, y0=0.9)
        probes = np.random.default_rng(seed).uniform(0.0, 30.0, size=100)
        for t in probes:
            drained = sum(
                rates[i] * (min(t, t1) - t0)
                for t0, t1, i in path.spans() if t0 < t
            )
            worst = max(worst, abs(storage.at(t) - max(0.0, 0.9 - drained)))

    delta, y0, S = 0.2, 1.0, 0.05
    est = estimate_cost(single_regime_chain(), np.array([S]), None,
                        CostSpec(delta=delta, c=0.2, d=0.3, lam=1.0 / 7.0),
                        y0, 200.0, n_paths=8, seed=0)
    null_gap = abs(est.mean - math.exp(-delta * y0 / S) / delta)

    ok = worst < 1e-14 and null_gap < 1e-12
    _report(7, "exact path law", ok,
            f"max probe gap {worst:.2e}, null-policy cost gap {null_gap:.2e}")


def test_criterion_8_value_bounds_and_structure():
    instances = []
    result = solve_stationary(single_regime_chain(), BENCH_RATES, BENCH_COSTS, Grid(101))
    instances.append(("benchmark", result))
    chain = coarse_chain()
    rates = rates_for_chain(chain, SedimentProperties())
    costs = CostSpec(delta=0.2, c=0.02, d=0.01, lam=1.0 / 7.0)
    result = solve_stationary(chain, rates, costs, Grid(101), SolverConfig(tol=1e-9))
    instances.append(("coarse multi-regime", result))

    ok = True
    details = []
    for name, res in instances:
        fld = res.field
        cap = 1.0 / fld.costs.delta + 1e-8
        y = fld.grid.vertices
        intervene = fld.values[:, -1:] + fld.costs.c * (1.0 - y) + fld.costs.d
        nonlocal_term = fld.costs.lam * (fld.values - np.minimum(fld.values, intervene))
        extract_policy(fld)  # raises if any replenish region is not contiguous
        good = (res.min_seen >= -1e-12 and res.max_seen <= cap
                and fld.values.min() >= 0.0 and fld.values.max() <= cap
                and nonlocal_term.min() >= 0.0)
        ok &= good
        details.append(f"{name}: range [{fld.values.min():.3f}, {fld.values.max():.3f}]")
    _report(8, "value bounds and threshold structure", ok, "; ".join(details))


def test_criterion_9_coarse_realistic_properties():
    start = time.perf_counter()
    chain = coarse_chain()
    rates = rates_for_chain(chain, SedimentProperties())
    grid = Grid(101)
    boundaries = {}
    for lam in (1.0, 1.0 / 7.0, 1.0 / 30.0):
        costs = CostSpec(delta=0.2, c=0.02, d=0.01, lam=lam)
        res = solve_stationary(chain, rates, costs, grid, SolverConfig(tol=1e-9))
        assert res.converged
        boundaries[lam] = extract_policy(res.field).boundaries
    elapsed = time.perf_counter() - start
    _shared["coarse_boundaries"] = boundaries

    b1, b7, b30 = boundaries[1.0], boundaries[1.0 / 7.0], boundaries[1.0 / 30.0]
    monotone = bool(np.all(b7 >= b1 - 1e-12) and np.all(b30 >= b7 - 1e-12))

    unimodal = True
    for b in boundaries.values():
        peak = int(np.argmax(b))
        unimodal &= bool(np.all(np.diff(b[: peak + 1]) >= -1e-12)
                         and np.all(np.diff(b[peak:]) <= 1e-12))

    ok = monotone and unimodal and elapsed <= 600.0
    _report(9, "free-boundary shape on the multi-regime instance", ok,
            f"pointwise nonincreasing in intensity: {monotone}, "
            f"unimodal in regime: {unimodal}, {elapsed:.1f}s")


def test_multi_regime_policy_verified_by_monte_carlo():
    # the paper's independent check of criterion 6, on the multi-regime
    # policy: simulated cost of the extracted free boundary against the
    # value field, allowing 3 se of noise plus the field's change under
    # refinement (an O(h) bound)
    chain = coarse_chain()
    rates = rates_for_chain(chain, SedimentProperties())
    costs = CostSpec(delta=0.2, c=0.02, d=0.01, lam=1.0 / 7.0)
    coarse, fine = (solve_stationary(chain, rates, costs, Grid(n), SolverConfig(tol=1e-9))
                    for n in (101, 201))
    assert coarse.converged and fine.converged
    policy = extract_policy(coarse.field)

    def field_at(res, regime, y0):
        return float(np.interp(y0, res.field.grid.vertices, res.field.values[regime]))

    details, ok = [], True
    for k, (regime, y0) in enumerate(((0, 1.0), (2, 0.6), (5, 0.3), (7, 0.0))):
        est = estimate_cost(chain, rates, policy, costs, y0, 200.0, 20_000,
                            seed=300 + k, initial_regime=regime)
        target = field_at(coarse, regime, y0)
        bound = 3.0 * est.stderr + abs(target - field_at(fine, regime, y0))
        ok &= abs(est.mean - target) <= bound
        details.append(f"regime {regime}, y0={y0}: {est.mean:.5f} vs {target:.5f} "
                       f"({abs(est.mean - target) / est.stderr:.1f} se)")
    print("MULTI-REGIME MC:", "; ".join(details))
    assert ok, "; ".join(details)


def test_paper_size_policy_verified_by_monte_carlo():
    # the same check at the paper's size, 43 regimes x 301 vertices, plus a
    # common-random-numbers check from regime 0 at full storage: shifting
    # every threshold by 0.05 up or down does not beat the policy beyond
    # 3 se of the paired per-path difference
    start = time.perf_counter()
    chain = realistic_chain(0)
    rates = rates_for_chain(chain, SedimentProperties())
    costs = CostSpec(delta=0.2, c=0.02, d=0.01, lam=1.0 / 7.0)
    coarse, fine = (solve_stationary(chain, rates, costs, Grid(n), SolverConfig(tol=1e-9))
                    for n in (301, 601))
    assert coarse.converged and fine.converged
    policy = extract_policy(coarse.field)
    shifted = {shift: ThresholdPolicy(boundaries=np.clip(policy.boundaries + shift, 0.0, 1.0))
               for shift in (-0.05, 0.05)}

    def field_at(res, regime, y0):
        return float(np.interp(y0, res.field.grid.vertices, res.field.values[regime]))

    def samples(rule, regime, y0, seed):
        est = estimate_cost(chain, rates, rule, costs, y0, 100.0, 20_000, seed=seed,
                            initial_regime=regime)
        return est, est.samples

    details, ok = [], True
    for k, (regime, y0) in enumerate(((0, 1.0), (20, 0.6), (42, 0.3))):
        est, base = samples(policy, regime, y0, 4300 + k)
        target = field_at(coarse, regime, y0)
        bound = 3.0 * est.stderr + abs(target - field_at(fine, regime, y0))
        ok &= abs(est.mean - target) <= bound
        details.append(f"regime {regime}, y0={y0}: {est.mean:.5f} vs {target:.5f} "
                       f"({abs(est.mean - target) / est.stderr:.1f} se)")
        if k > 0:
            continue
        for shift, rule in shifted.items():  # the same seed: common random numbers
            diff = samples(rule, regime, y0, 4300 + k)[1] - base
            se = diff.std(ddof=1) / math.sqrt(diff.size)
            ok &= diff.mean() >= -3.0 * se
            details.append(f"shift {shift:+.2f}: {diff.mean() / se:+.1f} se")
    elapsed = time.perf_counter() - start
    print(f"PAPER-SIZE MC ({elapsed:.1f}s):", "; ".join(details))
    assert ok, "; ".join(details)


def test_criterion_10_ambiguity_reduction():
    chain = coarse_chain()
    rates = rates_for_chain(chain, SedimentProperties())
    costs = CostSpec(delta=0.2, c=0.02, d=0.01, lam=1.0 / 7.0)
    grid = Grid(61)
    config = SolverConfig(tol=1e-9)
    plain = solve_stationary(chain, rates, costs, grid, config)
    worst = solve_with_ambiguity(chain, rates, costs, (1.0 / 7.0, 1.0), grid, config)
    gap = float(np.max(np.abs(plain.field.values - worst.field.values)))
    ok = gap < 1e-12
    _report(10, "observation-uncertainty reduction", ok, f"sup-norm gap {gap:.1e}")


def test_criterion_11_ergodic_pde_matches_effective_rate():
    u = ergodic_threshold(0.05, 0.2, 0.3, 1.0 / 7.0).u
    costs = CostSpec(delta=0.0, c=0.2, d=0.3, lam=1.0 / 7.0)
    res = solve_stationary(single_regime_chain(), BENCH_RATES, costs,
                           Grid(401), SolverConfig(tol=1e-12))
    rel = abs(res.cost_rate - u) / u
    ok = rel <= 0.02
    _report(11, "ergodic cost rate", ok,
            f"pde {res.cost_rate:.6f} vs analytic {u:.6f} ({rel:.2%})")

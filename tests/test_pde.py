import csv
import warnings
from dataclasses import replace
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sedopt.analytic import (
    BENCHMARK,
    complete_info_threshold,
    ergodic_threshold,
    evaluate_candidate,
    solve_smooth_pasting,
)
from sedopt.errors import ConvergenceError, InputError, StructureError
from sedopt.mc import estimate_cost
from sedopt.pde import (
    CostSpec,
    Grid,
    SolverConfig,
    ThresholdPolicy,
    ValueField,
    _STALL_WINDOW,
    _Howard,
    convergence_study,
    extract_policy,
    read_free_boundary_csv,
    residual,
    single_regime_chain,
    solve_stationary,
    solve_with_ambiguity,
    weno3_left_derivative,
    write_free_boundary_csv,
    write_value_field_csv,
)
from sedopt.regime import RegimeChain, realistic_chain, stationary_distribution
from sedopt.transport import SedimentProperties, rates_for_chain

BENCH_COSTS = CostSpec(delta=BENCHMARK.delta, c=BENCHMARK.c, d=BENCHMARK.d, lam=BENCHMARK.lam)
BENCH_RATES = np.array([BENCHMARK.S])


def solve(chain, rates, costs, grid, config=SolverConfig()):
    """solve_stationary, checking that a converged discounted solve meets tol."""
    result = solve_stationary(chain, rates, costs, grid, config)
    if result.converged and costs.delta > 0:
        assert np.max(np.abs(residual(result.field))) <= config.tol
    return result


def solve_benchmark(n, tol=1e-10):
    return solve(single_regime_chain(), BENCH_RATES, BENCH_COSTS, Grid(n),
                 SolverConfig(tol=tol))


def two_regime_setup():
    chain = RegimeChain(
        discharges=np.array([1.0, 10.0]),
        rates=np.array([[0.0, 0.5], [1.0, 0.0]]),
    )
    return chain, np.array([0.02, 0.3])


def explicit_march(chain, rates, costs, grid, tol):
    """Reference solve: forward Euler in pseudo-time, P <- P - dt residual(P),
    at a CFL-stable step until the step change drops below tol.

    Returns the field and the step. The march stops about tol / (dt delta)
    short of the fixed point: the constant mode, which decays at rate
    delta, is the slowest.
    """
    outflow = chain.rates.sum(axis=1)
    dt = 0.4 * grid.h / (rates.max() + grid.h * (costs.delta + costs.lam + outflow.max()))
    v = np.zeros((chain.count, grid.n))
    howard = _Howard(chain, rates, costs, grid)
    for _ in range(10**6):
        step = dt * howard.residual(v)[0]
        v = v - step
        if np.max(np.abs(step)) < tol:
            return v, dt
    raise AssertionError("the reference march did not converge")


@pytest.mark.parametrize("n", [30.5, 31.0, np.nan, 4, -1])
def test_bad_grid_size_rejected(n):
    # Grid(30.5) used to be accepted and fail later with a bare TypeError
    with pytest.raises(InputError, match="grid"):
        Grid(n)


class TestWeno3:
    def test_exact_on_linear_data(self):
        y = np.linspace(0.0, 1.0, 41)
        d = weno3_left_derivative(3.0 * y + 1.0, 1.0 / 40.0)
        np.testing.assert_allclose(d, 3.0, atol=1e-12)

    @given(slope=st.floats(-50.0, 50.0), offset=st.floats(-5.0, 5.0))
    @settings(max_examples=50)
    def test_exact_on_linear_data_any_slope(self, slope, offset):
        y = np.linspace(0.0, 1.0, 21)
        d = weno3_left_derivative(slope * y + offset, 1.0 / 20.0)
        np.testing.assert_allclose(d, slope, atol=1e-9)

    def test_quadratic_data_machine_exact(self):
        # both candidate stencils reproduce quadratics, so any convex
        # combination of them does too; only the ghost-extrapolated end
        # nodes (k < 2, k = n-1) fall back to first order
        y = np.linspace(0.0, 1.0, 81)
        d = weno3_left_derivative(y ** 2, 1.0 / 80.0)
        assert np.max(np.abs(d[2:-1] - 2.0 * y[2:-1])) < 1e-12

    def test_third_order_on_smooth_data(self):
        errs = {}
        for n in (81, 161, 321):
            y = np.linspace(0.0, 1.0, n)
            d = weno3_left_derivative(np.exp(2.0 * y), 1.0 / (n - 1))
            interior = slice(3, n - 3)
            errs[n] = np.max(np.abs(d[interior] - 2.0 * np.exp(2.0 * y[interior])))
        rate1 = np.log(errs[81] / errs[161]) / np.log(2.0)
        rate2 = np.log(errs[161] / errs[321]) / np.log(2.0)
        assert rate1 > 2.5 and rate2 > 2.5

    def test_kink_no_overshoot(self):
        y = np.linspace(0.0, 1.0, 101)
        d = weno3_left_derivative(np.abs(y - 0.5), 0.01)
        assert d.min() >= -1.0 - 1e-10
        assert d.max() <= 1.0 + 1e-10

    def test_batched_rows_match_single(self):
        y = np.linspace(0.0, 1.0, 33)
        rows = np.vstack([np.sin(4 * y), np.exp(y)])
        batched = weno3_left_derivative(rows, 1.0 / 32.0)
        for k in range(2):
            np.testing.assert_array_equal(
                batched[k], weno3_left_derivative(rows[k], 1.0 / 32.0)
            )

    def test_too_short(self):
        with pytest.raises(InputError):
            weno3_left_derivative(np.ones(4), 0.25)

    @pytest.mark.parametrize("h", [0.0, -0.25, np.nan, np.inf])
    def test_spacing_must_be_finite_and_positive(self, h):
        with pytest.raises(InputError):
            weno3_left_derivative(np.linspace(0.0, 1.0, 5), h)


def reference_weno3(values, h):
    """The WENO3 derivative in alpha-weight form as it stood before the
    ratio-form kernel, frozen as the reference of `_Weno3`."""
    v = np.asarray(values, dtype=float)
    v2 = v[None, :] if v.ndim == 1 else v
    n = v2.shape[-1]
    dif = (v2[..., 1:] - v2[..., :-1]) / h
    ext = np.concatenate([dif[..., :1], dif[..., :1], dif, dif[..., -1:]], axis=-1)
    dm2, dm1, dm0 = ext[..., 0:n], ext[..., 1:n + 1], ext[..., 2:n + 2]
    one_sided = 1.5 * dm1 - 0.5 * dm2
    centered = 0.5 * (dm1 + dm0)
    eps = 0.1 * h * h
    alpha0 = (1.0 / 3.0) / (eps + (dm1 - dm2) ** 2) ** 2
    alpha1 = (2.0 / 3.0) / (eps + (dm0 - dm1) ** 2) ** 2
    out = (alpha0 * one_sided + alpha1 * centered) / (alpha0 + alpha1)
    return out[0] if v.ndim == 1 else out


def reference_residual_arrays(v, chain, rates, costs, grid):
    """The residual and intervention gap as computed before the residual
    kernel, frozen with it."""
    adv = rates[:, None] * reference_weno3(v, grid.h)
    adv[:, 0] = 0.0
    coupling = chain.out_rates[:, None] * v - chain.rates @ v
    gap = v - (v[:, -1:] + costs.intervention_cost(grid.vertices))
    res = costs.delta * v + adv + coupling + costs.lam * np.maximum(gap, 0.0)
    res[:, 0] -= 1.0
    return res, gap


def assert_close_to_reference(actual, reference):
    """Agreement to 1e-13 relative, and absolute below magnitude 1."""
    bound = 1e-13 * np.maximum(1.0, np.abs(reference))
    assert np.all(np.abs(actual - reference) <= bound)


@cache
def kernel_cases():
    """(chain, rates, field) on smooth, kinked, flat and 43-regime data."""
    y = Grid(101).vertices
    paper = realistic_chain(0)
    drains = rates_for_chain(paper, SedimentProperties())
    solved = solve_stationary(paper, drains, CostSpec(delta=0.2, c=0.02, d=0.01, lam=1.0 / 7.0),
                              Grid(31), SolverConfig(tol=1e-9)).field.values
    wavy = solved + 1e-3 * np.sin(7.0 * np.arange(solved.size)).reshape(solved.shape)
    two, two_rates = two_regime_setup()
    return {
        "smooth": (single_regime_chain(), BENCH_RATES, (np.exp(-2.0 * y) + np.sin(5.0 * y))[None]),
        "kinked": (single_regime_chain(), BENCH_RATES, np.abs(y - 0.5)[None]),
        "flat": (two, two_rates, np.full((2, 101), 3.0)),
        "43-regime solved": (paper, drains, solved),
        "43-regime perturbed": (paper, drains, wavy),
    }


class TestResidualKernel:
    """`_Howard.residual` and `_Weno3` against the frozen alpha-weight form."""

    @pytest.mark.parametrize("delta", [0.2, 0.0], ids=["discounted", "ergodic"])
    @pytest.mark.parametrize("case", sorted(kernel_cases()))
    def test_matches_the_frozen_residual(self, case, delta):
        chain, rates, v = kernel_cases()[case]
        costs, grid = CostSpec(delta=delta, c=0.02, d=0.01, lam=1.0 / 7.0), Grid(v.shape[1])
        res, gap = _Howard(chain, rates, costs, grid).residual(v)
        ref_res, ref_gap = reference_residual_arrays(v, chain, rates, costs, grid)
        assert_close_to_reference(res, ref_res)
        np.testing.assert_array_equal(gap, ref_gap)
        assert_close_to_reference(weno3_left_derivative(v, grid.h), reference_weno3(v, grid.h))

    def test_successive_calls_share_no_stale_data(self):
        # the work arrays are overwritten in full: the second call's result
        # is the second field's residual, whatever the first field was
        chain, rates, solved = kernel_cases()["43-regime solved"]
        _, _, wavy = kernel_cases()["43-regime perturbed"]
        costs, grid = CostSpec(delta=0.2, c=0.02, d=0.01, lam=1.0 / 7.0), Grid(31)
        howard = _Howard(chain, rates, costs, grid)
        for first, second in ((solved, wavy), (wavy, solved), (np.full_like(solved, 1e6), solved)):
            howard.residual(first)
            res, gap = howard.residual(second)
            ref_res, ref_gap = reference_residual_arrays(second, chain, rates, costs, grid)
            assert_close_to_reference(res, ref_res)
            np.testing.assert_array_equal(gap, ref_gap)


class TestResidual:
    def test_constant_field(self):
        # derivative and nonlocal terms vanish; only the discount term and
        # the depletion source at y = 0 remain
        grid = Grid(11)
        K = 2.5
        fld = ValueField(
            values=np.full((1, 11), K),
            grid=grid,
            chain=single_regime_chain(),
            rates=BENCH_RATES,
            costs=BENCH_COSTS,
        )
        r = residual(fld)
        np.testing.assert_allclose(r[0, 1:], BENCH_COSTS.delta * K, atol=1e-14)
        assert r[0, 0] == pytest.approx(BENCH_COSTS.delta * K - 1.0, abs=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(StructureError):
            ValueField(
                values=np.zeros((2, 11)),
                grid=Grid(11),
                chain=single_regime_chain(),
                rates=BENCH_RATES,
                costs=BENCH_COSTS,
            )

    def exact_field(self, n):
        sol = solve_smooth_pasting(BENCHMARK)
        grid = Grid(n)
        return sol, ValueField(
            values=evaluate_candidate(sol, grid.vertices)[None, :],
            grid=grid,
            chain=single_regime_chain(),
            rates=BENCH_RATES,
            costs=BENCH_COSTS,
        )

    def test_consistency_against_closed_form(self):
        # smooth interior points (outside the ghost-affected bands and away
        # from the C1 kink) converge at third order; the kink neighbourhood
        # stays bounded and shrinks with h
        smooth, kink = {}, {}
        for n in (201, 401, 801):
            sol, fld = self.exact_field(n)
            r = np.abs(residual(fld)[0])
            y = fld.grid.vertices
            k = np.arange(n)
            interior = (k >= 3) & (k <= n - 4) & (np.abs(y - sol.ybar) > 0.05)
            smooth[n] = r[interior].max()
            kink[n] = r[np.abs(y - sol.ybar) <= 0.05].max()
        assert np.log(smooth[201] / smooth[801]) / np.log(4.0) > 2.0
        assert kink[801] < kink[201]
        assert smooth[801] < 1e-7

    def test_boundary_source_is_exact(self):
        # the y = 0 relation is algebraic and the closed form satisfies it
        _, fld = self.exact_field(101)
        assert abs(residual(fld)[0, 0]) < 1e-12

    def test_nonlocal_term_nonnegative(self):
        rng = np.random.default_rng(0)
        grid = Grid(31)
        values = rng.uniform(0.0, 5.0, size=(1, 31))
        fld = ValueField(values=values, grid=grid, chain=single_regime_chain(),
                         rates=BENCH_RATES, costs=BENCH_COSTS)
        y = grid.vertices
        intervene = values[:, -1:] + BENCH_COSTS.c * (1 - y) + BENCH_COSTS.d
        term = BENCH_COSTS.lam * (values - np.minimum(values, intervene))
        assert term.min() >= 0.0
        # and the residual embeds exactly that form
        base = BENCH_COSTS.delta * values
        r = residual(fld)
        np.testing.assert_allclose(r[0, 0] + 1.0, (base + term)[0, 0], atol=1e-14)


class TestSolveStationary:
    def test_benchmark_error_level_n51(self):
        # regression against the frozen coarse-grid error of the scheme
        result = solve_benchmark(51)
        err = result.field.values[0] - evaluate_candidate(
            solve_smooth_pasting(BENCHMARK), Grid(51).vertices
        )
        assert np.max(np.abs(err)) == pytest.approx(1.985429e-02, rel=1e-3)
        assert np.mean(np.abs(err)) == pytest.approx(5.592630e-03, rel=1e-3)
        assert result.converged

    @pytest.mark.parametrize("case", ["benchmark", "two-regime"])
    def test_matches_explicit_march(self, case):
        # the same discrete fixed point as the reference march, to within the
        # march's slack tol / (dt delta) plus the solver's own tol / delta
        if case == "benchmark":
            chain, rates, grid = single_regime_chain(), BENCH_RATES, Grid(51)
            costs = BENCH_COSTS
        else:
            chain, rates = two_regime_setup()
            costs, grid = CostSpec(delta=0.2, c=0.02, d=0.01, lam=1.0 / 7.0), Grid(61)
        tol = 1e-10
        reference, dt = explicit_march(chain, rates, costs, grid, tol)
        result = solve(chain, rates, costs, grid, SolverConfig(tol=tol))
        assert result.converged
        gap = np.max(np.abs(result.field.values - reference))
        assert gap <= (tol / dt + tol) / costs.delta

    def test_history_records_each_iterate(self):
        result = solve_benchmark(101)
        history, changes = result.residual_history, result.policy_changes
        assert len(history) == len(changes) == result.iterations + 1
        assert history[0] == pytest.approx(1.0)  # the depletion source at v = 0
        assert history[-1] <= 1e-10 < min(history[:-1])
        assert changes[0] == 0 and sum(changes) > 0

    def test_stalled_residual_stops_unconverged(self):
        # a tolerance below round-off cannot be met; the solve stops early
        result = solve_benchmark(51, tol=1e-30)
        assert not result.converged
        assert result.iterations < 1000
        assert result.residual_history[-1] < 1e-12
        with pytest.raises(ConvergenceError):
            convergence_study(BENCHMARK, [21, 41], SolverConfig(tol=1e-30))

    def test_round_off_floor_stops_within_a_few_stall_windows(self):
        # the residual reaches round-off in about 35 iterations, and the
        # stall window of 30 ends the solve soon after (558 iterations with
        # the former window of 500)
        result = solve_benchmark(51, tol=1e-300)
        assert not result.converged
        assert result.iterations <= 120
        assert result.residual_history[-1] < 1e-12

    def test_stall_is_a_window_without_a_new_minimum(self):
        # the solve stops the stall window after its lowest residual
        history = solve_benchmark(51, tol=1e-300).residual_history
        assert len(history) - 1 - int(np.argmin(history)) == _STALL_WINDOW

    def test_slowly_improving_solve_converges(self):
        # ergodic seed 75 at n = 451 sets new minima slowly, but sets them:
        # a rule that asked the residual to halve within 30 iterations
        # stopped it at 4.1e-6 after 41
        chain = realistic_chain(75)
        costs = CostSpec(delta=0.0, c=0.02, d=0.01, lam=1.0 / 7.0)
        result = solve_stationary(chain, rates_for_chain(chain, SedimentProperties()), costs,
                                  Grid(451))
        assert result.converged

    def test_wong_parker_rates_converge(self):
        # Wong & Parker's bedload law, q* = 3.97 (theta - 0.0495)^1.5, on the
        # paper chain: the residual contracts by about 0.98 an iteration,
        # and a halving rule stalled at 7.1e-5
        chain = realistic_chain(0)
        drains = rates_for_chain(chain, SedimentProperties(theta_c=0.0495)) * 3.97 / 8
        costs = CostSpec(delta=0.2, c=0.02, d=0.01, lam=1.0 / 7.0)
        result = solve(chain, drains, costs, Grid(301))
        assert result.converged
        assert result.field.values[0, -1] == pytest.approx(0.2732044, abs=1e-7)

    @pytest.mark.parametrize("drain", [1e-50, 1e-100, 1e-150, 1e-200, 1e-300])
    def test_near_zero_drain_fails_without_numpy_warnings(self, drain):
        # the ergodic iterate blows up: the solve ends unconverged on a
        # non-finite residual or refuses a singular system, and the overflow
        # on the way stays inside the solve; a diverged field is not noted
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            try:
                result = solve_stationary(single_regime_chain(), np.array([drain]),
                                          CostSpec(0.0, 0.02, 0.01, 1.0 / 7.0), Grid(21))
            except StructureError:
                pass
            else:
                assert result.converged is False
                assert result.notes == ()
        assert not seen, [str(w.message) for w in seen]

    def test_diverged_solve_says_so(self):
        # the residual goes from 1 to nan in one update: a divergence, not
        # a stall at some round-off floor
        result = solve_stationary(single_regime_chain(), np.array([1e-150]),
                                  CostSpec(0.0, 0.02, 0.01, 1.0 / 7.0), Grid(21))
        assert not result.converged
        with pytest.raises(ConvergenceError) as caught:
            result.check_converged()
        message = str(caught.value)
        assert message.startswith("iteration diverged: max |residual| went from 1.000e+00 to nan")
        assert "stalled" not in message

    @pytest.mark.parametrize("S, lam, delta, worst", [
        (0.00010736936381694206, 10.768915685152527, 0.0, 1.0e5),
        (0.004313813676800634, 14.67429702082305, 0.2, 66.0),
    ], ids=["ergodic", "discounted"])
    def test_residual_above_the_first_can_still_converge(self, S, lam, delta, worst):
        # the first residual is always 1.0, the unit penalty at y = 0 when
        # v = 0, and these (tools/solver_sweep.py single_problem(126, 0.0)
        # and (8, 0.2)) jump far above it after one update: a stop rule that
        # called that divergence would end two converging solves
        costs = CostSpec(delta=delta, c=0.2, d=0.3, lam=lam)
        result = solve(single_regime_chain(), np.array([S]), costs, Grid(51))
        assert result.converged
        assert result.residual_history[0] == 1.0
        assert max(result.residual_history) == pytest.approx(worst, rel=0.01)

    def test_rise_above_the_first_comes_before_the_last_flip(self):
        # single_problem(126, 0.0) at n = 51: the residual rises 1.0e5-fold
        # at iterate 1, while the replenish set still moves, and from its
        # last flip (iterate 4) on every residual is below the first. A stop
        # on a residual above K times the first must wait for the set to
        # settle, or it ends this converging solve
        costs = CostSpec(delta=0.0, c=0.2, d=0.3, lam=10.768915685152527)
        result = solve(single_regime_chain(), np.array([0.00010736936381694206]), costs, Grid(51))
        history, flips = result.residual_history, result.policy_changes
        assert result.converged and result.iterations == 9
        assert history[1] / history[0] == pytest.approx(1.0e5, rel=0.01)
        settled = max(k for k, flipped in enumerate(flips) if flipped)
        assert settled == 4
        assert max(history[settled:]) < history[0]

    @pytest.mark.parametrize("n", [601, 1201])
    def test_default_tolerance_holds_at_paper_size(self, n):
        # at tol 1e-10 the paper chain's ergodic solve stalls here, at
        # 1.5e-10 and 3.4e-10, near its round-off floor: the default must
        # sit above that floor
        chain = realistic_chain(0)
        drains = rates_for_chain(chain, SedimentProperties())
        costs = CostSpec(delta=0.0, c=0.02, d=0.01, lam=1.0 / 7.0)
        assert solve_stationary(chain, drains, costs, Grid(n), SolverConfig()).converged

    @pytest.mark.parametrize("tol", [0.0, -1e-9, np.inf, np.nan])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        with pytest.raises(InputError):
            SolverConfig(tol=tol)

    def test_bounds_preserved_along_the_run(self):
        result = solve_benchmark(51)
        assert result.min_seen >= -1e-12
        assert result.max_seen <= 1.0 / BENCH_COSTS.delta + 1e-8

    def test_monotone_in_storage(self):
        result = solve_benchmark(101)
        assert np.all(np.diff(result.field.values[0]) <= 1e-8)

    def test_rise_along_storage_is_noted(self):
        # the scheme does not guarantee monotonicity: here regime 0 never
        # drains and regime 1 drains into it, and the field rises slightly
        chain = RegimeChain(discharges=np.array([1.0, 10.0]),
                            rates=np.array([[0.0, 0.0], [1.0, 0.0]]))
        costs = CostSpec(delta=0.3, c=0.5, d=0.2, lam=2.0)
        with pytest.warns(UserWarning, match="field increases along storage"):
            result = solve_stationary(chain, np.array([0.0, 0.03]), costs, Grid(21))
        assert result.converged
        assert result.notes == ("field increases along storage by up to 1.369e-06",)

    @pytest.mark.parametrize("delta", [0.2, 0.0], ids=["discounted", "ergodic"])
    def test_field_is_the_last_iterate(self, delta):
        # the returned field is the iterate whose residual ends the history:
        # w itself in ergodic mode, z = v - r / delta when discounted; z is
        # exactly 0 at (regime 0, y = 1), so v there is r / delta bit for bit
        chain, rates = two_regime_setup()
        costs = CostSpec(delta=delta, c=0.02, d=0.01, lam=1.0 / 7.0)
        grid = Grid(41)
        result = solve_stationary(chain, rates, costs, grid, SolverConfig(tol=1e-9))
        assert result.converged
        if delta == 0.0:
            shifted = residual(result.field) + result.cost_rate
            assert np.max(np.abs(shifted)) == result.residual_history[-1]
            return
        v, level = result.field.values, result.cost_rate / delta
        assert v[0, -1] == level
        z = replace(result.field, values=v - level)
        shifted = np.max(np.abs(residual(z) + result.cost_rate))
        # v = fl(z + r / delta) and v - r / delta each round once, so the
        # shifted field is z to within eps max|v| a vertex. WENO3 weighs that
        # by at most 4 S / h (a difference plus half a jump of differences),
        # 48 here; the decay, switching and lam terms add under 3 more
        eps = np.finfo(float).eps
        bound = 8.0 * eps * np.max(np.abs(v)) * np.max(rates) / grid.h
        assert abs(shifted - result.residual_history[-1]) <= bound

    def test_vanishing_discount_at_paper_size(self):
        # the ergodic solve is the discounted one's limit (Arapostathis et
        # al., SIAM J. Control Optim. 31, 1993): delta v_delta(0, 1) -> u and
        # v_delta - v_delta(0, 1) -> w, both at first order in delta
        chain = realistic_chain(0)
        drains = rates_for_chain(chain, SedimentProperties())
        grid, config = Grid(301), SolverConfig(tol=1e-9)

        def run(delta):
            costs = CostSpec(delta=delta, c=0.02, d=0.01, lam=1.0 / 7.0)
            result = solve_stationary(chain, drains, costs, grid, config)
            assert result.converged
            return result

        ergodic = run(0.0)
        w = ergodic.field.values
        rate_gaps, field_gaps = [], []
        for delta in (1e-3, 1e-4, 1e-5):
            discounted = run(delta)
            v = discounted.field.values
            rate_gaps.append(discounted.cost_rate - ergodic.cost_rate)
            field_gaps.append(np.max(np.abs(v - v[0, -1] - w)))
            if delta == 1e-3:
                np.testing.assert_array_equal(extract_policy(discounted.field).boundaries,
                                              extract_policy(ergodic.field).boundaries)
        for gaps in (rate_gaps, field_gaps):
            per_decade = np.divide(gaps[:-1], gaps[1:])
            assert np.all((9.0 <= per_decade) & (per_decade <= 11.0)), gaps

    @pytest.mark.parametrize("delta, tol", [(0.0, 1e-10), (0.2, 1e-9), (1e-6, 1e-9)],
                             ids=["ergodic", "0.2", "1e-6"])
    def test_exact_border_at_paper_size(self, delta, tol):
        # z is exactly 0 at (regime 0, y = 1) in every iterate, so the
        # ergodic w is 0 there and a discounted v is the solved rate / delta
        chain = realistic_chain(0)
        drains = rates_for_chain(chain, SedimentProperties())
        costs = CostSpec(delta=delta, c=0.02, d=0.01, lam=1.0 / 7.0)
        result = solve_stationary(chain, drains, costs, Grid(301), SolverConfig(tol=tol))
        assert result.converged
        assert type(result.cost_rate) is float
        corner = result.field.values[0, -1]
        assert corner == (0.0 if delta == 0.0 else result.cost_rate / delta)

    @pytest.mark.parametrize("delta, n, tol", [(0.0, 601, 1e-10), (0.2, 301, 1e-12)],
                             ids=["ergodic", "discounted"])
    def test_stall_names_its_round_off_floor(self, delta, n, tol):
        # tol below eps max|v - v(0, 1)| max(S) / h: the residual stalls near
        # that floor, and the error says so
        chain = realistic_chain(0)
        drains = rates_for_chain(chain, SedimentProperties())
        costs = CostSpec(delta=delta, c=0.02, d=0.01, lam=1.0 / 7.0)
        result = solve_stationary(chain, drains, costs, Grid(n), SolverConfig(tol=tol))
        assert not result.converged
        with pytest.raises(ConvergenceError, match="round-off floor about") as caught:
            result.check_converged()
        floor = float(str(caught.value).rpartition(" ")[2])
        assert floor / 3.0 <= result.residual_history[-1] <= 3.0 * floor

    def test_free_replenishment(self):
        # with zero costs the intervention value is the value at full
        # storage, which is also the field minimum
        costs = CostSpec(delta=0.2, c=0.0, d=0.0, lam=1.0 / 7.0)
        result = solve(single_regime_chain(), BENCH_RATES, costs, Grid(51))
        phi = result.field.values[0]
        assert phi[-1] == pytest.approx(phi.min(), abs=1e-9)

    def test_two_regime_coupling_bounds(self):
        chain, rates = two_regime_setup()
        costs = CostSpec(delta=0.2, c=0.02, d=0.01, lam=1.0 / 7.0)
        result = solve(chain, rates, costs, Grid(61), SolverConfig(tol=1e-9))
        assert result.converged
        phi = result.field.values
        assert phi.min() >= 0.0
        assert phi.max() <= 1.0 / 0.2 + 1e-8
        # the faster-draining regime is costlier at depleted storage
        assert phi[1, 0] > phi[0, 0]

    @pytest.mark.parametrize("lam", [1e-3, 1.0 / 28.0, 1.0 / 7.0, 1.0, 4.0],
                             ids=["1e-3", "1/28", "1/7", "1", "4"])
    def test_ergodic_mode_cost_rate(self, lam):
        costs, grid = CostSpec(delta=0.0, c=0.2, d=0.3, lam=lam), Grid(801)
        result = solve(single_regime_chain(), BENCH_RATES, costs, grid, SolverConfig(tol=1e-12))
        assert result.converged
        # the relative value is pinned at full storage and solves the
        # undiscounted system shifted by the cost rate
        assert result.field.values[0, -1] == 0.0
        shifted = residual(result.field) + result.cost_rate
        assert np.max(np.abs(shifted)) <= 1e-12
        # the paper's closed forms: the vanishing-discount solution at this
        # lam, and as lam -> 0 the complete-information threshold
        exact = ergodic_threshold(0.05, 0.2, 0.3, lam)
        assert abs(result.cost_rate - exact.u) <= 1e-5
        threshold = extract_policy(result.field).boundaries[0]
        assert abs(threshold - exact.ybar) <= grid.h
        if lam == 1e-3:
            assert abs(threshold - complete_info_threshold(0.05, 0.2, 0.3)) <= grid.h

    def test_ergodic_needs_a_single_closed_class(self):
        costs = CostSpec(delta=0.0, c=0.02, d=0.01, lam=1.0 / 7.0)
        q = np.array([1.0, 10.0, 20.0])
        isolated = RegimeChain(discharges=q[:2], rates=np.zeros((2, 2)))
        with pytest.raises(StructureError, match="closed class"):
            solve_stationary(isolated, np.array([0.02, 0.3]), costs, Grid(21))
        # a transient regime is fine: the rate is that of the closed class
        transient = RegimeChain(discharges=q, rates=np.array(
            [[0.0, 1.0, 0.0], [0.0, 0.0, 0.5], [0.0, 0.8, 0.0]]))
        closed = RegimeChain(discharges=q[1:], rates=np.array([[0.0, 0.5], [0.8, 0.0]]))
        whole = solve_stationary(transient, np.array([0.02, 0.1, 0.3]), costs, Grid(41))
        part = solve_stationary(closed, np.array([0.1, 0.3]), costs, Grid(41))
        assert whole.converged and part.converged
        assert whole.cost_rate == pytest.approx(part.cost_rate, rel=1e-9)
        # so is its stationary law: that of the closed class, none on regime 0
        np.testing.assert_allclose(stationary_distribution(transient),
                                   [0.0, *stationary_distribution(closed)], rtol=0.0, atol=1e-15)

    def test_transient_regimes_at_paper_size(self):
        # the paper chain without its 5 -> 4 rate: regimes 0-4 only lead up
        # into 5-42, so the long run is that of regimes 5-42 alone
        paper = realistic_chain(0)
        rates = paper.rates.copy()
        rates[5, 4] = 0.0
        chain = RegimeChain(discharges=paper.discharges, rates=rates)
        closed = RegimeChain(discharges=paper.discharges[5:], rates=rates[5:, 5:])
        assert chain.long_run_class() == list(range(5, 43))
        drains = rates_for_chain(chain, SedimentProperties())
        costs = CostSpec(delta=0.0, c=0.02, d=0.01, lam=1.0 / 7.0)
        whole = solve_stationary(chain, drains, costs, Grid(101))
        part = solve_stationary(closed, drains[5:], costs, Grid(101))
        assert whole.converged and part.converged
        assert whole.cost_rate == pytest.approx(part.cost_rate, rel=1e-9)
        np.testing.assert_allclose(stationary_distribution(chain),
                                   [0.0] * 5 + [*stationary_distribution(closed)],
                                   rtol=0.0, atol=1e-13)

    def test_ergodic_without_transport_is_singular(self):
        # storage never drains, so every level is its own closed class
        costs = CostSpec(delta=0.0, c=0.02, d=0.01, lam=1.0 / 7.0)
        with pytest.raises(StructureError, match="singular"):
            solve_stationary(single_regime_chain(), np.array([0.0]), costs, Grid(21))

    def test_ergodic_without_drain_in_the_long_run_class_is_singular(self):
        costs = CostSpec(delta=0.0, c=0.02, d=0.01, lam=1.0 / 7.0)
        # the paper chain with no transport: the Howard matrix is singular,
        # though its inverse can come out finite, with entries near 1e16
        with pytest.raises(StructureError, match=r"singular.*\[0, 1, 2, .*, 42\]"):
            solve_stationary(realistic_chain(0), np.zeros(43), costs, Grid(31))
        # regime 0 drains, but only the class {1, 2} runs in the long run
        transient = RegimeChain(discharges=np.array([1.0, 10.0, 20.0]), rates=np.array(
            [[0.0, 1.0, 0.0], [0.0, 0.0, 0.5], [0.0, 0.8, 0.0]]))
        with pytest.raises(StructureError, match=r"singular.*\[1, 2\]"):
            solve_stationary(transient, np.array([0.3, 0.0, 0.0]), costs, Grid(21))

    def test_undrained_long_run_class_always_raises(self):
        # seeded chains of 2-44 regimes: the last `size` form the one closed
        # class and never drain; each earlier regime leads to a later one
        # and may drain. The error must not hang on round-off, which can let
        # a singular system "converge" or stall.
        rng = np.random.default_rng(22)
        costs = CostSpec(delta=0.0, c=0.02, d=0.01, lam=1.0 / 7.0)
        for _ in range(120):
            count = int(rng.integers(2, 45))
            size = int(rng.integers(1, count + 1))
            first = count - size
            shape = (count, count)
            rates = rng.uniform(0.1, 1.5, shape) * (rng.uniform(size=shape) < 0.3)
            rates[first:, :first] = 0.0
            cycle = np.arange(first, count)
            rates[cycle, np.roll(cycle, -1)] += rng.uniform(0.1, 1.5, size)
            rates[np.arange(first), rng.integers(np.arange(first) + 1, count)] += 0.5
            np.fill_diagonal(rates, 0.0)
            chain = RegimeChain(discharges=np.arange(1.0, count + 1.0), rates=rates)
            assert chain.long_run_class() == cycle.tolist()
            drains = np.where(np.arange(count) < first, rng.uniform(0.0, 0.4, count), 0.0)
            with pytest.raises(StructureError, match="singular") as caught:
                solve_stationary(chain, drains, costs, Grid(7))
            assert str(cycle.tolist()) in str(caught.value)

    def test_discounted_without_transport_at_paper_size(self):
        # storage never drains, so only empty storage costs: every regime
        # replenishes it at the first observation, and v(i, 0) solves
        # delta v + lam (v - c - d) = 1 in each regime alike
        costs = CostSpec(delta=0.2, c=0.02, d=0.01, lam=1.0 / 7.0)
        chain, grid, drains = realistic_chain(0), Grid(31), np.zeros(43)
        result = solve(chain, drains, costs, grid)
        assert result.converged
        v = result.field.values
        expected = (1.0 + costs.lam * (costs.c + costs.d)) / (costs.delta + costs.lam)
        np.testing.assert_allclose(v[:, 0], expected, rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(v[:, 1:], 0.0)
        policy = extract_policy(result.field)
        np.testing.assert_array_equal(policy.boundaries, grid.h / 2)
        full = estimate_cost(chain, drains, policy, costs, 1.0, 100.0, 2000, seed=22)
        assert full.mean == 0.0 and full.replenishments_per_path == 0.0
        empty = estimate_cost(chain, drains, policy, costs, 0.0, 100.0, 2000, seed=22)
        assert abs(empty.mean - v[0, 0]) <= 3.0 * empty.stderr
        assert empty.replenishments_per_path == 1.0


def dense_howard_matrix(chain, rates, costs, grid, replenish):
    """The bordered upwind Jacobian as `_Howard` defines it, built entry
    by entry, with (regime i, vertex k) at row k * count + i: J, the rate
    in the last column and the row that pins (regime 0, y = 1) last.

    `_Howard` eliminates the pin row instead, solving for the rate in
    place of the pinned unknown; that system has the same solution."""
    count, n = chain.count, grid.n
    size = count * n
    J = np.zeros((size + 1, size + 1))
    for i in range(count):
        for k in range(n):
            row = k * count + i
            J[row, row] += costs.delta + chain.out_rates[i]
            if k >= 1:  # upwind advection
                J[row, row] += rates[i] / grid.h
                J[row, (k - 1) * count + i] -= rates[i] / grid.h
            for j in range(count):
                if j != i:
                    J[row, k * count + j] -= chain.rates[i, j]
            if replenish[i, k]:
                J[row, row] += costs.lam
                J[row, (n - 1) * count + i] -= costs.lam
            J[row, size] = 1.0  # the rate
    J[size, (n - 1) * count] = 1.0  # pins (regime 0, y = 1)
    return J


def structure_cases():
    two, two_rates = two_regime_setup()
    dense = RegimeChain(  # every regime switches to every other
        discharges=np.array([1.0, 4.0, 9.0, 16.0]),
        rates=np.array([[0.0, 0.3, 0.2, 0.1], [0.4, 0.0, 0.5, 0.2],
                        [0.1, 0.6, 0.0, 0.3], [0.2, 0.1, 0.7, 0.0]]),
    )
    n = 9  # no set holds the last vertex: its intervention gap is -d < 0
    contiguous = np.arange(n) < np.array([[3], [0], [5], [1]])
    scattered = np.zeros((4, n), dtype=bool)
    scattered[[0, 0, 1, 2, 3, 3], [1, 4, 0, 7, 2, 6]] = True
    low = np.arange(5)
    ladder_rates = np.zeros((6, 6))
    ladder_rates[low, low + 1] = [0.7, 0.8, 0.6, 0.9, 0.7]
    ladder_rates[low + 1, low] = [1.1, 1.0, 1.2, 0.9, 1.3]
    ladder = RegimeChain(discharges=np.arange(1.0, 7.0), rates=ladder_rates)
    below_top = np.arange(41)[None, :] < 40  # every vertex but the last replenishes
    return {
        # "one-regime" to "one-regime-wide" take the prefix solve and its
        # closed-form 2 x 2 border
        "one-regime": (single_regime_chain(), BENCH_RATES, np.arange(n)[None, :] < 4),
        # the first iterate of every one-regime solve: in ergodic mode D_0 = 0,
        # so only the rate's column keeps the 2 x 2 border nonsingular
        "one-regime-empty": (single_regime_chain(), BENCH_RATES, np.zeros((1, n), dtype=bool)),
        # summation factors G_k = (s / D)^k down to about 1e-104 (4e-98
        # ergodic): the scaled prefix sum at a wide range
        "one-regime-wide": (single_regime_chain(), np.array([4e-5]), below_top),
        # no transport, so G_1 = 0: the block solve, general Schur border and all
        "one-regime-still": (single_regime_chain(), np.array([0.0]), np.arange(n)[None, :] < n - 1),
        # G_{n-2} about 3e-205 (2e-199 ergodic), below sqrt(tiny) but not 0:
        # the block solve at one regime, with coupling, and its general Schur border
        "one-regime-faint": (single_regime_chain(), np.array([1e-7]), below_top),
        "two-regime": (two, two_rates, np.arange(n) < np.array([[2], [6]])),
        "dense-contiguous": (dense, np.array([0.02, 0.0, 0.3, 0.1]), contiguous),
        "dense-scattered": (dense, np.array([0.05, 0.2, 0.0, 0.4]), scattered),
        # the first iterate of every solve: in ergodic mode D_0 is the
        # negated generator, singular, so x_0 must stay in the border
        "dense-empty": (dense, np.array([0.05, 0.2, 0.0, 0.4]), np.zeros((4, n), dtype=bool)),
        # six regimes: every run's block but the last is reached from the
        # run above it by Sherman-Morrison updates; one pair differs in two
        "ladder-contiguous": (ladder, np.linspace(0.05, 0.3, 6),
                              np.arange(n) < np.array([[2], [3], [3], [5], [6], [7]])),
    }


class TestHowardFactorization:
    @pytest.mark.parametrize("ergodic", [False, True], ids=["discounted", "ergodic"])
    @pytest.mark.parametrize("case", sorted(structure_cases()))
    def test_factor_solves_the_defined_system(self, case, ergodic):
        chain, rates, replenish = structure_cases()[case]
        costs = CostSpec(delta=0.0 if ergodic else 0.2, c=0.02, d=0.01, lam=0.5)
        grid = Grid(replenish.shape[1])
        sweep = _Howard(chain, rates, costs, grid).factor(replenish)
        J = dense_howard_matrix(chain, rates, costs, grid, replenish)
        res = np.random.default_rng(3).normal(size=replenish.shape)
        update, rate_update = sweep.solve(res)
        # the solve fixes the pinned unknown at exactly 0 and solves the
        # rest; in J's storage-major numbering the pin row reads x = 0
        assert update[0, -1] == 0.0
        b = np.append(res.T.ravel(), 0.0)
        x = np.append(update.T.ravel(), rate_update)
        scale = np.linalg.norm(J, np.inf) * np.linalg.norm(x, np.inf) + np.linalg.norm(b, np.inf)
        assert np.linalg.norm(J @ x - b, np.inf) <= 1e-12 * scale
        if not ergodic:
            # J 1 = delta 1, so x + r / delta solves the unbordered system
            plain, lifted = J[:-1, :-1], x[:-1] + rate_update / costs.delta
            scale = (np.linalg.norm(plain, np.inf) * np.linalg.norm(lifted, np.inf)
                     + np.linalg.norm(b, np.inf))
            assert np.linalg.norm(plain @ lifted - b[:-1], np.inf) <= 1e-12 * scale

    @pytest.mark.parametrize("case", ["one-regime", "one-regime-empty", "one-regime-wide",
                                      "one-regime-still", "one-regime-faint"])
    def test_prefix_sum_unless_factors_underflow(self, case):
        chain, rates, replenish = structure_cases()[case]
        for delta in (0.2, 0.0):
            costs = CostSpec(delta=delta, c=0.02, d=0.01, lam=0.5)
            sweep = _Howard(chain, rates, costs, Grid(replenish.shape[1])).factor(replenish)
            prefix = case in ("one-regime", "one-regime-empty", "one-regime-wide")
            assert sweep.prefix == prefix
            # only the prefix solve holds the closed-form border's four scalars;
            # every other factorization, one regime or more, a Schur inverse
            assert np.shape(sweep.schur_inverse) == ((4,) if prefix else (2, 2))

    @pytest.mark.parametrize("count", [1, 2])
    def test_singular_system_raises(self, count):
        # no transport and no discount: each regime's levels never couple
        chain = RegimeChain(discharges=np.arange(1.0, count + 1.0),
                            rates=np.full((count, count), 0.0))
        costs = CostSpec(delta=0.0, c=0.02, d=0.01, lam=0.5)
        factor = _Howard(chain, np.zeros(count), costs, Grid(7)).factor
        with pytest.raises(StructureError, match="singular"):
            factor(np.zeros((count, 7), dtype=bool))

    def test_singular_one_regime_border_raises(self):
        # ergodic, no transport: the interior replenishes, so every D_k = lam,
        # but empty storage does not, so x_0 is free and the border is
        # singular. Every gain is 0, so the block solve's general Schur code
        # meets it
        costs = CostSpec(delta=0.0, c=0.02, d=0.01, lam=0.5)
        replenish = np.ones((1, 7), dtype=bool)
        replenish[0, [0, -1]] = False
        factor = _Howard(single_regime_chain(), np.zeros(1), costs, Grid(7)).factor
        with pytest.raises(StructureError, match="singular"):
            factor(replenish)

    def test_prefix_border_singular_to_working_precision_raises(self):
        # ergodic, empty storage idle: the closed-form border's determinant is
        # s P_1. Only the vertex below the top replenishes, at lam = 1e-50,
        # so G_{n-2} = P_1 is about 1e-150, above sqrt(tiny), and the prefix
        # solve runs; but s P_1, with s = 1e-200, underflows to 0
        costs = CostSpec(delta=0.0, c=0.02, d=0.01, lam=1e-50)
        replenish = np.zeros((1, 7), dtype=bool)
        replenish[0, 5] = True
        howard = _Howard(single_regime_chain(), np.array([1e-200 / 6]), costs, Grid(7))
        with pytest.raises(StructureError, match="singular"):
            howard.factor(replenish)
        assert howard.prefix

    def test_singular_block_reached_by_update_raises(self):
        # uncoupled regimes, no transport, no discount: D_k = lam R_k. The
        # last blocks are lam I; those before differ in regime 0 alone, so
        # they come from lam I by an update, and that update is singular
        count = 5
        chain = RegimeChain(discharges=np.arange(1.0, count + 1.0),
                            rates=np.zeros((count, count)))
        costs = CostSpec(delta=0.0, c=0.02, d=0.01, lam=0.5)
        replenish = np.ones((count, 7), dtype=bool)
        replenish[0, 1:3] = False
        factor = _Howard(chain, np.zeros(count), costs, Grid(7)).factor
        with pytest.raises(StructureError, match="singular"):
            factor(replenish)


class TestExtractPolicy:
    def test_benchmark_table_thresholds(self):
        # midpoint-extracted thresholds on the two anchor resolutions
        assert extract_policy(solve_benchmark(101).field).boundaries[0] == \
            pytest.approx(0.615, abs=1e-12)
        result = solve_benchmark(801)
        assert extract_policy(result.field).boundaries[0] == \
            pytest.approx(0.615625, abs=1e-12)

    def test_prohibitive_costs_never_replenish(self):
        costs = CostSpec(delta=0.2, c=25.0, d=25.0, lam=1.0 / 7.0)  # (c+d)S > 1
        result = solve(single_regime_chain(), BENCH_RATES, costs, Grid(51))
        # -inf, not 0: a boundary of 0 still replenishes empty storage
        np.testing.assert_array_equal(extract_policy(result.field).boundaries, [-np.inf])

    def test_refill_past_the_double_range_never_replenishes(self):
        # c (1 - y) + d overflows to +inf, which is right: that refill is never
        # worth making; the overflow raised a RuntimeWarning, an error here
        costs = CostSpec(delta=0.1, c=1e308, d=1e308, lam=1.0 / 7.0)
        result = solve(single_regime_chain(), np.array([0.05]), costs, Grid(11))
        assert result.converged
        np.testing.assert_array_equal(extract_policy(result.field).boundaries, [-np.inf])

    def test_non_contiguous_replenish_set_rejected(self):
        grid = Grid(5)
        costs = CostSpec(delta=0.2, c=0.1, d=0.1, lam=1.0 / 7.0)
        # intervention value is 0 + c(1-y) + d in [0.1, 0.2]; the dip at the
        # middle vertex breaks the threshold form
        values = np.array([[0.5, 0.05, 0.5, 0.05, 0.0]])
        fld = ValueField(values=values, grid=grid, chain=single_regime_chain(),
                         rates=BENCH_RATES, costs=costs)
        with pytest.raises(StructureError):
            extract_policy(fld)

    @given(st.integers(1, 3).flatmap(lambda count: st.tuples(
        st.lists(st.floats(allow_nan=False, allow_infinity=False),
                 min_size=count * 6, max_size=count * 6),
        st.floats(0.0, 10.0),
        st.one_of(st.just(0.0), st.floats(5e-324, 1e300)))))
    @settings(max_examples=300, deadline=None)
    def test_top_vertex_never_replenishes(self, case):
        # its gap is v - fl(v + d) with d >= 0, never positive, so the last
        # replenishing vertex always has an idle one above it
        values, c, d = case
        count = len(values) // 6
        chain = RegimeChain(discharges=np.arange(1.0, count + 1.0), rates=np.zeros((count, count)))
        fld = ValueField(values=np.reshape(values, (count, 6)), grid=Grid(6), chain=chain,
                         rates=np.zeros(count), costs=CostSpec(delta=0.2, c=c, d=d, lam=1.0))
        # v + d may round to inf, making the gap -inf; the suite's
        # error::RuntimeWarning filter checks that no overflow warning escapes
        assert not fld.replenish()[:, -1].any()

    def test_non_finite_field_rejected(self):
        # a failed solve must not read as a "never replenish" policy
        costs = CostSpec(delta=0.2, c=0.1, d=0.1, lam=1.0 / 7.0)
        for bad in (np.nan, np.inf):
            fld = ValueField(values=np.full((1, 11), bad), grid=Grid(11),
                             chain=single_regime_chain(), rates=BENCH_RATES, costs=costs)
            with pytest.raises(InputError, match="not finite"):
                extract_policy(fld)

    def test_policy_bounds_validation(self):
        for bad in (1.2, -0.1, np.nan):  # NaN compares false both ways
            with pytest.raises(InputError):
                ThresholdPolicy(boundaries=np.array([0.5, bad]))
        with pytest.raises(InputError, match="non-empty"):
            ThresholdPolicy(boundaries=[])

    def test_never_boundary_round_trips(self, tmp_path):
        chain, _ = two_regime_setup()
        policy = ThresholdPolicy(boundaries=np.array([-np.inf, 0.5]))
        path = tmp_path / "free_boundary.csv"
        write_free_boundary_csv(chain, policy, path)
        assert path.read_text().splitlines()[1].endswith(",-inf")
        np.testing.assert_array_equal(read_free_boundary_csv(path).boundaries,
                                      policy.boundaries)
        with pytest.raises(InputError):
            ThresholdPolicy(boundaries=np.array([np.inf, 0.5]))


class TestConvergenceStudy:
    def test_duplicate_resolution_rejected(self):
        with pytest.raises(InputError):
            convergence_study(BENCHMARK, [51, 51])

    @pytest.mark.parametrize("resolutions", [[51.7, 101.2], [51, np.nan]])
    def test_fractional_resolution_rejected(self, resolutions):
        # 51.7 used to run as n = 51 without a word
        with pytest.raises(InputError, match="resolution must be an integer"):
            convergence_study(BENCHMARK, resolutions)

    def test_no_resolution_rejected(self):
        with pytest.raises(InputError, match="at least one resolution"):
            convergence_study(BENCHMARK, [])

    def test_coarse_sweep_structure(self):
        rows = convergence_study(BENCHMARK, [21, 41, 81])
        assert rows[0].linf_rate is None
        assert rows[1].linf_error < rows[0].linf_error
        assert rows[2].linf_error < rows[1].linf_error
        assert rows[2].l1_rate > 1.0
        for row in rows:
            assert row.ybar_error <= 1.5 / (row.n - 1)


class TestAmbiguity:
    def test_degenerate_interval_is_plain_solve(self):
        config = SolverConfig()
        plain = solve(single_regime_chain(), BENCH_RATES, BENCH_COSTS, Grid(41), config)
        amb = solve_with_ambiguity(
            single_regime_chain(), BENCH_RATES, BENCH_COSTS,
            (BENCH_COSTS.lam, BENCH_COSTS.lam), Grid(41), config
        )
        np.testing.assert_array_equal(plain.field.values, amb.field.values)
        assert amb.notes == plain.notes  # nothing was reduced, so nothing is noted

    def test_reduction_to_lower_intensity(self):
        chain, rates = two_regime_setup()
        costs = CostSpec(delta=0.2, c=0.02, d=0.01, lam=1.0 / 7.0)
        cfg = SolverConfig(tol=1e-9)
        plain = solve_stationary(chain, rates, costs, Grid(41), cfg)
        for upper in (0.5, 1.0, 7.0):
            amb = solve_with_ambiguity(chain, rates, costs, (1.0 / 7.0, upper),
                                       Grid(41), cfg)
            assert np.max(np.abs(amb.field.values - plain.field.values)) < 1e-12
            assert any("reduced" in note for note in amb.notes)

    def test_value_non_increasing_in_lam_at_paper_size(self):
        # looking more often never costs more: the premise of taking the
        # lower intensity as the worst case. 2 tol / delta bounds the solve
        # error of each field
        paper = realistic_chain(0)
        drains = rates_for_chain(paper, SedimentProperties())
        delta, tol = 0.2, 1e-9
        values = []
        for lam in (1 / 56, 1 / 28, 1 / 14, 1 / 7, 1 / 2, 1.0, 4.0):
            costs = CostSpec(delta=delta, c=0.02, d=0.01, lam=lam)
            result = solve_stationary(paper, drains, costs, Grid(301), SolverConfig(tol=tol))
            assert result.converged
            values.append(result.field.values)
        assert np.max(np.diff(values, axis=0)) <= 2 * tol / delta

    def test_empty_interval_rejected(self):
        with pytest.raises(InputError):
            solve_with_ambiguity(single_regime_chain(), BENCH_RATES, BENCH_COSTS,
                                 (1.0, 0.5), Grid(41))
        with pytest.raises(InputError):
            solve_with_ambiguity(single_regime_chain(), BENCH_RATES, BENCH_COSTS,
                                 (0.0, 0.5), Grid(41))


def read_phi(path, shape):
    """The phi column of a value_field.csv, as an array of the field's shape."""
    with open(path, newline="") as fh:
        return np.reshape([float(row["phi"]) for row in csv.DictReader(fh)], shape)


class TestCsvInterfaces:
    def test_free_boundary_round_trip(self, tmp_path):
        chain, rates = two_regime_setup()
        policy = ThresholdPolicy(boundaries=np.array([0.25, 0.75]))
        path = tmp_path / "free_boundary.csv"
        write_free_boundary_csv(chain, policy, path)
        back = read_free_boundary_csv(path)
        np.testing.assert_array_equal(back.boundaries, policy.boundaries)
        header = path.read_text().splitlines()[0]
        assert header == "regime,q,Ybar"

    def test_free_boundary_of_the_wrong_size_rejected(self, tmp_path):
        chain, _ = two_regime_setup()
        path = tmp_path / "free_boundary.csv"
        with pytest.raises(StructureError, match="policy size"):
            write_free_boundary_csv(chain, ThresholdPolicy(boundaries=[0.5]), path)
        assert not path.exists()

    def test_value_field_columns(self, tmp_path):
        result = solve_benchmark(21)
        path = tmp_path / "value_field.csv"
        write_value_field_csv(result.field, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "regime,y,phi,action"
        assert len(lines) == 1 + 21
        actions = {line.split(",")[3] for line in lines[1:]}
        assert actions <= {"replenish", "none"}

    def test_value_field_bytes_match_csv_writer(self, tmp_path):
        # regime 0 replenishes low storage, regime 1 never (threshold -inf),
        # regime 2 holds tiny, subnormal and signed-zero values
        chain = RegimeChain(discharges=np.array([1.0, 2.0, 3.0]), rates=np.array(
            [[0.0, 0.5, 0.0], [0.3, 0.0, 0.2], [0.0, 0.4, 0.0]]))
        grid = Grid(7)
        values = np.array([
            [3.0, 2.5, 2.0, 1.2, 1.1, 1.05, 1.0],
            [1.0 / 15.0, 0.065, 0.06, 0.057, 0.055, 0.052, 0.05],
            [1e-300, 5e-324, -0.0, 2.5e-17, -1e-200, 1.23456789012345678e-2, 0.0],
        ])
        fld = ValueField(values=values, grid=grid, chain=chain, rates=np.array([0.1, 0.2, 0.3]),
                         costs=CostSpec(delta=0.2, c=0.02, d=0.01, lam=0.5))
        replenish = fld.replenish()
        assert replenish.any() and not replenish.all()
        np.testing.assert_array_equal(extract_policy(fld).boundaries[1], -np.inf)
        path = tmp_path / "value_field.csv"
        write_value_field_csv(fld, path)
        reference = tmp_path / "reference.csv"
        with open(reference, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["regime", "y", "phi", "action"])
            for i in range(chain.count):
                for k in range(grid.n):
                    out.writerow([i, f"{grid.vertices[k]:.12g}", repr(float(values[i, k])),
                                  "replenish" if replenish[i, k] else "none"])
        assert path.read_bytes() == reference.read_bytes()
        back = read_phi(path, values.shape)
        np.testing.assert_array_equal(back, values)
        np.testing.assert_array_equal(np.signbit(back), np.signbit(values))

    def test_value_field_reads_back_as_the_solved_field(self, tmp_path):
        fld = solve_benchmark(21).field
        path = tmp_path / "value_field.csv"
        write_value_field_csv(fld, path)
        np.testing.assert_array_equal(read_phi(path, fld.values.shape), fld.values)

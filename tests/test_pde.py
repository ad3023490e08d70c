import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sedopt.analytic import BENCHMARK, evaluate_candidate, solve_smooth_pasting
from sedopt.errors import ConvergenceError, InputError, StructureError
from sedopt.pde import (
    CostSpec,
    Grid,
    SolverConfig,
    ThresholdPolicy,
    ValueField,
    _residual_arrays,
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
from sedopt.regime import RegimeChain

BENCH_COSTS = CostSpec(delta=BENCHMARK.delta, c=BENCHMARK.c, d=BENCHMARK.d, lam=BENCHMARK.lam)
BENCH_RATES = np.array([BENCHMARK.S])


def solve(chain, rates, costs, grid, config=SolverConfig()):
    """solve_stationary, checking that a converged discounted solve meets tol."""
    result = solve_stationary(chain, rates, costs, grid, config)
    if result.converged and costs.delta > 0:
        assert np.max(np.abs(residual(result.field, config.weno_eps))) <= config.tol
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


def explicit_march(chain, rates, costs, grid, tol, weno_eps=1e-6):
    """Reference solve: forward Euler in pseudo-time, P <- P - dt residual(P),
    at a CFL-stable step until the step change drops below tol.

    Returns the field and the step. The march stops about tol / (dt delta)
    short of the fixed point: the constant mode, which decays at rate
    delta, is the slowest.
    """
    outflow = chain.rates.sum(axis=1)
    dt = 0.4 * grid.h / (rates.max() + grid.h * (costs.delta + costs.lam + outflow.max()))
    v = np.zeros((chain.count, grid.n))
    for _ in range(10**6):
        step = dt * _residual_arrays(v, chain, rates, costs, grid, weno_eps)
        v = v - step
        if np.max(np.abs(step)) < tol:
            return v, dt
    raise AssertionError("the reference march did not converge")


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

    def test_bounds_preserved_along_the_run(self):
        result = solve_benchmark(51)
        assert result.min_seen >= -1e-12
        assert result.max_seen <= 1.0 / BENCH_COSTS.delta + 1e-8

    def test_monotone_in_storage(self):
        result = solve_benchmark(101)
        assert np.all(np.diff(result.field.values[0]) <= 1e-8)

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

    def test_ergodic_mode_cost_rate(self):
        costs = CostSpec(delta=0.0, c=0.2, d=0.3, lam=1.0 / 7.0)
        result = solve(single_regime_chain(), BENCH_RATES, costs, Grid(101),
                       SolverConfig(tol=1e-12))
        from sedopt.analytic import ergodic_threshold

        u = ergodic_threshold(0.05, 0.2, 0.3, 1.0 / 7.0).u
        assert result.cost_rate == pytest.approx(u, rel=0.05)
        assert result.converged
        # the relative value is pinned at full storage and solves the
        # undiscounted system shifted by the cost rate
        assert result.field.values[0, -1] == 0.0
        shifted = residual(result.field) + result.cost_rate
        assert np.max(np.abs(shifted)) <= 1e-12

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

    def test_ergodic_without_transport_is_singular(self):
        # storage never drains, so every level is its own closed class
        costs = CostSpec(delta=0.0, c=0.02, d=0.01, lam=1.0 / 7.0)
        with pytest.raises(StructureError, match="singular"):
            solve_stationary(single_regime_chain(), np.array([0.0]), costs, Grid(21))


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
        np.testing.assert_array_equal(extract_policy(result.field).boundaries, [0.0])

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

    def test_policy_bounds_validation(self):
        with pytest.raises(InputError):
            ThresholdPolicy(boundaries=np.array([0.5, 1.2]))


class TestConvergenceStudy:
    def test_duplicate_resolution_rejected(self):
        with pytest.raises(InputError):
            convergence_study(BENCHMARK, [51, 51])

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
        plain = solve_benchmark(41)
        amb = solve_with_ambiguity(
            single_regime_chain(), BENCH_RATES, BENCH_COSTS,
            (BENCH_COSTS.lam, BENCH_COSTS.lam), Grid(41), SolverConfig()
        )
        np.testing.assert_array_equal(plain.field.values, amb.field.values)

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

    def test_empty_interval_rejected(self):
        with pytest.raises(InputError):
            solve_with_ambiguity(single_regime_chain(), BENCH_RATES, BENCH_COSTS,
                                 (1.0, 0.5), Grid(41))
        with pytest.raises(InputError):
            solve_with_ambiguity(single_regime_chain(), BENCH_RATES, BENCH_COSTS,
                                 (0.0, 0.5), Grid(41))


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

    def test_value_field_columns(self, tmp_path):
        result = solve_benchmark(21)
        path = tmp_path / "value_field.csv"
        write_value_field_csv(result.field, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "regime,y,phi,action"
        assert len(lines) == 1 + 21
        actions = {line.split(",")[3] for line in lines[1:]}
        assert actions <= {"replenish", "none"}

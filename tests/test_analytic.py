import math

import numpy as np
import pytest

from sedopt.analytic import (
    BENCHMARK,
    CostSpec,
    ScalarProblem,
    _pasting_residuals,
    candidate_coefficients,
    complete_info_threshold,
    ergodic_threshold,
    evaluate_candidate,
    solve_smooth_pasting,
    threshold_sensitivity_sign,
)
from sedopt.errors import DomainError, InputError, NoInteriorThresholdError

# Frozen roots, each confirmed by two independent methods before this module
# was written (closed-form bisection and a first-order monotone finite
# difference solve of the stationary equation).
BENCH_YBAR = 0.6151947162815445
BENCH_PSI1 = 0.2721845625417769
BENCH_A = -0.1764705882352941
BENCH_B = 0.4905583931906646
BENCH_F = 4.081314878892734

# A second parameter set used for cross-checks; its unique pasting root
# was frozen from the same two independent methods.
ALT_PROBLEM = ScalarProblem(S=0.05, delta=0.2, c=0.2, d=0.3, lam=1.0 / 7.0)
ALT_YBAR = 0.35267509700516375

ERGODIC_ARGS = dict(S=0.05, c=0.2, d=0.3, lam=1.0 / 7.0)
ERGODIC_YBAR = 0.8352388049827035  # frozen bisection oracle on F(y) = 0.015/0.99
ERGODIC_U = 0.10104085460429754


class TestCostSpec:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["delta", "c", "d", "lam"])
    def test_non_finite_costs_rejected(self, name, bad):
        fields = dict(delta=0.1, c=0.3, d=0.2, lam=1.0 / 7.0)
        with pytest.raises(InputError, match="finite"):
            CostSpec(**{**fields, name: bad})
        with pytest.raises(InputError, match="finite"):
            ScalarProblem(S=0.05, **{**fields, name: bad})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -0.05])
    def test_bad_transport_rate_rejected(self, bad):
        with pytest.raises(InputError, match="transport rate"):
            ScalarProblem(S=bad, delta=0.1, c=0.3, d=0.2, lam=1.0 / 7.0)

    def test_scalar_problem_is_its_costs(self):
        assert isinstance(BENCHMARK, CostSpec)
        y = np.linspace(0.0, 1.0, 5)
        np.testing.assert_array_equal(BENCHMARK.intervention_cost(y), 0.3 * (1.0 - y) + 0.2)


class TestCoefficients:
    def test_zero_proportional_cost(self):
        p = ScalarProblem(S=0.05, delta=0.2, c=0.0, d=0.3, lam=1.0 / 7.0)
        a, _, f = candidate_coefficients(p, psi1=0.5)
        assert a == 0.0
        assert f == pytest.approx(1.0 / (p.delta + p.lam), rel=1e-15)

    def test_one_line_arithmetic_oracle(self):
        a, _, _ = candidate_coefficients(ALT_PROBLEM, psi1=0.0)
        assert a == pytest.approx(-(1.0 / 7.0 * 0.2) / (0.2 + 1.0 / 7.0), rel=1e-15)

    @pytest.mark.parametrize("psi1", [0.0, 0.3, 2.0])
    @pytest.mark.parametrize(
        "p",
        [BENCHMARK, ALT_PROBLEM, ScalarProblem(S=0.7, delta=0.05, c=0.1, d=0.05, lam=2.0)],
    )
    def test_algebraic_identity(self, p, psi1):
        _, _, f = candidate_coefficients(p, psi1)
        assert f * (p.delta + p.lam) ** 2 + p.lam * p.c * p.S == pytest.approx(
            p.delta + p.lam, rel=1e-14
        )

    def test_b_depends_on_psi1_a_f_do_not(self):
        a0, b0, f0 = candidate_coefficients(BENCHMARK, 0.0)
        a1, b1, f1 = candidate_coefficients(BENCHMARK, 1.0)
        assert (a0, f0) == (a1, f1)
        assert b0 != b1

    def test_zero_discount_rejected(self):
        p = ScalarProblem(S=0.05, delta=0.0, c=0.2, d=0.3, lam=1.0 / 7.0)
        with pytest.raises(DomainError):
            candidate_coefficients(p, 0.0)


class TestSmoothPasting:
    def test_benchmark_root(self):
        sol = solve_smooth_pasting(BENCHMARK)
        assert sol.ybar == pytest.approx(BENCH_YBAR, abs=1e-12)
        assert sol.psi1 == pytest.approx(BENCH_PSI1, abs=1e-12)
        assert sol.a == pytest.approx(BENCH_A, rel=1e-14)
        assert sol.b == pytest.approx(BENCH_B, rel=1e-12)
        assert sol.f == pytest.approx(BENCH_F, rel=1e-14)

    # (ybar, psi1) as found by a scan of 1025 scalar residual calls; the one
    # numpy scan must bracket the same roots, so bisection ends bit-identical
    @pytest.mark.parametrize("problem, ybar, psi1", [
        (BENCHMARK, 0.6151947162815445, 0.2721845625417769),
        (ALT_PROBLEM, 0.35267509700516375, 0.03485792880404111),
        (ScalarProblem(S=0.7, delta=0.05, c=0.1, d=0.05, lam=2.0),
         0.6994059940273014, 3.6888359614720962),
        (ScalarProblem(S=0.05, delta=0.2, c=0.0, d=0.3, lam=1.0 / 7.0),
         0.39661581617268815, 0.02948864120233198),
        (ScalarProblem(S=0.05, delta=1e-2, c=0.2, d=0.3, lam=1.0 / 7.0),
         0.812916848402212, 8.850168903641832),
        (ScalarProblem(S=0.05, delta=1e-3, c=0.2, d=0.3, lam=1.0 / 7.0),
         0.8330763943344861, 99.69486689760957),
        (ScalarProblem(S=0.05, delta=1e-4, c=0.2, d=0.3, lam=1.0 / 7.0),
         0.8350232824799657, 1009.052716805312),
    ], ids=["benchmark", "alt", "fast", "no-proportional-cost", "delta1e-2", "delta1e-3",
            "delta1e-4"])
    def test_root_bit_identical_to_scalar_scan(self, problem, ybar, psi1):
        sol = solve_smooth_pasting(problem)
        assert (sol.ybar, sol.psi1) == (ybar, psi1)
        grid = np.linspace(1e-12, 1.0 - 1e-12, 1025)
        scan = _pasting_residuals(problem, grid, exp=np.exp)[0]
        scalar = [_pasting_residuals(problem, y)[0] for y in grid]
        np.testing.assert_array_equal(np.sign(scan), np.sign(scalar))

    def test_zero_discount_is_a_domain_error(self):
        with pytest.raises(DomainError, match="delta > 0"):
            solve_smooth_pasting(ScalarProblem(S=0.05, delta=0.0, c=0.2, d=0.3, lam=1.0 / 7.0))

    def test_overflowing_residual_is_a_domain_error(self):
        # exp(delta / S) overflows a double once delta / S exceeds about 709
        with pytest.raises(DomainError, match="overflows"):
            solve_smooth_pasting(ScalarProblem(S=1e-4, delta=0.1, c=0.3, d=0.2, lam=1.0 / 7.0))

    def test_alternate_problem_root(self):
        sol = solve_smooth_pasting(ALT_PROBLEM)
        assert sol.ybar == pytest.approx(ALT_YBAR, abs=1e-12)

    def test_c1_pasting(self):
        sol = solve_smooth_pasting(BENCHMARK)
        eps = 1e-9
        below = evaluate_candidate(sol, sol.ybar - eps)
        above = evaluate_candidate(sol, sol.ybar + eps)
        assert abs(below - above) < 1e-8
        d_below = (evaluate_candidate(sol, sol.ybar - eps) -
                   evaluate_candidate(sol, sol.ybar - 2 * eps)) / eps
        d_above = (evaluate_candidate(sol, sol.ybar + 2 * eps) -
                   evaluate_candidate(sol, sol.ybar + eps)) / eps
        assert abs(d_below - d_above) < 1e-4  # one-sided FD noise dominates

    @pytest.mark.parametrize("problem", [BENCHMARK, ALT_PROBLEM])
    def test_do_nothing_ode(self, problem):
        # delta Psi + S Psi' = 0 above the threshold, by construction
        sol = solve_smooth_pasting(problem)
        y = np.linspace(sol.ybar + 1e-6, 1.0, 200)
        psi = evaluate_candidate(sol, y)
        dpsi = -problem.delta / problem.S * psi  # analytic derivative of the branch
        residual = problem.delta * psi + problem.S * dpsi
        assert np.max(np.abs(residual)) < 1e-10

    @pytest.mark.parametrize("problem", [BENCHMARK, ALT_PROBLEM])
    def test_replenish_branch_ode(self, problem):
        # independent symbolic substitution of the replenish-branch equation:
        # delta Psi + S Psi' + lam (Psi - psi1 - c (1-y) - d) = 0 on (0, ybar]
        sol = solve_smooth_pasting(problem)
        S, delta, c, d, lam = (problem.S, problem.delta, problem.c,
                               problem.d, problem.lam)
        y = np.linspace(1e-6, sol.ybar, 200)
        psi = sol.f * np.exp(-(delta + lam) / S * y) + sol.a * y + sol.b
        dpsi = -(delta + lam) / S * sol.f * np.exp(-(delta + lam) / S * y) + sol.a
        residual = delta * psi + S * dpsi + lam * (psi - sol.psi1 - c * (1 - y) - d)
        assert np.max(np.abs(residual)) < 1e-10

    def test_boundary_value_identity(self):
        # value at y=0 equals (1 + lam (psi1 + c + d)) / (delta + lam)
        sol = solve_smooth_pasting(BENCHMARK)
        p = BENCHMARK
        expected = (1.0 + p.lam * (sol.psi1 + p.c + p.d)) / (p.delta + p.lam)
        assert evaluate_candidate(sol, 0.0) == pytest.approx(expected, rel=1e-12)
        assert sol.f + sol.b == pytest.approx(expected, rel=1e-12)

    def test_value_at_one_is_psi1(self):
        sol = solve_smooth_pasting(BENCHMARK)
        assert evaluate_candidate(sol, 1.0) == pytest.approx(sol.psi1, rel=1e-15)

    def test_bounds_and_monotonicity(self):
        for problem in (BENCHMARK, ALT_PROBLEM):
            sol = solve_smooth_pasting(problem)
            y = np.linspace(0.0, 1.0, 1000)
            psi = evaluate_candidate(sol, y)
            assert psi.min() >= 0.0
            assert psi.max() <= 1.0 / problem.delta
            assert np.all(np.diff(psi) <= 1e-12)

    def test_out_of_domain_evaluation(self):
        sol = solve_smooth_pasting(BENCHMARK)
        with pytest.raises(InputError):
            evaluate_candidate(sol, 1.5)
        with pytest.raises(InputError):
            evaluate_candidate(sol, np.array([0.1, -0.2]))

    def test_no_interior_threshold_for_enormous_costs(self):
        bad = ScalarProblem(S=0.05, delta=0.2, c=50.0, d=50.0, lam=1.0 / 7.0)
        with pytest.raises(NoInteriorThresholdError):
            solve_smooth_pasting(bad)

    def test_ergodic_limit_of_discounted_values(self):
        # delta * Psi approaches the effective cost rate as delta -> 0
        u = ergodic_threshold(**ERGODIC_ARGS).u
        y = np.linspace(0.0, 1.0, 101)
        gaps = []
        for delta in (1e-2, 1e-3, 1e-4):
            p = ScalarProblem(S=0.05, delta=delta, c=0.2, d=0.3, lam=1.0 / 7.0)
            psi = evaluate_candidate(solve_smooth_pasting(p), y)
            gaps.append(np.max(np.abs(delta * psi - u)))
        assert gaps[0] > gaps[1] > gaps[2]


class TestErgodic:
    def test_frozen_root_and_rate(self):
        sol = ergodic_threshold(**ERGODIC_ARGS)
        assert sol.ybar == pytest.approx(ERGODIC_YBAR, abs=1e-12)
        assert sol.u == pytest.approx(ERGODIC_U, rel=1e-12)
        assert not sol.degenerate

    def test_root_equation_residual(self):
        sol = ergodic_threshold(**ERGODIC_ARGS)
        S, c, d, lam = (ERGODIC_ARGS[k] for k in ("S", "c", "d", "lam"))
        lhs = (1.0 - sol.ybar) * math.exp(-lam / S * sol.ybar)
        assert abs(lhs - d * S / (1.0 - c * S)) < 1e-12

    def test_rate_exceeds_proportional_floor(self):
        for S in (0.02, 0.05, 0.5, 1.5):
            sol = ergodic_threshold(S, 0.2, 0.3, 1.0 / 7.0)
            assert sol.u > 0.2 * S

    def test_degenerate_without_fixed_cost(self):
        sol = ergodic_threshold(0.05, 0.2, 0.0, 1.0 / 7.0)
        assert sol.degenerate
        assert sol.ybar == 1.0
        assert sol.u > 0.2 * 0.05

    def test_gate_on_total_cost(self):
        with pytest.raises(NoInteriorThresholdError):
            ergodic_threshold(2.0, 0.2, 0.3, 1.0 / 7.0)  # (c+d)S = 1
        ergodic_threshold(1.999, 0.2, 0.3, 1.0 / 7.0)  # just inside

    def test_decreasing_in_costs_and_intensity(self):
        base = ergodic_threshold(**ERGODIC_ARGS).ybar
        for name in ("c", "d", "lam"):
            prev = base
            for bump in np.linspace(1.1, 3.0, 10):
                args = dict(ERGODIC_ARGS)
                args[name] = ERGODIC_ARGS[name] * bump
                cur = ergodic_threshold(**args).ybar
                assert cur < prev
                prev = cur


class TestCompleteInformation:
    def test_free_replenishment(self):
        assert complete_info_threshold(0.05, 0.0, 0.0) == 1.0

    def test_direct_arithmetic(self):
        assert complete_info_threshold(0.05, 0.2, 0.3) == pytest.approx(
            0.975 / 0.99, rel=1e-15
        )

    def test_nonpositive_flagged(self):
        with pytest.warns(UserWarning, match="no replenishment"):
            value = complete_info_threshold(1.9, 0.2, 0.4)  # (c+d)S > 1
        assert value <= 0.0

    def test_gate(self):
        with pytest.raises(DomainError):
            complete_info_threshold(5.0, 0.2, 0.3)  # cS = 1

    def test_vanishing_intensity_convergence(self):
        # the ergodic root approaches the closed form as the intensity
        # vanishes (the exponential factor drops out of the root equation)
        S, c, d = 0.05, 0.2, 0.3
        target = complete_info_threshold(S, c, d)
        lam = 1e-6 * S / target
        assert abs(ergodic_threshold(S, c, d, lam).ybar - target) < 1e-6


class TestSensitivity:
    def test_sign_matches_centered_differences(self):
        c, d, lam = 0.2, 0.3, 1.0 / 7.0
        step = 1e-6
        flips = 0
        prev_sign = None
        for S in np.linspace(0.05, 1.9, 20):
            sign = threshold_sensitivity_sign(S, c, d, lam)
            fd = (ergodic_threshold(S + step, c, d, lam).ybar
                  - ergodic_threshold(S - step, c, d, lam).ybar) / (2 * step)
            assert sign == np.sign(fd)
            if prev_sign is not None and sign != prev_sign:
                flips += 1
            prev_sign = sign
        assert flips == 1  # unimodal: increasing then decreasing

    def test_critical_rate_gives_zero(self):
        # bracket the sign flip, then bisect to the critical transport rate
        c, d, lam = 0.2, 0.3, 1.0 / 7.0
        lo, hi = 0.05, 1.9
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if threshold_sensitivity_sign(mid, c, d, lam) > 0:
                lo = mid
            else:
                hi = mid
        crit = 0.5 * (lo + hi)
        step = 1e-5
        fd = (ergodic_threshold(crit + step, c, d, lam).ybar
              - ergodic_threshold(crit - step, c, d, lam).ybar) / (2 * step)
        assert abs(fd) < 1e-3

    def test_small_rate_positive(self):
        assert threshold_sensitivity_sign(0.05, 0.2, 0.3, 1.0 / 7.0) == 1.0

"""Closed-form solution of the single-regime replenishment problem.

With a constant transport rate S the discounted problem admits a C^1 value
function that is exponential-plus-linear below the replenishment threshold
and a pure exponential above it. The two unknowns (value at full storage,
threshold) solve a smooth-pasting system; the vanishing-discount limit
collapses it to one transcendental root equation, and the
infinite-observation-intensity limit of that is available in closed form.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError, NoInteriorThresholdError

__all__ = [
    "CostSpec",
    "ScalarProblem",
    "SmoothSolution",
    "ErgodicSolution",
    "candidate_coefficients",
    "evaluate_candidate",
    "solve_smooth_pasting",
    "ergodic_threshold",
    "complete_info_threshold",
    "threshold_sensitivity_sign",
    "BENCHMARK",
]


@dataclass(frozen=True)
class CostSpec:
    """Discount rate, proportional/fixed replenishment costs, observation
    intensity (all rates in 1/day).

    delta: discount rate (>= 0, zero only for the ergodic routines); c:
    proportional replenishment cost; d: fixed replenishment cost; lam:
    observation intensity (> 0). All must be finite.
    """

    delta: float
    c: float
    d: float
    lam: float

    def __post_init__(self):
        for name in ("delta", "c", "d", "lam"):
            if not math.isfinite(getattr(self, name)):
                raise InputError(f"{name} must be finite")
        if self.delta < 0:
            raise InputError("discount rate must be >= 0")
        if self.c < 0 or self.d < 0:
            raise InputError("costs must be >= 0")
        if self.lam <= 0:
            raise InputError("observation intensity must be positive")

    def intervention_cost(self, y):
        """Cost c (1-y) + d of refilling to capacity from storage y."""
        return self.c * (1.0 - y) + self.d


@dataclass(frozen=True)
class ScalarProblem(CostSpec):
    """Single-regime problem: the costs plus a constant transport rate S
    (1/day, finite, > 0)."""

    S: float

    def __post_init__(self):
        super().__post_init__()
        if not (math.isfinite(self.S) and self.S > 0):
            raise InputError("transport rate S must be finite and positive")


# Canonical single-regime test case; its threshold is 0.6151947162815...
# and the per-resolution errors of the finite difference solver on it are
# regression anchors (see tests).
BENCHMARK = ScalarProblem(S=0.05, delta=0.1, c=0.3, d=0.2, lam=1.0 / 7.0)

_SCAN_POINTS = 1024  # pasting-residual scan intervals on (0, 1)
_CONSISTENCY_SAMPLES = 512  # storage levels where a root's threshold rule is checked


@dataclass(frozen=True)
class SmoothSolution:
    """C^1 candidate value function and its pasting point.

    Below ybar: f * exp(-(delta+lam) y / S) + a y + b. Above: psi1 *
    exp((delta/S)(1-y)). All coefficients are recomputable from (problem,
    psi1); they are stored for direct evaluation.
    """

    problem: ScalarProblem
    ybar: float
    psi1: float
    a: float
    b: float
    f: float


@dataclass(frozen=True)
class ErgodicSolution:
    """Vanishing-discount threshold and effective cost rate u (per day).

    `degenerate` marks the d = 0 boundary case where the root equation is
    satisfied only at ybar = 1.
    """

    ybar: float
    u: float
    degenerate: bool = False


def candidate_coefficients(problem: ScalarProblem, psi1: float) -> tuple[float, float, float]:
    """Coefficients (a, b, f) of the replenish-branch solution.

    a and f depend only on the problem; b additionally depends on the value
    psi1 at full storage.
    """
    S, delta, c, d, lam = problem.S, problem.delta, problem.c, problem.d, problem.lam
    if delta <= 0:
        raise DomainError("coefficients need delta > 0; use the ergodic routines")
    dl = delta + lam
    a = -lam * c / dl
    b = (-a * S + lam * (psi1 + c + d)) / dl
    try:
        f = (dl - lam * c * S) / dl ** 2
    except OverflowError:
        raise DomainError(f"(delta + lambda)^2 overflows: delta + lambda = {dl:.6g} "
                          "is too large for double precision") from None
    return a, b, f


def evaluate_candidate(sol: SmoothSolution, y):
    """Evaluate the candidate value function at y in [0, 1] (scalar or array)."""
    arr = np.asarray(y, dtype=float)
    if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
        raise InputError("storage must lie in [0, 1]")
    p = sol.problem
    low = sol.f * np.exp(-(p.delta + p.lam) / p.S * arr) + sol.a * arr + sol.b
    high = sol.psi1 * np.exp(p.delta / p.S * (1.0 - arr))
    out = np.where(arr <= sol.ybar, low, high)
    return out if out.ndim else float(out)


def _pasting_residuals(problem: ScalarProblem, ybar, exp=math.exp):
    """(value residual, derivative residual, psi1) at a trial threshold.

    With exp=np.exp, ybar may be an array and so are the three results.
    """
    S, delta, lam = problem.S, problem.delta, problem.lam
    a, _, f = candidate_coefficients(problem, 0.0)
    e_low = exp(-(delta + lam) / S * ybar)
    e_high = exp(delta / S * (1.0 - ybar))
    psi1 = ((delta + lam) * f * e_low - a * S) / (delta * e_high)  # derivative pasting
    b = candidate_coefficients(problem, psi1)[1]
    r_value = f * e_low + a * ybar + b - psi1 * e_high
    r_deriv = -(delta + lam) / S * f * e_low + a + delta / S * psi1 * e_high
    return r_value, r_deriv, psi1


def _is_consistent(sol: SmoothSolution) -> bool:
    # replenishing must be (weakly) the better action exactly on [0, ybar]
    p = sol.problem
    y = np.linspace(0.0, 1.0, _CONSISTENCY_SAMPLES)
    value = evaluate_candidate(sol, y)
    gain = value - (sol.psi1 + p.intervention_cost(y))  # > 0 where replenishing strictly wins
    tol = 1e-9 * max(1.0, float(np.max(np.abs(value))))
    below = y <= sol.ybar
    return bool(np.all(gain[below] >= -tol) and np.all(gain[~below] <= tol))


def _bisect(lo: float, hi: float, below_root) -> float:
    """The root in [lo, hi], bisected down to adjacent floats: the midpoint
    of the last bracket. `below_root(y)` tells whether y lies below it."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # adjacent floats: done
            return mid
        if below_root(mid):
            lo = mid
        else:
            hi = mid


def solve_smooth_pasting(problem: ScalarProblem) -> SmoothSolution:
    """Find the C^1 pasting pair (psi1, ybar) by scan + bisection.

    For each trial ybar the derivative equation gives psi1 in closed form,
    reducing the 2-d system to a scalar root problem in ybar on (0, 1). The
    residual is pre-scanned for sign changes, each bracket is bisected to
    floating-point resolution, and the root mismatching the optimality of
    the threshold rule (if any) is discarded.
    """
    if problem.delta <= 0:
        raise DomainError("smooth pasting needs delta > 0; use the ergodic routines")

    lo_edge, hi_edge = 1e-12, 1.0 - 1e-12
    grid = np.linspace(lo_edge, hi_edge, _SCAN_POINTS + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        res = _pasting_residuals(problem, grid, exp=np.exp)[0]
    if not np.all(np.isfinite(res)):
        if problem.delta / problem.S > math.log(np.finfo(float).max):  # exp(delta / S) overflows
            raise DomainError(
                f"pasting residual overflows: delta / S = {problem.delta / problem.S:.6g} "
                "is too large for double precision"
            )
        raise DomainError(f"pasting residual is not finite for {problem}")
    sign = np.sign(res)
    brackets = np.flatnonzero((sign[:-1] * sign[1:]) < 0)
    roots = [float(grid[i]) for i in np.flatnonzero(sign == 0)]

    for i in brackets:
        lo, hi = float(grid[i]), float(grid[i + 1])
        sign_lo = _pasting_residuals(problem, lo)[0] > 0
        roots.append(_bisect(lo, hi, lambda y: (_pasting_residuals(problem, y)[0] > 0) == sign_lo))

    if not roots:
        raise NoInteriorThresholdError(
            "pasting residual has no sign change on (0, 1); no interior "
            "threshold exists for these parameters"
        )

    failures = []
    for ybar in roots:
        r_value, r_deriv, psi1 = _pasting_residuals(problem, ybar)
        a, b, f = candidate_coefficients(problem, psi1)
        sol = SmoothSolution(problem=problem, ybar=ybar, psi1=psi1, a=a, b=b, f=f)
        if abs(r_value) > 1e-10 or abs(r_deriv) > 1e-10:
            failures.append(f"ybar={ybar}: pasting residuals ({r_value:.2e}, {r_deriv:.2e})")
            continue
        if not _is_consistent(sol):
            failures.append(f"ybar={ybar}: threshold rule not optimal for this root")
            continue
        return sol
    raise NoInteriorThresholdError(
        f"no admissible pasting root on (0, 1): all {len(roots)} roots rejected, "
        f"the first at {failures[0]}"
    )


def ergodic_threshold(S: float, c: float, d: float, lam: float) -> ErgodicSolution:
    """Vanishing-discount threshold: root of (1-y) exp(-lam y / S) = dS/(1-cS).

    Exists uniquely in (0, 1) when (c+d) S < 1. The effective cost rate is
    u = cS + dS/(1-ybar). d = 0 degenerates to ybar = 1 (flagged), with u
    from the companion equation u = (1-cS) exp(-lam/S) + cS.
    """
    ScalarProblem(S=S, delta=0.0, c=c, d=d, lam=lam)  # validates the arguments
    if (c + d) * S >= 1.0:
        raise NoInteriorThresholdError(
            f"(c + d) S = {(c + d) * S:.6g} >= 1: no interior threshold; "
            "never replenishing is optimal"
        )
    if d == 0.0:
        u = (1.0 - c * S) * math.exp(-lam / S) + c * S
        return ErgodicSolution(ybar=1.0, u=u, degenerate=True)

    target = d * S / (1.0 - c * S)
    # (1 - y) exp(-lam y / S) is strictly decreasing
    ybar = _bisect(0.0, 1.0, lambda y: (1.0 - y) * math.exp(-lam / S * y) > target)
    u = c * S + d * S / (1.0 - ybar)
    return ErgodicSolution(ybar=ybar, u=u)


def complete_info_threshold(S: float, c: float, d: float) -> float:
    """Closed-form threshold limit (1 - (c+d)S) / (1 - cS).

    This is the vanishing-intensity limit of the ergodic root equation (the
    exponential factor drops out), and equivalently the largest threshold at
    which the replenishment cost rate still undercuts the unit depletion
    penalty rate. A nonpositive value means no replenishment threshold
    exists (the most passive policy, ybar = 0 or never supplying, is
    optimal); the raw value is returned and a warning emitted.
    """
    ScalarProblem(S=S, delta=0.0, c=c, d=d, lam=1.0)  # validates S, c, d; lam drops out
    if c * S >= 1.0:
        raise DomainError(f"cS = {c * S:.6g} >= 1: threshold formula undefined")
    ybar = (1.0 - (c + d) * S) / (1.0 - c * S)
    if ybar <= 0.0:
        warnings.warn(
            "no replenishment threshold: (c + d) S >= 1, most passive policy",
            stacklevel=2,
        )
    return ybar


def threshold_sensitivity_sign(S: float, c: float, d: float, lam: float) -> float:
    """Sign of the ergodic threshold's derivative in S.

    The implicit differentiation of the root equation gives
    d(ybar)/dS = C0 (ybar - S / (lam (1 - cS))) with C0 > 0, so only the
    bracket decides the sign: +1.0, 0.0 or -1.0.
    """
    sol = ergodic_threshold(S, c, d, lam)
    gap = sol.ybar - S / (lam * (1.0 - c * S))
    return float(np.sign(gap))

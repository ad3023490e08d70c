"""Finite difference solution of the coupled optimality system.

The stationary equation for the value surface on (regime, storage) is
degenerate elliptic with a nonlocal intervention term:

    delta P_i + S_i 1{y>0} dP_i/dy + sum_{j!=i} nu_ij (P_i - P_j)
        + lam (P_i - min{P_i, P_i(1) + c (1-y) + d}) - 1{y=0} = 0.

The advection coefficient S_i 1{y>0} is nonnegative, so the local
Lax-Friedrichs numerical Hamiltonian with dissipation S_i reduces exactly
to upwinding with the left-biased derivative, reconstructed at third order
by WENO. The discrete system is solved from zero by defect correction:
each update solves with the first-order upwind operator under the current
replenish set, the matrix of Howard's policy iteration, until the residual
falls below a tolerance. With delta = 0 the same iteration
solves for a relative value and the long-run cost rate (the ergodic mode).
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from .analytic import CostSpec, ScalarProblem, evaluate_candidate, solve_smooth_pasting
from .errors import ConvergenceError, InputError, StructureError
from .regime import RegimeChain, check_integer, check_rates, read_csv_rows

__all__ = [
    "Grid",
    "CostSpec",
    "ValueField",
    "ThresholdPolicy",
    "SolverConfig",
    "SolveResult",
    "ConvergenceRow",
    "weno3_left_derivative",
    "residual",
    "solve_stationary",
    "extract_policy",
    "convergence_study",
    "solve_with_ambiguity",
    "single_regime_chain",
    "write_value_field_csv",
    "write_free_boundary_csv",
    "read_free_boundary_csv",
]

# WENO3 regularizer of the smoothness indicators is eps = _WENO_EPS * h^2
# on derivatives, so it shrinks with the grid like the indicators do at a
# critical point (Arandiga, Baeza, Belda & Mulet 2011). Part of the scheme:
# changing it moves the fixed point the scheme converges to.
_WENO_EPS = 0.1


@dataclass(frozen=True)
class Grid:
    """Uniform vertices on [0, 1]: y_k = k / (n - 1)."""

    n: int

    def __post_init__(self):
        if check_integer(self.n, "grid size") < 5:
            raise InputError("grid needs at least 5 vertices")

    @property
    def h(self) -> float:
        return 1.0 / (self.n - 1)

    @cached_property
    def vertices(self) -> NDArray[np.float64]:
        y = np.linspace(0.0, 1.0, self.n)
        y.flags.writeable = False  # cached and shared by every caller
        return y


def _intervention_gap(v: NDArray[np.float64], refill: NDArray[np.float64],
                      out: NDArray[np.float64] | None = None) -> NDArray[np.float64]:
    """v - (v_i(1) + refill), refill = c (1-y) + d on the grid: positive
    where replenishing strictly wins."""
    gap = np.add(v[:, -1:], refill, out=out)
    return np.subtract(v, gap, out=gap)


@dataclass
class ValueField:
    """Value surface samples: values[i, k] at regime i, vertex y_k."""

    values: NDArray[np.float64]
    grid: Grid
    chain: RegimeChain
    rates: NDArray[np.float64]
    costs: CostSpec

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.rates = check_rates(self.rates, self.chain.count)
        expected = (self.chain.count, self.grid.n)
        if self.values.shape != expected:
            raise StructureError(
                f"value array shape {self.values.shape} != (regimes, vertices) {expected}"
            )

    def replenish(self) -> NDArray[np.bool_]:
        """Where replenishing strictly beats waiting: P_i(1) + c (1-y) + d <
        P_i(y). Ties do nothing (never pay the fixed cost for zero gain)."""
        with np.errstate(over="ignore"):  # a refill or gap past the double range is +-inf
            refill = self.costs.intervention_cost(self.grid.vertices)
            return _intervention_gap(self.values, refill) > 0.0


@dataclass(frozen=True)
class ThresholdPolicy:
    """Per-regime free boundary; replenish at an observation iff Y <= boundary.

    A boundary of 0 replenishes only empty storage; -inf never replenishes.
    """

    boundaries: NDArray[np.float64]

    def __post_init__(self):
        b = np.asarray(self.boundaries, dtype=float)
        object.__setattr__(self, "boundaries", b)
        if b.ndim != 1 or b.size == 0:
            raise InputError("boundaries must be a non-empty 1-d array")
        if not np.all((b >= 0.0) & (b <= 1.0) | (b == -np.inf)):  # NaN fails all three
            raise InputError("boundaries must lie in [0, 1], or be -inf (never)")


@dataclass(frozen=True)
class SolverConfig:
    """Steady-state solver controls: stop once max |residual| <= tol. The
    one default tol, also the CLI's, holds on the paper chain in both modes
    at n = 301-2401. `t_end` is accepted and read by nothing."""

    t_end: float = 365.0 / 2.0
    tol: float = 1e-9

    def __post_init__(self):
        if not 0.0 < self.tol < math.inf:
            raise InputError("tol must be finite and positive")


@dataclass
class SolveResult:
    """Solved field plus iteration diagnostics, per iterate from v = 0 on."""

    field: ValueField
    step_change: float  # sup norm of the last update
    iterations: int  # updates made
    converged: bool
    min_seen: float  # bounds on v over every iterate
    max_seen: float
    residual_history: tuple[float, ...]  # max |residual| of each iterate (of z, when discounted)
    policy_changes: tuple[int, ...]  # replenish decisions flipped since the last iterate
    cost_rate: float  # r of residual(z) + r = 0: u when ergodic, delta v(0, 1) when discounted
    notes: tuple[str, ...] = field(default_factory=tuple)

    def check_converged(self) -> None:
        """Raise :class:`ConvergenceError` unless the solve converged: that
        the iteration diverged, when the last residual is not finite or
        exceeds the first, or else that it stalled, naming the residual's
        round-off floor, about eps max|v - v(0, 1)| max(S) / h."""
        if self.converged:
            return
        first, last = self.residual_history[0], self.residual_history[-1]
        if not last <= first:  # nan fails too
            raise ConvergenceError(
                f"iteration diverged: max |residual| went from {first:.3e} to {last:.3e} "
                f"in {self.iterations} iterations"
            )
        v, s = self.field.values, self.field.rates / self.field.grid.h
        floor = np.finfo(float).eps * np.max(np.abs(v - v[0, -1])) * np.max(s)
        raise ConvergenceError(
            f"max |residual| {last:.3e} stalled above tol "
            f"after {self.iterations} iterations; round-off floor about {floor:.3e}"
        )


def weno3_left_derivative(values, h: float):
    """Left-biased WENO3 derivative of grid data (last axis is the grid),
    the upwind derivative of the residual; `_Weno3` gives the scheme.

    The spacing must be finite and positive and the grid hold at least 5
    values; otherwise `InputError`.
    """
    if not 0.0 < h < math.inf:  # NaN fails too
        raise InputError("spacing must be finite and positive")
    v = np.asarray(values, dtype=float)
    if v.ndim == 0 or v.shape[-1] < 5:
        raise InputError("need at least 5 grid values")
    return _Weno3(v.shape, h)(v) / h


class _Weno3:
    """h times the left-biased WENO3 derivative of grid data of one shape
    (last axis is the grid), with work arrays sized once.

    It combines the one-sided stencil {k-2, k-1, k} and the centered
    stencil {k-1, k, k+1} with linear weights (1/3, 2/3) and nonlinear
    weights proportional to linear / (eps + beta)^2, where the smoothness
    indicators beta are the squared jumps of the divided differences
    d_k / h and eps = `_WENO_EPS` h^2. In the raw differences
    d_k = v_{k+1} - v_k that is the ratio form

        d_{k-1} + (a + r b) / (2 (1 + r)),   r = 2 ((eps' + a^2) / (eps' + b^2))^2,

    with jumps a = d_{k-1} - d_{k-2}, b = d_k - d_{k-1} and eps' =
    `_WENO_EPS` h^4; r is the ratio alpha1 / alpha0 of the two nonlinear
    weights. Ghost values linearly extrapolate beyond both ends
    (d_{-2} = d_{-1} = d_0, d_{n-1} = d_{n-2}), so the result is exact for
    linear data and third-order accurate at smooth interior points. A call
    returns a work array that the next call overwrites.
    """

    def __init__(self, shape: tuple[int, ...], h: float):
        *lead, n = shape
        self.eps = _WENO_EPS * h ** 4
        self.steps = np.empty((*lead, n + 2))  # d_{-2}, d_{-1}, d_0, ..., d_{n-1}
        self.jumps = np.empty((*lead, n + 1))
        self.spread = np.empty((*lead, n + 1))  # eps' + jump^2
        self.ratio = np.empty((*lead, n))
        self.out = np.empty((*lead, n))

    def __call__(self, v: NDArray[np.float64]) -> NDArray[np.float64]:
        n = v.shape[-1]
        steps, jumps, spread, r, out = self.steps, self.jumps, self.spread, self.ratio, self.out
        np.subtract(v[..., 1:], v[..., :-1], out=steps[..., 2:n + 1])
        steps[..., :2] = steps[..., 2:3]
        steps[..., n + 1] = steps[..., n]
        np.subtract(steps[..., 1:], steps[..., :-1], out=jumps)  # a = jumps[k], b = jumps[k + 1]
        np.multiply(jumps, jumps, out=spread)
        spread += self.eps
        np.divide(spread[..., :-1], spread[..., 1:], out=r)
        r *= r
        r *= 2.0
        np.multiply(r, jumps[..., 1:], out=out)
        out += jumps[..., :-1]
        r += 1.0
        r *= 2.0
        out /= r
        out += steps[..., 1:n + 1]
        return out


def residual(fld: ValueField) -> NDArray[np.float64]:
    """Pointwise residual of the stationary optimality system (same shape)."""
    return _Howard(fld.chain, fld.rates, fld.costs, fld.grid).residual(fld.values)[0]


class _Howard:
    """The stationary system on one chain, rates, costs and grid, with its
    coefficients formed once: s = S/h, delta + outflow, the switching
    matrix nu, lam and the refill cost c (1 - y) + d.

    `residual(v)` returns the residual (delta + outflow) v + s W(v) - nu v
    + lam max(gap, 0) - 1{y=0}, where W(v) is `_Weno3` (h times the
    derivative) switched off at y = 0, and the gap `_intervention_gap`, in
    work arrays that the next call overwrites.

    `factor(replenish)` refactors in place an exact solver for J, the
    first-order upwind Jacobian of the residual under a replenish set. J
    has delta + outflow on the diagonal, +-s upwind advection for k >= 1,
    -nu_ij regime switching and lam (row k - column of the last vertex) on
    the replenish set; the last two cancel at the last vertex.
    With the unknowns numbered storage-major, (i, k) at row k * I + i, the
    rows of vertex k read

        D_k x_k - s x_{k-1} - lam R_k x_{n-1} = b_k,

    where the I x I block D_k = diag(delta + outflow + s 1{k>0} + lam R_k)
    - nu changes with k only on its diagonal. Every row also carries a rate
    u, the unknown in place of x(0, 1) = 0 (regime 0, y = 1).

    J^-1 is block forward substitution along storage (block LU; Golub &
    Van Loan, *Matrix Computations*). Vertex k couples only to k - 1, to
    the other regimes at k and to the border z = (x_0, x_{n-1}), u in the
    slot of x(0, 1). Given z, the interior follows in one forward sweep,

        x_k = D_k^-1 (c_k + s x_{k-1}),  c_k = b_k + lam R_k x_{n-1} - u,

    for k = 1..n-2, so s x_{n-2} = sum_k P_k c_k + P_1 s x_0, where the
    adjoint sweep P_{n-2} = s D_{n-2}^-1, P_{k-1} = P_k s D_{k-1}^-1 runs
    once per factorization. With that, the rows of vertices 0 and n - 1
    close a dense 2I x 2I system in z, the Schur complement of the
    interior, which is inverted; u's slot is then set to 0.0. x_0 is in the
    border because at delta = 0 D_0 is the negated generator, singular,
    until empty storage replenishes. A singular block or Schur
    complement raises `StructureError`.

    Two solves run this. The block solve serves every chain: one product
    x_k = [D_k^-1 s | D_k^-1] [x_{k-1}; c_k] per vertex, and the Schur
    complement inverted as a matrix. The prefix solve serves one regime
    while G_{n-2} >= sqrt(tiny) keeps 1 / G finite, where G_k = g_1..g_k
    and g_k = s / D_k <= 1. There x_{n-1} is x(0, 1) itself, so the border
    is (x_0, u) and c_k = b_k - u, and the Schur complement is the 2 x 2
    [[delta + lam R_0, 1], [-s P_1, 1 + sum_k P_k]], applied to (b_0,
    sum_k P_k b_k + b_{n-1}) and inverted from scalars: its determinant, a
    sum of terms >= 0, is 0 only when it is singular. The adjoint is the
    product P_k = g_{n-2}..g_k, and the sweep x_k = e_k + g_k x_{k-1} the
    prefix sum x_k = G_k (x_0 + sum_{j<=k} e_j / G_j) (Graham, Knuth &
    Patashnik, *Concrete Mathematics*, 2.2). A one-regime factorization
    whose gains' product underflows (no transport, or a drain far below
    delta + lam on a fine grid) takes the block solve, border and all.
    `solve` takes and returns (regime, vertex) arrays. The work arrays are
    sized once, the sweep's at the first `factor`, and every solve shares
    them, the update too: one factorization at a time, one solve at a
    time, and a solve's update is overwritten by the next.
    """

    def __init__(self, chain: RegimeChain, rates, costs: CostSpec, grid: Grid):
        shape = (chain.count, grid.n)
        self.weno = _Weno3(shape, grid.h)
        self.s = rates / grid.h
        self.outflow = costs.delta + chain.out_rates
        self.speed, self.decay = self.s[:, None], self.outflow[:, None]  # the residual's columns
        self.switching, self.coupled = chain.rates, bool(chain.out_rates.any())  # rates >= 0
        self.lam = costs.lam
        with np.errstate(over="ignore"):  # +inf past the double range: never worth making
            self.refill = costs.intervention_cost(grid.vertices)
        self.res, self.gap, self.work = np.empty(shape), np.empty(shape), np.empty(shape)
        self.adjoint = None  # the sweep's work arrays, at the first factorization

    def residual(self, v: NDArray[np.float64]) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
        res, gap, work = self.res, self.gap, self.work
        np.multiply(self.speed, self.weno(v), out=work)
        work[:, 0] = 0.0  # advection switched off at y = 0
        np.multiply(self.decay, v, out=res)
        res += work
        if self.coupled:
            res -= np.dot(self.switching, v, out=work)
        _intervention_gap(v, self.refill, out=gap)
        np.maximum(gap, 0.0, out=work)
        work *= self.lam
        res += work
        res[:, 0] -= 1.0  # depletion penalty source lives on the y = 0 vertex
        return res, gap

    def factor(self, replenish: NDArray[np.bool_]) -> _Howard:
        count, s, inner = self.s.size, self.s, replenish.shape[1] - 2
        if self.adjoint is None:
            self.adjoint = np.empty((inner, count, count))  # P_k^T
            self.weights = self.adjoint.reshape(-1, count)  # b -> s x_{n-2}, given z = 0
            # [D_k^-1 s | D_k^-1], one per run of equal D_k, and the pairs
            # [x_{k-1}; c_k] each product of the block sweep reads
            self.steps = np.empty((inner, count, 2 * count))
            self.pairs = np.empty((inner + 2, 2 * count))
            self.links = None  # (pair, out) per vertex, at the first block factorization
            # the Schur system's right-hand side and solution, and b_0..b_{n-1}
            self.border, self.z = np.empty(2 * count), np.empty(2 * count)
            self.b = np.empty((inner + 2, count))
            if count == 1:  # x_0..x_{n-1} and c_1..c_{n-2} of the prefix sum, g_0..g_{n-2}
                self.line = np.empty((inner + 2, 1)), np.empty((inner, 1))
                self.gains, self.factors = np.ones((inner + 1, 1)), np.empty((inner + 1, 1))
                self.scale = np.empty((inner, 1))
        adjoint = self.adjoint
        self.jump = self.lam * replenish[:, :-1].T  # lam R_k, k < n - 1
        diagonals = (self.outflow + s) + self.jump[1:]
        self.prefix = False
        if count == 1:  # the blocks are their diagonals
            gains, factors, scale = self.gains, self.factors, self.scale
            with np.errstate(divide="ignore"):
                _check_finite(np.divide(1.0, diagonals, out=scale))  # D_k^-1
            np.multiply(s, scale, out=gains[1:])  # g_k = s / D_k carries x_{k-1} into x_k
            np.cumprod(gains, axis=0, out=factors)  # G_0..G_{n-2}
            self.prefix = factors[-1, 0] >= math.sqrt(np.finfo(float).tiny)  # 1 / G < 6.7e153
        if self.prefix:
            scale /= factors[1:]  # D_k^-1 / G_k
            np.cumprod(gains[:0:-1], axis=0, out=adjoint[::-1, 0])  # P_k = g_{n-2}..g_k
            self.x, self.c = self.line
            # [[delta + lam R_0, 1], [-s P_1, 1 + sum_k P_k]] in (x_0, u)
            corner = float(self.outflow[0] + self.jump[0, 0])
            coupling, weight = float(s[0] * adjoint[0, 0, 0]), 1.0 + float(adjoint.sum())
            det = corner * weight + coupling  # a sum of terms >= 0: 0 only when singular
            reciprocal = 1.0 / det if det else math.inf
            self.schur_inverse = _check_finite(
                [weight * reciprocal, -reciprocal, coupling * reciprocal, corner * reciprocal])
            return self
        steps, pairs = self.steps, self.pairs
        inverses, run_of = _run_inverses(self.switching, diagonals, steps[:, :, count:])
        runs = run_of.tolist()
        np.multiply(inverses[runs[-1]].T, s, out=adjoint[-1])
        scratch = np.empty((count, count))
        for k in range(len(runs) - 1, 0, -1):
            np.multiply(s[:, None], adjoint[k], out=scratch)
            np.dot(inverses[runs[k - 1]].T, scratch, out=adjoint[k - 1])
        np.multiply(inverses, s, out=steps[:len(inverses), :, :count])
        if self.links is None:
            self.links = [(pairs[k], pairs[k + 1, :count]) for k in range(len(runs))]
        self.sweep = [(steps[run], *link) for run, link in zip(runs, self.links)]
        self.x, self.c = pairs[:, :count], pairs[:-2, count:]
        top = slice(count, 2 * count)
        schur = np.zeros((2 * count,) * 2)
        schur[:count, :count] = np.diag(self.outflow + self.jump[0]) - self.switching
        schur[range(count), range(count, 2 * count)] = -self.jump[0]
        schur[top, :count] = -adjoint[0].T * s
        schur[top, top] = np.diag(self.outflow + s) - self.switching \
            - np.einsum("ki,kij->ji", self.jump[1:], adjoint)
        schur[:, count] = 1.0  # the rate's column, in place of x(0, 1) = 0
        schur[top, count] += adjoint.sum(axis=(0, 1))
        self.schur_inverse = _inverse(schur)
        return self

    def solve(self, res: NDArray[np.float64]) -> tuple[NDArray[np.float64], float]:
        """The bordered system's inverse applied to a (regime, vertex)
        residual: the (regime, vertex) update, exactly 0.0 at (regime 0,
        y = 1), and the rate update."""
        x = self.x
        if self.prefix:  # the 2 x 2 border in closed form; no refill coupling, as x_{n-1} = 0
            row = res[0]
            head, tail = float(row[0]), float(np.dot(row[1:-1], self.weights)[0] + row[-1])
            x_head, x_tail, rate_head, rate_tail = self.schur_inverse
            rate = rate_head * head + rate_tail * tail
            x[0], x[-1] = x_head * head + x_tail * tail, 0.0
            np.subtract(row[1:-1, None], rate, out=self.c)  # c_k = b_k - u
            scan = x[:-1]  # x_k = G_k (x_0 + sum_{j<=k} e_j / G_j)
            np.multiply(self.c, self.scale, out=scan[1:])
            np.multiply(np.cumsum(scan, axis=0, out=scan), self.factors, out=scan)
            return x.T, rate
        count, border, z, b = self.s.size, self.border, self.z, self.b
        b[:] = res.T
        border[:count] = b[0]
        upwind = np.dot(b[1:-1].ravel(), self.weights, out=border[count:])
        upwind += b[-1]
        np.dot(self.schur_inverse, border, out=z)
        rate, z[count] = float(z[count]), 0.0  # the rate's slot holds x(0, 1) = 0
        b[1:-1] -= rate
        c = np.multiply(self.jump[1:], z[count:], out=self.c)
        c += b[1:-1]
        x[0], x[-1] = z[:count], z[count:]  # x_0..x_{n-1}
        for step, pair, out in self.sweep:
            np.dot(step, pair, out=out)
        return x.T, rate


def _inverse(matrix: NDArray[np.float64]) -> NDArray[np.float64]:
    """The inverse of a square matrix; `StructureError` when it is
    singular, as then the steady-state system has no unique solution."""
    try:
        return _check_finite(np.linalg.inv(matrix))
    except np.linalg.LinAlgError as exc:
        raise StructureError(f"steady-state system is singular: {exc}") from None


def _check_finite(inverse: NDArray[np.float64]) -> NDArray[np.float64]:
    """`inverse`, unless an entry is not finite: a singular system."""
    if not np.all(np.isfinite(inverse)):
        raise StructureError("steady-state system is singular to working precision")
    return inverse


def _run_inverses(switching, diagonals, out) -> tuple[NDArray[np.float64], NDArray[np.intp]]:
    """The inverse of diag(d) - switching for each run of equal rows d of
    `diagonals`, written to the head of `out`, and the run of each row.

    The last run is inverted directly. Every other run is reached from the
    inverse of the run after it by one Sherman-Morrison update per regime
    in which the two differ, O(I^2) each.
    """
    new_run = np.any(diagonals[1:] != diagonals[:-1], axis=1)
    run_of = np.concatenate([[0], np.cumsum(new_run)])
    firsts = diagonals[np.concatenate([[True], new_run])]
    differs = firsts[:-1] != firsts[1:]
    inverses = out[:len(firsts)]
    inverses[-1] = _inverse(np.diag(firsts[-1]) - switching)
    with np.errstate(divide="ignore", invalid="ignore"):  # singular: caught below
        for run in range(len(firsts) - 2, -1, -1):
            inverse = inverses[run]
            inverse[:] = inverses[run + 1]
            for j in np.flatnonzero(differs[run]).tolist():
                # (A + w e_j e_j^T)^-1 = A^-1 - A^-1 e_j e_j^T A^-1 / (1 / w + A^-1_jj)
                pivot = 1.0 / (firsts[run, j] - firsts[run + 1, j]) + inverse[j, j]
                inverse -= (inverse[:, j] / pivot)[:, None] * inverse[j]
    return _check_finite(inverses), run_of


# A solve whose max |residual| has set no new minimum in this many
# iterations has stalled. The rule assumes no contraction rate, so it needs
# no window measured grid by grid: a slow solve runs on while it improves.
_STALL_WINDOW = 30


def solve_stationary(
    chain: RegimeChain,
    rates,
    costs: CostSpec,
    grid: Grid,
    config: SolverConfig | None = None,
) -> SolveResult:
    """Solve residual(v) = 0 by defect correction from v = 0.

    Each iteration sets v <- v - J^-1 residual(v), where J, the
    first-order upwind Jacobian under the current replenish set, is a
    weakly chained diagonally dominant M-matrix as in Howard's policy
    iteration. The WENO3 residual is unchanged, so the fixed point is that
    of the third-order scheme. J is refactored only when the replenish set
    changes.

    Both modes solve residual(z) + r = 0 for a rate r and a field z that
    is exactly 0 at (regime 0, y = 1): every update is 0.0 there, and r
    takes that unknown's place. `cost_rate` reports r. With delta = 0, r
    is the cost rate u and z the relative value w, which needs one closed
    class of regimes (`RegimeChain.long_run_class`) in which some regime
    drains storage. With delta > 0, v = z + r / delta, as residual(z + k)
    = residual(z) + delta k, so v(0, 1) == r / delta and r -> u as
    delta -> 0: z, not v ~ r / delta, is iterated, so round-off stays small.
    A residual that is NaN or sets no new minimum in `_STALL_WINDOW`
    iterations (round-off above tol, say) ends it with `converged = False`.
    """
    config = config or SolverConfig()
    fld = ValueField(np.zeros((chain.count, grid.n)), grid, chain, rates, costs)
    ergodic = costs.delta == 0.0
    if ergodic:
        closed = chain.long_run_class()
        if not fld.rates[closed].any():  # then each storage level is a closed class
            raise StructureError("steady-state system is singular: storage never drains "
                                 f"in the long-run class of regimes {closed}")

    howard = _Howard(chain, fld.rates, costs, grid)

    v = fld.values  # z, iterated in place; v = z + cost_rate / delta when discounted
    magnitude = np.empty(v.shape)
    cost_rate = level = min_seen = max_seen = 0.0
    best, best_at = math.inf, 0  # the lowest residual and the history's length at it
    replenish, now = np.zeros(v.shape, dtype=bool), np.empty(v.shape, dtype=bool)
    history: list[float] = []
    changes: list[int] = []
    # a diverging iterate ends on a NaN residual, or an infinite one that is no new minimum
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            res, gap = howard.residual(v)
            res += cost_rate
            np.greater(gap, 0.0, out=now)
            changes.append(int(np.count_nonzero(now != replenish)))
            replenish, now = now, replenish
            history.append(float(np.abs(res, out=magnitude).max()))
            if history[-1] < best:
                best, best_at = history[-1], len(history)
            converged = history[-1] <= config.tol
            if converged or len(history) - best_at >= _STALL_WINDOW or math.isnan(history[-1]):
                break
            if len(history) == 1 or changes[-1]:
                howard.factor(replenish)
            step, rate_step = howard.solve(res)
            v -= step
            cost_rate -= rate_step
            level = 0.0 if ergodic else cost_rate / costs.delta
            min_seen = min(min_seen, float(v.min()) + level)
            max_seen = max(max_seen, float(v.max()) + level)
    v += level  # z -> v; adding 0.0 leaves the ergodic w bit for bit
    step_change = float(np.max(np.abs(step))) if len(history) > 1 else 0.0

    notes: tuple[str, ...] = ()
    # monotonicity in storage is expected but not guaranteed by the scheme;
    # flag violations in a converged field, not in a diverged iterate, instead of failing
    worst_rise = float(np.max(np.diff(v, axis=1), initial=0.0))
    if converged and worst_rise > 1e-8:
        notes = (f"field increases along storage by up to {worst_rise:.3e}",)
        warnings.warn(notes[0], stacklevel=2)
    return SolveResult(
        field=fld,
        step_change=step_change,
        iterations=len(history) - 1,
        converged=converged,
        min_seen=min_seen,
        max_seen=max_seen,
        residual_history=tuple(history),
        policy_changes=tuple(changes),
        cost_rate=float(cost_rate),
        notes=notes,
    )


def extract_policy(fld: ValueField) -> ThresholdPolicy:
    """Free boundary per regime from the converged field.

    The replenishing vertices are `ValueField.replenish`. The boundary is
    the midpoint between the last replenishing and first idle vertex (the
    top vertex is idle: its gap v - fl(v + d) is never positive), or
    -inf when no vertex replenishes: a boundary of 0 would still replenish
    empty storage, where a path spends positive time. A replenish set that
    is not a contiguous run starting at y = 0 breaks the threshold form and
    is an error.
    """
    if not np.isfinite(fld.values).all():  # a failed solve, not a "never" policy
        raise InputError("value field is not finite")
    y = fld.grid.vertices
    replenish = fld.replenish()

    boundaries = np.full(fld.chain.count, -np.inf)
    for i in range(fld.chain.count):
        hits = np.flatnonzero(replenish[i])
        if hits.size == 0:
            continue
        last = int(hits[-1])
        if hits.size != last + 1:  # gaps, or a run not anchored at vertex 0
            raise StructureError(
                f"regime {i}: replenish set {hits.tolist()} is not a "
                "contiguous interval containing y = 0"
            )
        boundaries[i] = 0.5 * (y[last] + y[last + 1])
    return ThresholdPolicy(boundaries=boundaries)


def single_regime_chain() -> RegimeChain:
    """One-regime chain carrier for scalar problems."""
    return RegimeChain(discharges=np.array([1.0]), rates=np.zeros((1, 1)))


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    linf_error: float
    l1_error: float
    linf_rate: float | None
    l1_rate: float | None
    ybar: float
    ybar_error: float


def convergence_study(
    problem: ScalarProblem,
    resolutions,
    config: SolverConfig | None = None,
) -> list[ConvergenceRow]:
    """Grid refinement study against the closed-form single-regime solution.

    Solves the stationary system at each resolution, measures the l-inf and
    l1 (vertex mean) errors against the exact candidate, extracts the
    threshold, and attaches observed orders log_{N2/N1}(e1/e2) between
    consecutive rows. A solve that does not converge raises
    :class:`ConvergenceError`.
    """
    resolutions = [check_integer(n, "resolution") for n in resolutions]
    if not resolutions:
        raise InputError("need at least one resolution")
    for n1, n2 in zip(resolutions, resolutions[1:]):
        if n1 == n2:
            raise InputError(f"duplicate resolution {n1}: convergence rate undefined")

    exact = solve_smooth_pasting(problem)
    chain = single_regime_chain()
    rates = np.array([problem.S])

    rows: list[ConvergenceRow] = []
    for n in resolutions:
        grid = Grid(n)
        result = solve_stationary(chain, rates, problem, grid, config)
        result.check_converged()
        err = result.field.values[0] - evaluate_candidate(exact, grid.vertices)
        linf = float(np.max(np.abs(err)))
        l1 = float(np.mean(np.abs(err)))
        ybar = float(extract_policy(result.field).boundaries[0])
        linf_rate = l1_rate = None
        if rows:
            prev = rows[-1]
            scale = math.log(n / prev.n)
            linf_rate = math.log(prev.linf_error / linf) / scale
            l1_rate = math.log(prev.l1_error / l1) / scale
        rows.append(
            ConvergenceRow(
                n=n,
                linf_error=linf,
                l1_error=l1,
                linf_rate=linf_rate,
                l1_rate=l1_rate,
                ybar=ybar,
                ybar_error=abs(ybar - exact.ybar),
            )
        )
    return rows


def solve_with_ambiguity(
    chain: RegimeChain,
    rates,
    costs: CostSpec,
    lambda_interval,
    grid: Grid,
    config: SolverConfig | None = None,
) -> SolveResult:
    """Worst-case solve under observation-intensity ambiguity [lam_lo, lam_hi].

    The worst case maximizes over the intensity, but the nonlocal term is
    nonpositive inside the sup, so the saddle collapses to the plain system
    at the lower intensity; the result records the reduction.
    """
    lo, hi = (float(x) for x in lambda_interval)
    if not lo <= hi < math.inf:
        raise InputError(f"invalid intensity interval [{lo}, {hi}]")
    reduced = replace(costs, lam=lo)  # validates lo
    result = solve_stationary(chain, rates, reduced, grid, config)
    result.notes = result.notes + (
        f"ambiguity interval [{lo:.6g}, {hi:.6g}] reduced to intensity {lo:.6g}",
    )
    return result


def write_value_field_csv(fld: ValueField, path: str | Path) -> None:
    """Columns regime,y,phi,action with action in {replenish, none}.

    phi is written in round-trip digits (`repr`), so reading the file back
    gives the solver's own field. The bytes are those of `csv.writer`: no
    field needs quoting, and every line ends in CRLF.
    """
    ys = [f"{y:.12g}" for y in fld.grid.vertices]
    actions = np.where(fld.replenish(), "replenish", "none").tolist()
    lines = ["regime,y,phi,action\r\n"]
    for i, (phi, act) in enumerate(zip(fld.values.tolist(), actions)):
        lines += [f"{i},{y},{v!r},{a}\r\n" for y, v, a in zip(ys, phi, act)]
    with open(path, "w", newline="") as fh:
        fh.write("".join(lines))


def write_free_boundary_csv(
    chain: RegimeChain, policy: ThresholdPolicy, path: str | Path
) -> None:
    """Columns regime,q,Ybar."""
    if policy.boundaries.size != chain.count:
        raise StructureError("policy size does not match the chain")
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["regime", "q", "Ybar"])
        for i in range(chain.count):
            out.writerow([
                i, f"{chain.discharges[i]:.12g}", f"{policy.boundaries[i]:.15g}"
            ])


def read_free_boundary_csv(path: str | Path) -> ThresholdPolicy:
    """Read a free-boundary CSV back into a policy (rows sorted by regime)."""
    rows = read_csv_rows(path, ("regime", "Ybar"), lambda i, b: (int(i), float(b)))
    if not rows:
        raise InputError(f"{path}: no policy rows")
    rows.sort()
    if [r for r, _ in rows] != list(range(len(rows))):
        raise InputError(f"{path}: regime indices must be 0..{len(rows) - 1}")
    try:
        return ThresholdPolicy(boundaries=np.array([b for _, b in rows]))
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None

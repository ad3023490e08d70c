"""Finite difference solution of the coupled optimality system.

The stationary equation for the value surface on (regime, storage) is
degenerate elliptic with a nonlocal intervention term:

    delta P_i + S_i 1{y>0} dP_i/dy + sum_{j!=i} nu_ij (P_i - P_j)
        + lam (P_i - min{P_i, P_i(1) + c (1-y) + d}) - 1{y=0} = 0.

The advection coefficient S_i 1{y>0} is nonnegative, so the local
Lax-Friedrichs numerical Hamiltonian with dissipation S_i reduces exactly
to upwinding with the left-biased derivative, reconstructed at third order
by WENO. The discrete system is solved from zero by damped defect
correction: each update solves with the first-order upwind operator under
the current replenish set, the matrix of Howard's policy iteration, until
the residual falls below a tolerance. With delta = 0 the same iteration
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
import scipy.sparse as sp
from numpy.typing import NDArray
from scipy.sparse.linalg import splu

from .analytic import CostSpec, ScalarProblem, evaluate_candidate, solve_smooth_pasting
from .errors import ConvergenceError, InputError, StructureError
from .regime import RegimeChain, check_rates

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

# linear weights of the two second-order candidate stencils
_W_ONESIDED = 1.0 / 3.0
_W_CENTERED = 2.0 / 3.0


@dataclass(frozen=True)
class Grid:
    """Uniform vertices on [0, 1]: y_k = k / (n - 1)."""

    n: int

    def __post_init__(self):
        if self.n < 5:
            raise InputError("grid needs at least 5 vertices")

    @property
    def h(self) -> float:
        return 1.0 / (self.n - 1)

    @cached_property
    def vertices(self) -> NDArray[np.float64]:
        y = np.linspace(0.0, 1.0, self.n)
        y.flags.writeable = False  # cached and shared by every caller
        return y


def _intervention_gap(v: NDArray[np.float64], costs: CostSpec, grid: Grid) -> NDArray[np.float64]:
    """v - (v_i(1) + c (1-y) + d): positive where replenishing strictly wins."""
    return v - (v[:, -1:] + costs.intervention_cost(grid.vertices))


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
        return _intervention_gap(self.values, self.costs, self.grid) > 0.0


@dataclass(frozen=True)
class ThresholdPolicy:
    """Per-regime free boundary; replenish at an observation iff Y <= boundary."""

    boundaries: NDArray[np.float64]

    def __post_init__(self):
        b = np.asarray(self.boundaries, dtype=float)
        object.__setattr__(self, "boundaries", b)
        if b.ndim != 1 or b.size == 0:
            raise InputError("boundaries must be a non-empty 1-d array")
        if b.min() < 0.0 or b.max() > 1.0:
            raise InputError("boundaries must lie in [0, 1]")


@dataclass(frozen=True)
class SolverConfig:
    """Steady-state solver controls: stop once max |residual| <= tol.

    `dt` and `t_end` are accepted for compatibility and ignored.
    """

    dt: float | None = None
    t_end: float = 365.0 / 2.0
    tol: float = 1e-10
    weno_eps: float = 1e-6

    def __post_init__(self):
        if self.tol <= 0:
            raise InputError("tol must be positive")
        if self.weno_eps <= 0:
            raise InputError("weno_eps must be positive")


@dataclass
class SolveResult:
    """Solved field plus iteration diagnostics, per iterate from v = 0 on."""

    field: ValueField
    step_change: float  # sup norm of the last update
    iterations: int  # updates made
    converged: bool
    min_seen: float  # bounds over every iterate
    max_seen: float
    residual_history: tuple[float, ...]  # max |residual| of each iterate
    policy_changes: tuple[int, ...]  # replenish decisions flipped since the last iterate
    cost_rate: float | None = None  # ergodic mode: long-run cost per day
    notes: tuple[str, ...] = field(default_factory=tuple)

    def check_converged(self) -> None:
        """Raise :class:`ConvergenceError` unless the solve converged."""
        if not self.converged:
            raise ConvergenceError(
                f"max |residual| {self.residual_history[-1]:.3e} stalled above tol "
                f"after {self.iterations} iterations"
            )


def weno3_left_derivative(values, h: float, weno_eps: float = 1e-6):
    """Left-biased WENO3 derivative of grid data (last axis is the grid).

    Combines the one-sided stencil {k-2, k-1, k} and the centered stencil
    {k-1, k, k+1} built from forward differences, with linear weights
    (1/3, 2/3), smoothness indicators beta = (difference jump)^2 and
    nonlinear weights proportional to linear / (eps + beta)^2. Ghost values
    linearly extrapolate beyond both ends (vanishing second difference), so
    the result is exact for linear data and third-order accurate at smooth
    interior points.
    """
    if h <= 0:
        raise InputError("spacing must be positive")
    v = np.asarray(values, dtype=float)
    single = v.ndim == 1
    v2 = v[None, :] if single else v
    n = v2.shape[-1]
    if n < 5:
        raise InputError("need at least 5 grid values")

    dif = (v2[..., 1:] - v2[..., :-1]) / h
    # ghosts: d_{-2} = d_{-1} = d_0 and d_{n-1} = d_{n-2}
    ext = np.concatenate([dif[..., :1], dif[..., :1], dif, dif[..., -1:]], axis=-1)
    dm2 = ext[..., 0:n]
    dm1 = ext[..., 1:n + 1]
    dm0 = ext[..., 2:n + 2]

    one_sided = 1.5 * dm1 - 0.5 * dm2
    centered = 0.5 * (dm1 + dm0)
    beta0 = (dm1 - dm2) ** 2
    beta1 = (dm0 - dm1) ** 2
    alpha0 = _W_ONESIDED / (weno_eps + beta0) ** 2
    alpha1 = _W_CENTERED / (weno_eps + beta1) ** 2
    out = (alpha0 * one_sided + alpha1 * centered) / (alpha0 + alpha1)
    return out[0] if single else out


def _residual_arrays(
    v: NDArray[np.float64],
    chain: RegimeChain,
    rates: NDArray[np.float64],
    costs: CostSpec,
    grid: Grid,
    weno_eps: float,
) -> NDArray[np.float64]:
    deriv = weno3_left_derivative(v, grid.h, weno_eps)
    adv = rates[:, None] * deriv
    adv[:, 0] = 0.0  # advection switched off at y = 0
    coupling = chain.out_rates[:, None] * v - chain.rates @ v
    nonlocal_term = costs.lam * np.maximum(_intervention_gap(v, costs, grid), 0.0)
    res = costs.delta * v + adv + coupling + nonlocal_term
    res[:, 0] -= 1.0  # depletion penalty source lives on the y = 0 vertex
    return res


def residual(fld: ValueField, weno_eps: float = 1e-6) -> NDArray[np.float64]:
    """Pointwise residual of the stationary optimality system (same shape)."""
    return _residual_arrays(fld.values, fld.chain, fld.rates, fld.costs, fld.grid, weno_eps)


def _upwind_factorizer(chain: RegimeChain, rates, costs: CostSpec, grid: Grid, ergodic: bool):
    """Return factor(replenish), the sparse LU of the first-order upwind
    Jacobian J of the residual under that replenish set.

    J has delta + outflow on the diagonal, +-S_i / h upwind advection for
    k >= 1, -nu_ij regime switching and lam (row k - column of the last
    vertex) on the replenish set, with (i, k) at row i * n + k. Ergodic
    mode borders it with a column of ones (the cost rate) and a row that
    pins (regime 0, y = 1). Every row k < n - 1 holds a structural (k, last
    vertex) entry, so the pattern is built once and each factorization
    rewrites only the data array.
    """
    count, n = rates.size, grid.n
    size = count * n
    idx = np.arange(size).reshape(count, n)
    switching = chain.rates
    src, dst = np.nonzero(switching)
    diag = costs.delta + np.repeat(chain.out_rates, n)
    diag.reshape(count, n)[:, 1:] += rates[:, None] / grid.h
    blocks = [
        (idx, idx, diag),
        (idx[:, :-1], np.repeat(idx[:, -1], n - 1), np.zeros(count * (n - 1))),
        (idx[:, 1:], idx[:, :-1], -np.repeat(rates / grid.h, n - 1)),
        (idx[src], idx[dst], -np.repeat(switching[src, dst], n)),
    ]
    if ergodic:
        blocks += [(np.arange(size), np.full(size, size), np.ones(size)),
                   (np.array([size]), idx[:1, -1], np.ones(1))]
    rows, cols, base = (np.concatenate([np.ravel(b[part]) for b in blocks]) for part in range(3))
    matrix = sp.csc_matrix((np.arange(1.0, rows.size + 1), (rows, cols)),
                           shape=(size + ergodic, size + ergodic))
    order = matrix.data.astype(np.intp) - 1  # csc slot -> entry index
    last = slice(size, size + count * (n - 1))

    def factor(replenish: NDArray[np.bool_]):
        values = base.copy()
        values[:size] += costs.lam * replenish.ravel()
        values[last] = -costs.lam * replenish[:, :-1].ravel()
        matrix.data = values[order]
        try:
            return splu(matrix)
        except RuntimeError as exc:  # exactly singular: no unique fixed point
            raise StructureError(f"steady-state system is singular: {exc}") from exc

    return factor


# Each update is damped by this factor: undamped, the iteration can lock
# into a two-cycle between WENO3 weight configurations.
_RELAXATION = 0.9
# A solve whose residual has not halved within this many iterations has
# stalled. Slow phases of over a hundred iterations occur on coarse grids
# before the iteration finds the fixed point.
_STALL_WINDOW = 500


def solve_stationary(
    chain: RegimeChain,
    rates,
    costs: CostSpec,
    grid: Grid,
    config: SolverConfig | None = None,
) -> SolveResult:
    """Solve residual(v) = 0 by defect correction from v = 0.

    Each iteration sets v <- v - 0.9 J^-1 residual(v), where J, the
    first-order upwind Jacobian under the current replenish set, is a
    weakly chained diagonally dominant M-matrix as in Howard's policy
    iteration. The WENO3 residual is unchanged, so the fixed point is that
    of the third-order scheme. J is refactored only when the replenish set
    changes.

    Discounted mode (delta > 0) converges once max |residual| <= tol.
    Ergodic mode (delta = 0) solves residual(w) + u = 0 for the cost rate u
    and the relative value w, pinned to 0 at (regime 0, y = 1); it needs a
    chain with one closed class. A residual that does not halve within
    `_STALL_WINDOW` iterations (round-off above tol, say) ends the solve
    with `converged = False`.
    """
    config = config or SolverConfig()
    rates = check_rates(rates, chain.count)
    ergodic = costs.delta == 0.0
    if ergodic and len(closed := chain.closed_classes()) > 1:
        raise StructureError(f"the ergodic solve needs one closed class of regimes, found {closed}")

    factor = _upwind_factorizer(chain, rates, costs, grid, ergodic)

    v = np.zeros((chain.count, grid.n))
    cost_rate = min_seen = max_seen = step_change = 0.0
    replenish = np.zeros(v.shape, dtype=bool)
    history: list[float] = []
    changes: list[int] = []
    lu = None
    while True:
        res = _residual_arrays(v, chain, rates, costs, grid, config.weno_eps) + cost_rate
        now = _intervention_gap(v, costs, grid) > 0.0
        changes.append(int(np.count_nonzero(now != replenish)))
        replenish = now
        history.append(float(np.max(np.abs(res))))
        converged = history[-1] <= config.tol
        earlier_best = min(history[:-_STALL_WINDOW], default=math.inf)
        if converged or not history[-1] <= 0.5 * earlier_best:  # stalled or not finite
            break
        if lu is None or changes[-1]:
            lu = factor(replenish)
        # in ergodic mode the pin row's residual is w(0, 1) = 0, kept by every update
        step = _RELAXATION * lu.solve(np.append(res.ravel(), [0.0] if ergodic else []))
        v -= step[:v.size].reshape(v.shape)
        if ergodic:
            cost_rate -= step[-1]
        step_change = float(np.max(np.abs(step[:v.size])))
        min_seen = min(min_seen, float(v.min()))
        max_seen = max(max_seen, float(v.max()))

    fld = ValueField(values=v, grid=grid, chain=chain, rates=rates, costs=costs)
    notes: tuple[str, ...] = ()
    # monotonicity in storage is expected but not guaranteed by the scheme;
    # flag violations instead of failing
    worst_rise = float(np.max(np.diff(v, axis=1), initial=0.0))
    if worst_rise > 1e-8:
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
        cost_rate=float(cost_rate) if ergodic else None,
        notes=notes,
    )


def extract_policy(fld: ValueField) -> ThresholdPolicy:
    """Free boundary per regime from the converged field.

    The replenishing vertices are `ValueField.replenish`. The boundary is
    the midpoint between the last replenishing and first idle vertex, or 0
    when no vertex replenishes. A replenish set that is not a contiguous
    run starting at y = 0 breaks the threshold form and is an error.
    """
    y = fld.grid.vertices
    replenish = fld.replenish()

    boundaries = np.zeros(fld.chain.count)
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
        boundaries[i] = 1.0 if last == fld.grid.n - 1 else 0.5 * (y[last] + y[last + 1])
    return ThresholdPolicy(boundaries=boundaries)


def single_regime_chain(discharge: float = 1.0) -> RegimeChain:
    """One-regime chain carrier for scalar problems."""
    return RegimeChain(
        discharges=np.array([discharge]), rates=np.zeros((1, 1))
    )


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
    resolutions = [int(n) for n in resolutions]
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
    """Columns regime,y,phi,action with action in {replenish, none}."""
    y = fld.grid.vertices
    replenish = fld.replenish()
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["regime", "y", "phi", "action"])
        for i in range(fld.chain.count):
            for k in range(fld.grid.n):
                out.writerow([
                    i,
                    f"{y[k]:.12g}",
                    f"{fld.values[i, k]:.15g}",
                    "replenish" if replenish[i, k] else "none",
                ])


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
    rows: list[tuple[int, float]] = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "regime" not in reader.fieldnames \
                or "Ybar" not in reader.fieldnames:
            raise InputError(f"{path}: expected header regime,q,Ybar")
        for row in reader:
            rows.append((int(row["regime"]), float(row["Ybar"])))
    if not rows:
        raise InputError(f"{path}: no policy rows")
    rows.sort()
    if [r for r, _ in rows] != list(range(len(rows))):
        raise InputError(f"{path}: regime indices must be 0..{len(rows) - 1}")
    return ThresholdPolicy(boundaries=np.array([b for _, b in rows]))

"""The benchmark's workloads: seeded inputs, timed steps and correctness checks.

Each workload drives sedopt through its public entry points: `sedopt.cli.main`
where the command line can take the input, the library API where it cannot
(a raw drain rate S). Library functions are looked up on their module at
call time (`pde.solve_stationary`, never a name imported from it), so the
tracer's wrappers see the benchmark's own calls as well as sedopt's.

Checks reuse the acceptance tolerances of `tests/test_acceptance.py`
unchanged. Every CLI command and every check is one operation; a command
that exits non-zero and a check that fails or cannot be evaluated each
count as one failed operation.
"""

from __future__ import annotations

import csv
import json
import statistics
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

from sedopt import analytic, cli, mc, pde, regime, transport

# Table 1 of the paper, as pinned by acceptance criterion 2
TABLE1_LINF = {51: 1.98e-2, 101: 5.58e-3, 201: 1.52e-3, 401: 4.00e-4, 801: 1.10e-4}
TABLE1_L1 = {51: 5.59e-3, 101: 1.45e-3, 201: 3.80e-4, 401: 9.59e-5, 801: 2.40e-5}
EXACT_YBAR = 0.615195  # six-digit reference threshold (criterion 3)


class Bench:
    """One repetition of a workload: step intervals, CLI commands and checks."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.steps: dict[str, list[tuple[float, float]]] = {}  # (start, end) per run
        self.checks: list[tuple[str, bool, str]] = []
        self.commands = 0
        self.failed_commands = 0
        self.error: str | None = None  # traceback, if the repetition raised
        self.probe = None  # the SpeedProbe of an untraced repetition

    @contextmanager
    def step(self, name: str):
        start = perf_counter()
        try:
            with self.tracer.span(f"step.{name}"):
                yield
        finally:
            self.steps.setdefault(name, []).append((start, perf_counter()))

    @property
    def interval(self) -> tuple[float, float]:
        """The repetition's root span."""
        return self.tracer.starts[0], self.tracer.ends[0]

    def cli(self, *argv) -> bool:
        args = [str(a) for a in argv]
        self.commands += 1
        with self.tracer.span(f"cli.main.{args[0]}"):
            status = cli.main(args)
        if status != 0:
            self.failed_commands += 1
        return status == 0

    def check(self, name: str, evaluate) -> None:
        """Record `evaluate() -> (ok, detail)`; an exception is a failure."""
        try:
            ok, detail = evaluate()
        except Exception as exc:  # the check could not be evaluated: it failed
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        self.checks.append((name, bool(ok), detail))

    @property
    def attempted(self) -> int:
        return self.commands + len(self.checks)

    @property
    def failed(self) -> int:
        return self.failed_commands + sum(not ok for _, ok, _ in self.checks)


def _costs_args(costs: pde.CostSpec) -> list[str]:
    return ["--delta", repr(costs.delta), "--c", repr(costs.c), "--d", repr(costs.d),
            "--lambda", repr(costs.lam)]


def realistic_chain(rng: np.random.Generator, count: int = 43) -> regime.RegimeChain:
    """Dam-downstream chain: 2.5 m^3/s bins, nearest-neighbour switching.

    Up and down rates are drawn uniformly within 10% of 0.7 and 1.1 per day.
    """
    rates = np.zeros((count, count))
    low = np.arange(count - 1)
    rates[low, low + 1] = 0.7 * rng.uniform(0.9, 1.1, count - 1)
    rates[low + 1, low] = 1.1 * rng.uniform(0.9, 1.1, count - 1)
    return regime.RegimeChain(discharges=1.25 + 2.5 * np.arange(count), rates=rates)


def _scalar_costs(problem) -> pde.CostSpec:
    return pde.CostSpec(delta=problem.delta, c=problem.c, d=problem.d, lam=problem.lam)


class Table1:
    """Criterion 2's refinement study through `sedopt convergence`, then
    criterion 11's ergodic solve through `pde.solve_stationary`.

    The inputs are the packaged BENCHMARK problem; the seed changes nothing.
    """

    name = "table1"
    problem = analytic.BENCHMARK
    # criterion 11's ergodic instance
    ergodic_costs = pde.CostSpec(delta=0.0, c=0.2, d=0.3, lam=1.0 / 7.0)

    def __init__(self, seed: int, tiny: bool, outdir: Path):
        self.outdir = outdir
        if tiny:
            # same fixed point, reached with a larger stable step
            self.resolutions, self.dt, self.tol, self.ergodic_repeats = (51, 101), "0.05", 1e-8, 1
        else:
            self.resolutions, self.dt, self.tol, self.ergodic_repeats = (
                (51, 101, 201, 401, 801), "1/800", 1e-10, 5)
        self.cli_outdirs = [outdir / "convergence"]

    def _argv(self, t_end: str, outdir: Path) -> list:
        p = self.problem
        return [
            "convergence", "--S", repr(p.S), *_costs_args(_scalar_costs(p)),
            "--resolutions", ",".join(str(n) for n in self.resolutions),
            "--dt", self.dt, "--t-end", t_end, "--tol", repr(self.tol), "--outdir", outdir,
        ]

    def prepare(self) -> None:
        self.argv = self._argv("182.5", self.cli_outdirs[0])

    def warm_up(self, bench: Bench) -> None:
        bench.cli(*self._argv("0.1", self.outdir / "warm-up"))
        self._ergodic(t_end=0.1)

    def _ergodic(self, t_end: float) -> pde.SolveResult:
        return pde.solve_stationary(
            pde.single_regime_chain(), np.array([self.problem.S]), self.ergodic_costs,
            pde.Grid(401), pde.SolverConfig(t_end=t_end, tol=1e-12),
        )

    def run(self, bench: Bench) -> None:
        with bench.step("solve"):
            bench.cli(*self.argv)
        for _ in range(self.ergodic_repeats):
            with bench.step("verify"):
                ergodic = self._ergodic(t_end=90.0)
        with bench.step("check"):
            self._check(bench, ergodic)

    def _check(self, bench: Bench, ergodic: pde.SolveResult) -> None:
        with open(self.cli_outdirs[0] / "convergence.csv", newline="") as fh:
            rows = [{k: float(v) if v else None for k, v in row.items()}
                    for row in csv.DictReader(fh)]
        finest = rows[-1]
        self.linf_err, self.ybar_err = finest["linf_error"], finest["ybar_error"]
        u = analytic.ergodic_threshold(self.problem.S, self.ergodic_costs.c,
                                       self.ergodic_costs.d, self.ergodic_costs.lam).u
        self.cost_rate_rel_err = abs(ergodic.cost_rate - u) / u

        def within_3x():
            ratios = [r[col] / ref[int(r["n"])] for r in rows
                      for col, ref in (("linf_error", TABLE1_LINF), ("l1_error", TABLE1_L1))]
            ok = len(rows) == len(self.resolutions) and all(1 / 3 <= x <= 3 for x in ratios)
            return ok, f"error / Table 1 in [{min(ratios):.3f}, {max(ratios):.3f}]"

        def orders():
            rates = [r[col] for r in rows[1:] for col in ("linf_rate", "l1_rate")]
            return min(rates) >= 1.8, f"min observed order {min(rates):.3f}"

        def threshold():
            gaps = [(abs(r["ybar"] - EXACT_YBAR), 1.0 / (r["n"] - 1)) for r in rows]
            return all(g <= h for g, h in gaps), \
                f"max |ybar - {EXACT_YBAR}| / h = {max(g / h for g, h in gaps):.3f}"

        def converged():
            counts = bench.tracer.counts
            ok = counts["pde.discounted_solves"] == len(rows) and counts["pde.unconverged"] == 0
            return ok, (f"{counts['pde.discounted_solves']} discounted solves, "
                        f"{counts['pde.unconverged']} unconverged")

        bench.check("table1.errors_within_3x_of_table1", within_3x)
        bench.check("table1.orders_at_least_1.8", orders)
        bench.check("table1.threshold_within_h", threshold)
        bench.check("table1.discounted_solves_converged", converged)
        bench.check("table1.ergodic_rate_within_2pct", lambda: (
            self.cost_rate_rel_err <= 0.02,
            f"pde {ergodic.cost_rate:.6f} vs analytic {u:.6f} ({self.cost_rate_rel_err:.3%})"))

    def figures(self, steps: dict[str, float]) -> dict:
        return {
            "ergodic_s": (steps["verify"], "s"),
            "linf_err": (self.linf_err, "1"),
            "ybar_err": (self.ybar_err, "1"),
            "cost_rate_rel_err": (self.cost_rate_rel_err, "1"),
        }

    @property
    def err(self) -> float:
        return self.linf_err

    def residual_case(self):
        p = self.problem
        return pde.single_regime_chain(), np.array([p.S]), _scalar_costs(p), 801


class ScalarMC:
    """Criterion 6: Monte Carlo check of the closed-form threshold."""

    name = "scalar-mc"
    y0s = (0.0, 0.3, 1.0)
    shifts = (-0.15, 0.0, 0.15)
    horizon = 200.0
    problem = analytic.BENCHMARK

    def __init__(self, seed: int, tiny: bool, outdir: Path):
        self.seed = seed
        self.paths, self.gap_paths = (400, 200) if tiny else (3_000, 1_500)
        self.cli_outdirs: list[Path] = []

    def prepare(self) -> None:
        seeds = np.random.default_rng(self.seed).integers(0, 2**32, size=len(self.y0s) + 1)
        self.estimate_seeds = [int(s) for s in seeds[:-1]]
        self.gap_seed = int(seeds[-1])
        self.costs = _scalar_costs(self.problem)
        self.rates = np.array([self.problem.S])

    def warm_up(self, bench: Bench) -> None:
        policy = pde.ThresholdPolicy(boundaries=np.array([0.5]))
        mc.estimate_cost(pde.single_regime_chain(), self.rates, policy, self.costs,
                         0.3, self.horizon, 20, seed=0)
        mc.policy_gap_check(self.problem, self.shifts, horizon=self.horizon, n_paths=4, seed=0)

    def run(self, bench: Bench) -> None:
        with bench.step("solve"):
            sol = analytic.solve_smooth_pasting(self.problem)
            policy = pde.ThresholdPolicy(boundaries=np.array([sol.ybar]))
            estimates = [
                mc.estimate_cost(pde.single_regime_chain(), self.rates, policy, self.costs,
                                 y0, self.horizon, self.paths, seed=seed)
                for y0, seed in zip(self.y0s, self.estimate_seeds)
            ]
        with bench.step("verify"):
            gaps = mc.policy_gap_check(self.problem, self.shifts, horizon=self.horizon,
                                       n_paths=self.gap_paths, seed=self.gap_seed)
        with bench.step("check"):
            self._check(bench, sol, estimates, gaps)

    def _check(self, bench: Bench, sol, estimates, gaps) -> None:
        self.rel_se = max(est.stderr / abs(est.mean) for est in estimates)
        for y0, est in zip(self.y0s, estimates):
            target = float(analytic.evaluate_candidate(sol, y0))
            bench.check(f"scalar-mc.agrees_within_3se_y0={y0}", lambda est=est, target=target: (
                abs(est.mean - target) <= 3.0 * est.stderr,
                f"{est.mean:.5f} vs {target:.5f} ({abs(est.mean - target) / est.stderr:.2f} se)"))
        bench.check("scalar-mc.truncation_below_noise", lambda: (
            all(est.truncation_bound < est.stderr * 1e-3 for est in estimates),
            f"max tail bound / se = {max(e.truncation_bound / e.stderr for e in estimates):.1e}"))
        bench.check("scalar-mc.no_shift_wins", lambda: (
            all(row.gap >= -3.0 * row.stderr for row in gaps),
            ", ".join(f"shift {row.delta_shift:+.2f}: gap {row.gap / row.stderr:+.2f} se"
                      for row in gaps)))

    @property
    def total_paths(self) -> int:
        return len(self.y0s) * self.paths + len(self.shifts) * self.gap_paths

    def figures(self, steps: dict[str, float]) -> dict:
        return {"paths_per_s": (self.total_paths / (steps["solve"] + steps["verify"]), "1/s"),
                "max_rel_stderr": (self.rel_se, "1")}

    @property
    def err(self) -> float:
        return self.rel_se

    def residual_case(self):
        return pde.single_regime_chain(), self.rates, self.costs, 801


class Realistic43:
    """The paper's 43-regime chain: `sedopt solve`, then `sedopt simulate`
    of the extracted policy, both through the CLI and its files."""

    name = "realistic43"
    costs = pde.CostSpec(delta=0.2, c=0.02, d=0.01, lam=1.0 / 7.0)
    residual_ceiling = 1e-5  # the seed's explicit march stops near 2.5e-6 at n = 31

    def __init__(self, seed: int, tiny: bool, outdir: Path):
        self.seed = seed
        self.outdir = outdir
        self.n, self.paths = (7, 100) if tiny else (31, 2000)
        self.solve_dir, self.sim_dir = outdir / "solve", outdir / "simulate"
        self.cli_outdirs = [self.solve_dir, self.sim_dir]
        self.residual_max = self.mc_gap = float("nan")  # set by the checks

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.chain = realistic_chain(rng)
        sim_seed = int(rng.integers(0, 2**32))
        self.chain_path = self.outdir / "chain.json"
        self.chain.to_json(self.chain_path)
        self.rates = transport.rates_for_chain(self.chain, transport.SedimentProperties())
        self.solve_argv = self._solve_argv(self.n, "90", self.solve_dir)
        self.simulate_argv = self._simulate_argv(self.solve_dir, "200", self.paths, sim_seed,
                                                 self.sim_dir)

    def _solve_argv(self, n, t_end: str, outdir: Path) -> list:
        return ["solve", "--chain", self.chain_path, *_costs_args(self.costs),
                "--n", n, "--t-end", t_end, "--tol", "1e-9", "--outdir", outdir]

    def _simulate_argv(self, solve_dir: Path, horizon: str, paths, seed, outdir: Path) -> list:
        return ["simulate", "--chain", self.chain_path, *_costs_args(self.costs),
                "--policy", solve_dir / "free_boundary.csv", "--y0", "1",
                "--initial-regime", "0", "--horizon", horizon, "--paths", paths,
                "--seed", seed, "--outdir", outdir]

    def warm_up(self, bench: Bench) -> None:
        warm = self.outdir / "warm-up"
        bench.cli(*self._solve_argv(5, "0.001", warm))
        bench.cli(*self._simulate_argv(warm, "1", 2, 0, warm))

    def run(self, bench: Bench) -> None:
        with bench.step("solve"):
            bench.cli(*self.solve_argv)
        with bench.step("verify"):
            bench.cli(*self.simulate_argv)
        with bench.step("check"):
            self._check(bench)

    def _read_field(self) -> np.ndarray:
        with open(self.solve_dir / "value_field.csv", newline="") as fh:
            phi = [float(row["phi"]) for row in csv.DictReader(fh)]
        return np.array(phi).reshape(self.chain.count, self.n)

    def _check(self, bench: Bench) -> None:
        def converged():
            summary = json.loads((self.solve_dir / "solve_result.json").read_text())
            unconverged = bench.tracer.counts["pde.unconverged"]
            return summary["converged"] and unconverged == 0, \
                f"{summary['iterations']} iterations, step change {summary['step_change']:.2e}"

        def policy():
            b = pde.read_free_boundary_csv(self.solve_dir / "free_boundary.csv").boundaries
            return b.size == self.chain.count, f"{b.size} thresholds in [{b.min():.3f}, {b.max():.3f}]"

        values = None

        def residual():
            nonlocal values
            values = self._read_field()
            fld = pde.ValueField(values=values, grid=pde.Grid(self.n), chain=self.chain,
                                 rates=self.rates, costs=self.costs)
            self.residual_max = float(np.max(np.abs(pde.residual(fld))))
            return self.residual_max <= self.residual_ceiling, \
                f"max |residual| {self.residual_max:.3e} <= {self.residual_ceiling:.0e}"

        def agreement():
            est = json.loads((self.sim_dir / "cost_estimate.json").read_text())
            field = values[0, -1]
            # 3 se of noise plus the field's change over one cell: an O(h) allowance
            bound = 3.0 * est["stderr"] + abs(values[0, -1] - values[0, -2])
            self.mc_gap = abs(est["mean"] - field)
            return self.mc_gap <= bound, \
                f"MC {est['mean']:.5f} +- {est['stderr']:.5f} vs field {field:.5f}, " \
                f"gap {self.mc_gap:.5f} <= {bound:.5f}"

        bench.check("realistic43.solve_converged", converged)
        bench.check("realistic43.policy_extracted", policy)
        bench.check("realistic43.residual_under_ceiling", residual)
        bench.check("realistic43.mc_agrees_with_value_field", agreement)

    def figures(self, steps: dict[str, float]) -> dict:
        return {"paths_per_s": (self.paths / steps["verify"], "1/s"),
                "residual_max": (self.residual_max, "1"),
                "mc_field_gap": (self.mc_gap, "1")}

    @property
    def err(self) -> float:
        return self.residual_max

    def residual_case(self):
        return self.chain, self.rates, self.costs, self.n


WORKLOADS = {w.name: w for w in (Table1, ScalarMC, Realistic43)}


def residual_us(chain, rates, costs, n: int, batches: int = 7, batch_s: float = 0.02) -> float:
    """Median microseconds per `pde.residual` call on a smooth field."""
    grid = pde.Grid(n)
    values = np.outer(np.linspace(1.0, 2.0, chain.count), 1.0 + np.cos(grid.vertices))
    fld = pde.ValueField(values=values, grid=grid, chain=chain, rates=rates, costs=costs)
    calls, start = 0, perf_counter()
    while perf_counter() - start < batch_s:
        pde.residual(fld)
        calls += 1
    samples = []
    for _ in range(batches):
        start = perf_counter()
        for _ in range(calls):
            pde.residual(fld)
        samples.append((perf_counter() - start) / calls)
    return statistics.median(samples) * 1e6

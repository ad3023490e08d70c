"""Command-line interface: identify, solve, exact, simulate, convergence.

Every run resolves its configuration from three layers (built-in defaults,
then an optional JSON config file, then explicit flags), writes all outputs
atomically, and echoes the fully resolved configuration as JSON next to the
outputs so any run can be reproduced from its own echo.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import analytic, mc, pde, regime, transport
from .errors import InputError, SedoptError

__all__ = ["RunConfig", "run", "default_realistic_config", "main"]

COMMANDS = ("identify", "solve", "exact", "simulate", "convergence")


@dataclass
class RunConfig:
    """Resolved settings for one CLI run."""

    command: str
    # input files
    series: str | None = None
    chain: str | None = None
    props: str | None = None
    policy: str | None = None
    outdir: str = "."
    # identification
    width: float = 2.5
    count: int = 43
    # costs / scalar problem
    S: float | None = None
    delta: float = 0.2
    c: float = 0.02
    d: float = 0.01
    lam: float = 1.0 / 7.0
    lam_upper: float | None = None
    # solver
    n: int = 301
    dt: float | None = None  # dt and t_end are accepted and ignored
    t_end: float = 90.0
    tol: float = 1e-9
    resolutions: list[int] = field(default_factory=lambda: [51, 101, 201, 401, 801])
    samples: int = 0
    # simulation
    y0: float = 1.0
    horizon: float = 200.0
    paths: int = 10000
    seed: int = 0
    initial_regime: int = 0
    per_path: bool = False

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise InputError(f"unknown command {self.command!r}")

    def sediment_properties(self) -> transport.SedimentProperties:
        if self.props is None:
            return transport.SedimentProperties()
        return transport.SedimentProperties.from_json(self.props)

    def costs(self) -> analytic.CostSpec:
        """The cost data; a `ScalarProblem` when a transport rate S is set."""
        costs = {"delta": self.delta, "c": self.c, "d": self.d, "lam": self.lam}
        if self.S is None:
            return analytic.CostSpec(**costs)
        return analytic.ScalarProblem(S=self.S, **costs)

    def solver_config(self) -> pde.SolverConfig:
        return pde.SolverConfig(dt=self.dt, t_end=self.t_end, tol=self.tol)

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=1, sort_keys=True)


def default_realistic_config() -> RunConfig:
    """The realistic dam-downstream setting, which the defaults encode:
    weekly observations on average, daily decision time-scale, 301 vertices."""
    return RunConfig(command="solve")


def parse_rate(text: str) -> float:
    """Rates may be fractions like '1/7' to avoid decimal drift."""
    if "/" in text:
        num, _, den = text.partition("/")
        return float(num) / float(den)
    return float(text)


def parse_resolutions(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad resolution list {text!r}") from exc


def _write_atomic(path: Path, writer) -> None:
    """Write via a temp file in the same directory, then rename."""
    tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
    try:
        writer(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_text(path: Path, text: str) -> None:
    _write_atomic(path, lambda p: p.write_text(text))


def _echo_config(config: RunConfig, outdir: Path) -> None:
    _write_text(outdir / "run_config.json", config.to_json() + "\n")


def _require(config: RunConfig, *names: str) -> None:
    for name in names:
        if getattr(config, name) is None:
            raise InputError(f"{config.command}: --{name.replace('_', '-')} is required")


def _run_identify(config: RunConfig, outdir: Path) -> None:
    _require(config, "series")
    series = regime.DischargeSeries.from_csv(config.series)
    chain = regime.estimate_chain(series, width=config.width, count=config.count)
    _write_atomic(outdir / "chain.json", chain.to_json)


def _load_chain_and_rates(config: RunConfig):
    _require(config, "chain")
    chain = regime.RegimeChain.from_json(config.chain)
    props = config.sediment_properties()
    return chain, transport.rates_for_chain(chain, props)


def _run_solve(config: RunConfig, outdir: Path) -> None:
    chain, rates = _load_chain_and_rates(config)
    costs = config.costs()
    grid = pde.Grid(config.n)
    solver = config.solver_config()
    if config.lam_upper is not None:
        result = pde.solve_with_ambiguity(
            chain, rates, costs, (config.lam, config.lam_upper), grid, solver
        )
    else:
        result = pde.solve_stationary(chain, rates, costs, grid, solver)
    summary = {
        "step_change": result.step_change,
        "iterations": result.iterations,
        "converged": result.converged,
        "min_seen": result.min_seen,
        "max_seen": result.max_seen,
        "cost_rate": result.cost_rate,
        "residual_history": list(result.residual_history),
        "policy_changes": list(result.policy_changes),
        "notes": list(result.notes),
    }
    _write_text(outdir / "solve_result.json", json.dumps(summary, indent=1) + "\n")
    if not result.converged:
        # a later `simulate --policy` must not pick up an earlier run's policy
        for stale in ("value_field.csv", "free_boundary.csv"):
            (outdir / stale).unlink(missing_ok=True)
    result.check_converged()
    policy = pde.extract_policy(result.field)

    _write_atomic(outdir / "value_field.csv",
                  lambda p: pde.write_value_field_csv(result.field, p))
    _write_atomic(outdir / "free_boundary.csv",
                  lambda p: pde.write_free_boundary_csv(chain, policy, p))


def _run_exact(config: RunConfig, outdir: Path) -> None:
    _require(config, "S")
    problem = config.costs()
    if problem.delta > 0:
        sol = analytic.solve_smooth_pasting(problem)
        record = {
            "ybar": sol.ybar, "psi1": sol.psi1,
            "a": sol.a, "b": sol.b, "f": sol.f,
        }
        if (problem.c + problem.d) * problem.S < 1.0:
            record["u"] = analytic.ergodic_threshold(
                problem.S, problem.c, problem.d, problem.lam
            ).u
        if config.samples > 0:
            ys = np.linspace(0.0, 1.0, config.samples)
            vals = analytic.evaluate_candidate(sol, ys)
            lines = ["y,psi"] + [f"{y:.12g},{v:.15g}" for y, v in zip(ys, vals)]
            _write_text(outdir / "candidate_values.csv", "\n".join(lines) + "\n")
    else:
        erg = analytic.ergodic_threshold(problem.S, problem.c, problem.d, problem.lam)
        record = {"ybar": erg.ybar, "u": erg.u, "degenerate": erg.degenerate}
    _write_text(outdir / "exact.json", json.dumps(record, indent=1) + "\n")


def _run_simulate(config: RunConfig, outdir: Path) -> None:
    chain, rates = _load_chain_and_rates(config)
    policy = pde.read_free_boundary_csv(config.policy) if config.policy else None
    est = mc.estimate_cost(
        chain, rates, policy, config.costs(),
        y0=config.y0, horizon=config.horizon, n_paths=config.paths,
        seed=config.seed, initial_regime=config.initial_regime,
        keep_samples=config.per_path,
    )
    record = {
        "mean": est.mean,
        "stderr": est.stderr,
        "n_paths": est.n_paths,
        "horizon": est.horizon,
        "truncation_bound": est.truncation_bound,
        "events_per_path": est.events_per_path,
        "replenishments_per_path": est.replenishments_per_path,
        "depleted_fraction": est.depleted_fraction,
    }
    _write_text(outdir / "cost_estimate.json", json.dumps(record, indent=1) + "\n")
    if config.per_path:
        lines = ["path,cost"] + [
            f"{k},{x:.15g}" for k, x in enumerate(est.samples)
        ]
        _write_text(outdir / "paths.csv", "\n".join(lines) + "\n")


def _run_convergence(config: RunConfig, outdir: Path) -> None:
    _require(config, "S")
    rows = pde.convergence_study(config.costs(), config.resolutions, config.solver_config())
    lines = ["n,linf_error,l1_error,linf_rate,l1_rate,ybar,ybar_error"]
    for r in rows:
        lines.append(
            f"{r.n},{r.linf_error:.6e},{r.l1_error:.6e},"
            f"{'' if r.linf_rate is None else f'{r.linf_rate:.3f}'},"
            f"{'' if r.l1_rate is None else f'{r.l1_rate:.3f}'},"
            f"{r.ybar:.12g},{r.ybar_error:.6e}"
        )
    _write_text(outdir / "convergence.csv", "\n".join(lines) + "\n")


_RUNNERS = {
    "identify": _run_identify,
    "solve": _run_solve,
    "exact": _run_exact,
    "simulate": _run_simulate,
    "convergence": _run_convergence,
}


def run(config: RunConfig) -> int:
    """Dispatch a resolved configuration; returns the exit status."""
    outdir = Path(config.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    # echo first, so a failed run never leaves an earlier run's echo behind
    _echo_config(config, outdir)
    _RUNNERS[config.command](config, outdir)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="sedopt",
        description="Optimal sediment replenishment under random observation",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON file with RunConfig fields")
        p.add_argument("--outdir", default=None)

    def costs(p, with_s):
        if with_s:
            p.add_argument("--S", type=parse_rate, default=None,
                           help="transport rate, 1/day")
        p.add_argument("--delta", type=parse_rate, default=None)
        p.add_argument("--c", type=parse_rate, default=None)
        p.add_argument("--d", type=parse_rate, default=None)
        p.add_argument("--lambda", dest="lam", type=parse_rate, default=None,
                       help="observation intensity, 1/day; fractions like 1/7 work")

    def solver(p):
        p.add_argument("--n", type=int, default=None, help="grid vertex count")
        p.add_argument("--dt", type=parse_rate, default=None, help="ignored")
        p.add_argument("--t-end", dest="t_end", type=parse_rate, default=None, help="ignored")
        p.add_argument("--tol", type=float, default=None, help="bound on max |residual|")

    p = sub.add_parser("identify", help="estimate a regime chain from a discharge CSV")
    common(p)
    p.add_argument("--series", default=None)
    p.add_argument("--width", type=parse_rate, default=None)
    p.add_argument("--count", type=int, default=None)

    p = sub.add_parser("solve", help="solve the stationary system, extract the policy")
    common(p)
    p.add_argument("--chain", default=None)
    p.add_argument("--props", default=None)
    costs(p, with_s=False)
    p.add_argument("--lambda-upper", dest="lam_upper", type=parse_rate, default=None,
                   help="upper intensity of an ambiguity interval")
    solver(p)

    p = sub.add_parser("exact", help="closed-form single-regime solution")
    common(p)
    costs(p, with_s=True)
    p.add_argument("--samples", type=int, default=None,
                   help="also sample the candidate on this many vertices")

    p = sub.add_parser("simulate", help="Monte Carlo cost of a threshold policy")
    common(p)
    p.add_argument("--chain", default=None)
    p.add_argument("--props", default=None)
    p.add_argument("--policy", default=None,
                   help="free_boundary.csv; omit for the null policy")
    costs(p, with_s=False)
    p.add_argument("--y0", type=parse_rate, default=None)
    p.add_argument("--horizon", type=parse_rate, default=None)
    p.add_argument("--paths", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--initial-regime", dest="initial_regime", type=int, default=None)
    p.add_argument("--per-path", dest="per_path", action="store_const", const=True,
                   default=None, help="also write per-path costs")

    p = sub.add_parser("convergence", help="refinement study against the closed form")
    common(p)
    costs(p, with_s=True)
    p.add_argument("--resolutions", type=parse_resolutions, default=None)
    solver(p)
    return top


def resolve_config(argv) -> RunConfig:
    """Defaults < config file < explicit flags."""
    ns = vars(_build_parser().parse_args(argv))
    command = ns.pop("command")
    config_path = ns.pop("config", None)

    merged: dict = {}
    if config_path is not None:
        try:
            loaded = json.loads(Path(config_path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigFileError(f"cannot read config {config_path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigFileError(f"config {config_path} must hold a JSON object")
        file_command = loaded.pop("command", None)
        if file_command is not None and file_command != command:
            raise ConfigFileError(
                f"config file is for {file_command!r}, invoked as {command!r}"
            )
        hints = typing.get_type_hints(RunConfig)
        unknown = set(loaded) - set(hints)
        if unknown:
            raise ConfigFileError(f"unknown config keys {sorted(unknown)}")
        for name, value in loaded.items():
            if not _fits(hints[name], value):
                raise ConfigFileError(f"config key {name!r} has the wrong type: {value!r}")
        merged.update(loaded)
    merged.update({k: v for k, v in ns.items() if v is not None})
    return RunConfig(command=command, **merged)


def _fits(hint, value) -> bool:
    """Whether a JSON value has a RunConfig field's type; ints fit floats."""
    if isinstance(hint, types.UnionType):  # X | None
        return any(_fits(option, value) for option in typing.get_args(hint))
    if typing.get_origin(hint) is list:
        return isinstance(value, list) and all(_fits(typing.get_args(hint)[0], v) for v in value)
    if isinstance(value, bool) or hint is type(None):  # bools are ints to isinstance
        return hint is type(value)
    return isinstance(value, (int, float) if hint is float else hint)


class ConfigFileError(Exception):
    """Configuration could not be parsed; maps to exit status 2."""


def main(argv=None) -> int:
    try:
        config = resolve_config(argv if argv is not None else sys.argv[1:])
    except ConfigFileError as exc:
        print(f"sedopt: config error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(config)
    except (SedoptError, OSError) as exc:
        print(f"sedopt: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

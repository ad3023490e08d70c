"""Command-line interface: identify, solve, exact, simulate, convergence.

Every run resolves its configuration from three layers (built-in defaults,
then an optional JSON config file, then explicit flags), writes all outputs
atomically, and echoes the fully resolved configuration as JSON next to the
outputs so any run can be reproduced from its own echo.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import types
import typing
from collections import namedtuple
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import analytic, mc, pde, regime, transport
from .errors import InputError, SedoptError

__all__ = ["RunConfig", "run", "default_realistic_config", "main"]


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
    dt: float | None = None  # dt and t_end are accepted and read by nothing
    t_end: float = 90.0
    tol: float = pde.SolverConfig.tol
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
        if self.command not in _COMMAND_TABLE:
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

    def to_json(self, path: str | Path) -> None:
        regime.write_json_fields(path, self)


def default_realistic_config() -> RunConfig:
    """The realistic dam-downstream setting, which the defaults encode:
    weekly observations on average, daily decision time-scale, 301 vertices."""
    return RunConfig(command="solve")


def parse_rate(text: str) -> float:
    """Rates may be fractions like '1/7' to avoid decimal drift."""
    if "/" in text:
        num, _, den = text.partition("/")
        try:
            return float(num) / float(den)
        except ZeroDivisionError:
            raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None
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


def _run_identify(config: RunConfig):
    series = regime.DischargeSeries.from_csv(config.series)
    chain = regime.estimate_chain(series, width=config.width, count=config.count)
    yield "chain.json", chain.to_json


def _load_chain_and_rates(config: RunConfig):
    chain = regime.RegimeChain.from_json(config.chain)
    props = config.sediment_properties()
    return chain, transport.rates_for_chain(chain, props)


def _run_solve(config: RunConfig):
    chain, rates = _load_chain_and_rates(config)
    costs = config.costs()
    grid = pde.Grid(config.n)
    solver = pde.SolverConfig(tol=config.tol)
    if config.lam_upper is not None:
        result = pde.solve_with_ambiguity(
            chain, rates, costs, (config.lam, config.lam_upper), grid, solver
        )
    else:
        result = pde.solve_stationary(chain, rates, costs, grid, solver)
    yield "solve_result.json", lambda p: regime.write_json_fields(p, result, drop=("field",))
    result.check_converged()
    policy = pde.extract_policy(result.field)
    yield "value_field.csv", lambda p: pde.write_value_field_csv(result.field, p)
    yield "free_boundary.csv", lambda p: pde.write_free_boundary_csv(chain, policy, p)


def _run_exact(config: RunConfig):
    problem = config.costs()
    if config.samples < 0:
        raise InputError(f"--samples must be >= 0, got {config.samples}")
    if config.samples and not problem.delta > 0:
        raise InputError("--samples needs --delta > 0: the ergodic case has no "
                         "candidate value function")
    extra = {}
    if problem.delta > 0:
        sol = analytic.solve_smooth_pasting(problem)
        if (problem.c + problem.d) * problem.S < 1.0:
            extra["u"] = analytic.ergodic_threshold(
                problem.S, problem.c, problem.d, problem.lam
            ).u
    else:
        sol = analytic.ergodic_threshold(problem.S, problem.c, problem.d, problem.lam)
    yield "exact.json", lambda p: regime.write_json_fields(p, sol, drop=("problem",), **extra)
    if config.samples > 0:
        ys = np.linspace(0.0, 1.0, config.samples)
        vals = analytic.evaluate_candidate(sol, ys)
        lines = ["y,psi"] + [f"{y:.12g},{v:.15g}" for y, v in zip(ys, vals)]
        yield "candidate_values.csv", lambda p: p.write_text("\n".join(lines) + "\n")


def _run_simulate(config: RunConfig):
    chain, rates = _load_chain_and_rates(config)
    policy = pde.read_free_boundary_csv(config.policy) if config.policy else None
    if policy is not None and policy.boundaries.size != chain.count:
        raise InputError(f"{config.policy}: {policy.boundaries.size} thresholds "
                         f"for a chain of {chain.count} regimes")
    est = mc.estimate_cost(
        chain, rates, policy, config.costs(),
        y0=config.y0, horizon=config.horizon, n_paths=config.paths,
        seed=config.seed, initial_regime=config.initial_regime,
    )
    yield "cost_estimate.json", lambda p: regime.write_json_fields(p, est, drop=("samples",))
    if config.per_path:
        lines = ["path,cost"] + [
            f"{k},{x:.15g}" for k, x in enumerate(est.samples)
        ]
        yield "paths.csv", lambda p: p.write_text("\n".join(lines) + "\n")


def _run_convergence(config: RunConfig):
    rows = pde.convergence_study(config.costs(), config.resolutions,
                                 pde.SolverConfig(tol=config.tol))
    lines = ["n,linf_error,l1_error,linf_rate,l1_rate,ybar,ybar_error"]
    for r in rows:
        lines.append(
            f"{r.n},{r.linf_error:.6e},{r.l1_error:.6e},"
            f"{'' if r.linf_rate is None else f'{r.linf_rate:.3f}'},"
            f"{'' if r.l1_rate is None else f'{r.l1_rate:.3f}'},"
            f"{r.ybar:.12g},{r.ybar_error:.6e}"
        )
    yield "convergence.csv", lambda p: p.write_text("\n".join(lines) + "\n")


# a subcommand's runner, help line, the RunConfig fields it requires, the
# other fields it takes (each field is a flag) and the files it may write
_Command = namedtuple("_Command", "runner help required takes outputs")
_COSTS = ("delta", "c", "d", "lam")
_SOLVER = ("dt", "t_end", "tol")

_COMMAND_TABLE = {
    "identify": _Command(_run_identify, "estimate a regime chain from a discharge CSV",
                         ("series",), ("width", "count"), ("chain.json",)),
    "solve": _Command(_run_solve, "solve the stationary system, extract the policy",
                      ("chain",), ("props", *_COSTS, "lam_upper", "n", *_SOLVER),
                      ("solve_result.json", "value_field.csv", "free_boundary.csv")),
    "exact": _Command(_run_exact, "closed-form single-regime solution",
                      ("S",), (*_COSTS, "samples"), ("exact.json", "candidate_values.csv")),
    "simulate": _Command(_run_simulate, "Monte Carlo cost of a threshold policy",
                         ("chain",), ("props", "policy", *_COSTS, "y0", "horizon", "paths",
                                      "seed", "initial_regime", "per_path"),
                         ("cost_estimate.json", "paths.csv")),
    "convergence": _Command(_run_convergence, "refinement study against the closed form",
                            ("S",), (*_COSTS, "resolutions", *_SOLVER), ("convergence.csv",)),
}

_ALIASES = {"lam": "--lambda", "lam_upper": "--lambda-upper"}
_FLAG_HELP = {
    "S": "transport rate, 1/day",
    "lam": "observation intensity, 1/day; fractions like 1/7 work",
    "lam_upper": "upper intensity of an ambiguity interval",
    "n": "grid vertex count",
    "dt": "ignored",
    "t_end": "ignored",
    "tol": "bound on max |residual|",
    "samples": "also sample the candidate on this many vertices",
    "policy": "free_boundary.csv; omit for the null policy",
    "per_path": "also write per-path costs",
}


def _flag(name: str) -> str:
    """The flag of a RunConfig field: --<name>, with - for _."""
    return _ALIASES.get(name, "--" + name.replace("_", "-"))


def _flag_options(hint) -> dict:
    """argparse options for a RunConfig field annotated `hint`."""
    if isinstance(hint, types.UnionType):  # X | None
        hint = next(a for a in typing.get_args(hint) if a is not type(None))
    if hint is bool:
        return {"action": "store_const", "const": True}
    return {"type": {float: parse_rate, int: int, str: str, list[int]: parse_resolutions}[hint]}


def run(config: RunConfig) -> int:
    """Dispatch a resolved configuration; returns the exit status.

    Only this writes into the outdir: the echo first, then, once every file
    the command may write is removed, the files its runner yields. So an
    outdir never mixes two runs of one command.
    """
    outdir = Path(config.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    # echo first, so a failed run never leaves an earlier run's echo behind
    _write_atomic(outdir / "run_config.json", config.to_json)
    command = _COMMAND_TABLE[config.command]
    for name in command.outputs:
        (outdir / name).unlink(missing_ok=True)
    for name in command.required:
        if getattr(config, name) is None:
            raise InputError(f"{config.command}: {_flag(name)} is required")
    for name, writer in command.runner(config):
        _write_atomic(outdir / name, writer)
    return 0


@functools.cache  # one parse leaves the parser as it was, so every call reuses it
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="sedopt",
        description="Optimal sediment replenishment under random observation",
    )
    sub = top.add_subparsers(dest="command", required=True)
    hints = regime.field_hints(RunConfig)  # what config files are checked against too
    for command, spec in _COMMAND_TABLE.items():
        p = sub.add_parser(command, help=spec.help)
        p.add_argument("--config", help="JSON file with RunConfig fields")
        for name in ("outdir", *spec.required, *spec.takes):
            p.add_argument(_flag(name), dest=name, default=None, help=_FLAG_HELP.get(name),
                           **_flag_options(hints[name]))
    return top


def resolve_config(argv) -> RunConfig:
    """Defaults < config file < explicit flags."""
    ns = vars(_build_parser().parse_args(argv))
    command = ns.pop("command")
    config_path = ns.pop("config", None)

    merged: dict = {}
    if config_path is not None:
        try:
            merged = regime.read_json_fields(config_path, RunConfig)
        except InputError as exc:
            raise ConfigFileError(str(exc)) from None
        file_command = merged.pop("command", command)
        if file_command != command:
            raise ConfigFileError(
                f"config file is for {file_command!r}, invoked as {command!r}"
            )
    merged.update({k: v for k, v in ns.items() if v is not None})
    return RunConfig(command=command, **merged)


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

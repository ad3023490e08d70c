import argparse
import csv
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sedopt
from sedopt import cli, regime
from sedopt.analytic import ErgodicSolution, SmoothSolution
from sedopt.errors import InputError
from sedopt.mc import CostEstimate, estimate_cost
from sedopt.pde import (
    CostSpec, Grid, SolveResult, ThresholdPolicy, ValueField, extract_policy,
    read_free_boundary_csv, residual, single_regime_chain,
)
from sedopt.regime import RegimeChain, realistic_chain
from sedopt.transport import SedimentProperties, rates_for_chain


@pytest.fixture()
def chain_file(tmp_path):
    chain = RegimeChain(
        discharges=np.array([1.0, 10.0]),
        rates=np.array([[0.0, 0.5], [1.0, 0.0]]),
    )
    path = tmp_path / "chain.json"
    chain.to_json(path)
    return path


def run_cli(*args):
    return cli.main([str(a) for a in args])


def test_commands_run_without_scipy(tmp_path):
    # sedopt runs on numpy alone; importing scipy was most of a command's
    # start-up. A fresh process imports the package and the CLI and runs
    # exact, solve, simulate and convergence without loading scipy.
    chain = tmp_path / "chain.json"
    RegimeChain(discharges=np.array([1.0, 10.0]),
                rates=np.array([[0.0, 0.5], [1.0, 0.0]])).to_json(chain)
    code = f"""
import sys
import sedopt, sedopt.cli
from sedopt.cli import main
out = {str(tmp_path)!r}
assert main(["exact", "--S", "0.05", "--outdir", out]) == 0
assert main(["solve", "--chain", {str(chain)!r}, "--n", "11", "--outdir", out]) == 0
assert main(["simulate", "--chain", {str(chain)!r}, "--policy", out + "/free_boundary.csv",
             "--paths", "8", "--horizon", "5", "--outdir", out]) == 0
assert main(["convergence", "--S", "0.05", "--resolutions", "11,21", "--outdir", out]) == 0
print(sorted(name for name in sys.modules if name.partition(".")[0] == "scipy"))
"""
    src = Path(sedopt.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


class TestParsing:
    def test_fraction_rates(self):
        assert cli.parse_rate("1/7") == pytest.approx(1.0 / 7.0, rel=1e-15)
        assert cli.parse_rate("0.25") == 0.25

    def test_zero_denominator_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(argparse.ArgumentTypeError):
            cli.parse_rate("1/0")
        with pytest.raises(SystemExit) as info:
            cli.main(["exact", "--S", "1/0", "--outdir", str(tmp_path)])
        assert info.value.code == 2
        assert "zero denominator in '1/0'" in capsys.readouterr().err

    def test_resolutions(self):
        assert cli.parse_resolutions("51,101,201") == [51, 101, 201]

    def test_unknown_command_rejected(self):
        with pytest.raises(InputError, match="unknown command 'bogus'"):
            cli.RunConfig(command="bogus")

    def test_flag_sets(self):
        # each command's flags, in order; convergence sets its own grids
        # with --resolutions, so only solve takes --n
        costs = ["--delta", "--c", "--d", "--lambda"]
        solver = ["--dt", "--t-end", "--tol"]
        expected = {
            "identify": ["--series", "--width", "--count"],
            "solve": ["--chain", "--props", *costs, "--lambda-upper", "--n", *solver],
            "exact": ["--S", *costs, "--samples"],
            "simulate": ["--chain", "--props", "--policy", *costs, "--y0", "--horizon",
                         "--paths", "--seed", "--initial-regime", "--per-path"],
            "convergence": ["--S", *costs, "--resolutions", *solver],
        }
        subparsers = next(action for action in cli._build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        assert list(subparsers.choices) == list(expected)
        dests = set()
        for command, flags in expected.items():
            actions = subparsers.choices[command]._actions[1:]  # after -h
            assert [a.option_strings for a in actions] == [
                [flag] for flag in ["--config", "--outdir", *flags]]
            dests.update(a.dest for a in actions)
        fields = {f.name for f in dataclasses.fields(cli.RunConfig)}
        assert fields - {"command"} == dests - {"config"}

    def test_every_float_flag_takes_fractions(self):
        config = cli.resolve_config(["solve", "--tol", "1/1e8", "--t-end", "180/2"])
        assert (config.tol, config.t_end) == (1e-8, 90.0)
        config = cli.resolve_config(["simulate", "--y0", "1/2", "--per-path", "--seed", "3"])
        assert (config.y0, config.per_path, config.seed) == (0.5, True, 3)
        config = cli.resolve_config(["convergence", "--resolutions", "11,21"])
        assert config.resolutions == [11, 21] and config.S is None

    @pytest.mark.parametrize("argv", [
        ("solve", "--chain", "CHAIN", "--n", "21"),
        ("convergence", "--S", "0.05", "--resolutions", "11,21"),
    ], ids=["solve", "convergence"])
    def test_dt_and_t_end_change_no_output(self, chain_file, tmp_path, argv):
        # accepted and echoed, read by nothing else
        argv = [chain_file if a == "CHAIN" else a for a in argv]
        plain, knobs = tmp_path / "plain", tmp_path / "knobs"
        assert run_cli(*argv, "--outdir", plain) == 0
        assert run_cli(*argv, "--dt", "0.5", "--t-end", "3", "--outdir", knobs) == 0
        echo = json.loads((knobs / "run_config.json").read_text())
        assert (echo["dt"], echo["t_end"]) == (0.5, 3.0)

        def outputs(out):
            return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "run_config.json"}
        assert outputs(plain) == outputs(knobs) != {}

    def test_parser_is_built_once_and_reused(self, chain_file, tmp_path, capsys):
        # a parse leaves the parser as it was: each run on the one parser,
        # after a rejected one too, writes what it writes on a new parser
        assert cli._build_parser() is cli._build_parser()
        out = tmp_path / "out"
        runs = [("solve", "--chain", chain_file, "--n", "21"),
                ("simulate", "--no-such-flag"),
                ("simulate", "--chain", chain_file, "--policy", out / "free_boundary.csv",
                 "--paths", "20", "--horizon", "5"),
                ("convergence", "--S", "0.05", "--resolutions", "11,21")]

        def outcomes(new_parser):
            shutil.rmtree(out, ignore_errors=True)
            seen = []
            for argv in runs:
                if new_parser:
                    cli._build_parser.cache_clear()
                try:
                    status = run_cli(*argv, "--outdir", out)
                except SystemExit as exc:
                    status = exc.code
                files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
                seen.append((status, capsys.readouterr().err, files))
            return seen

        reused = outcomes(new_parser=False)
        assert [status for status, _, _ in reused] == [0, 2, 0, 0]
        assert outcomes(new_parser=True) == reused

    def test_default_realistic_config(self):
        config = cli.default_realistic_config()
        assert (config.delta, config.c, config.d) == (0.2, 0.02, 0.01)
        assert config.lam == pytest.approx(1.0 / 7.0)
        assert config.n == 301
        assert config.tol == 1e-9
        props = config.sediment_properties()
        assert (props.g, props.B, props.l, props.n) == (9.81, 25.0, 0.001, 0.035)
        assert (props.rho, props.rho_s, props.gamma) == (1000.0, 2600.0, 5.0e-3)
        assert props.capacity == 100.0


class TestExact:
    def test_json_record(self, tmp_path):
        out = tmp_path / "out"
        status = run_cli(
            "exact", "--S", "0.05", "--delta", "0.1", "--c", "0.3", "--d", "0.2",
            "--lambda", "1/7", "--samples", "11", "--outdir", out,
        )
        assert status == 0
        record = json.loads((out / "exact.json").read_text())
        assert record["ybar"] == pytest.approx(0.615195, abs=1e-5)
        assert set(record) >= {"ybar", "psi1", "a", "b", "f", "u"}
        lines = (out / "candidate_values.csv").read_text().splitlines()
        assert lines[0] == "y,psi"
        assert len(lines) == 12
        assert (out / "run_config.json").exists()

    def test_ergodic_record_when_undiscounted(self, tmp_path):
        out = tmp_path / "erg"
        status = run_cli("exact", "--S", "0.05", "--delta", "0", "--c", "0.2",
                         "--d", "0.3", "--lambda", "1/7", "--outdir", out)
        assert status == 0
        record = json.loads((out / "exact.json").read_text())
        assert record["ybar"] == pytest.approx(0.835, abs=1e-3)
        assert record["u"] > 0.2 * 0.05


    @pytest.mark.parametrize("args, message", [
        (("--delta", "0", "--samples", "5"), "--samples needs --delta > 0"),
        (("--samples", "-1"), "--samples must be >= 0"),
    ], ids=["ergodic", "negative"])
    def test_bad_samples_fail(self, tmp_path, capsys, args, message):
        # ergodic mode used to drop --samples without a word, and a negative
        # count was ignored
        out = tmp_path / "out"
        assert run_cli("exact", "--S", "0.05", *args, "--outdir", out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"sedopt: error: {message}") and err.count("\n") == 1
        assert not (out / "exact.json").exists()

    @pytest.mark.parametrize("flag, value", [("--delta", "1e300"), ("--lambda", "1e308")])
    def test_overflowing_rate_is_domain_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "out"
        status = run_cli("exact", "--S", "0.05", flag, value, "--outdir", out)
        assert status == 1
        err = capsys.readouterr().err
        assert err.startswith("sedopt: error:") and "overflows" in err
        assert "Traceback" not in err
        assert not (out / "exact.json").exists()

    @pytest.mark.parametrize("args", [
        ("--S", "0.05", "--c", "1e308", "--d", "1e308"),  # delta / S = 4
        ("--S", "0.05", "--delta", "1e-320"),  # delta / S = 2e-319
    ], ids=["huge-costs", "tiny-delta"])
    def test_non_finite_residual_not_blamed_on_delta_over_s(self, tmp_path, capsys, args):
        out = tmp_path / "out"
        assert run_cli("exact", *args, "--outdir", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("sedopt: error: pasting residual is not finite for ScalarProblem(")
        assert "delta / S" not in err and "Traceback" not in err
        assert not (out / "exact.json").exists()

    def test_rejected_roots_message_is_bounded(self, tmp_path, capsys):
        # S = 1e308 zeroes the residual at all 1025 scan points and no root is
        # admissible; listing every one wrote a 69 KB line
        out = tmp_path / "out"
        assert run_cli("exact", "--S", "1e308", "--outdir", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("sedopt: error: no admissible pasting root")
        assert "all 1025 roots rejected" in err and len(err.encode()) < 1024
        assert not (out / "exact.json").exists()


class TestIdentify:
    def test_chain_from_series(self, tmp_path):
        series = tmp_path / "series.csv"
        rows = ["timestamp,discharge_m3s"]
        rows += [f"{k / 24.0},{1.0 if k % 2 == 0 else 3.0}" for k in range(48)]
        series.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        with pytest.warns(UserWarning):  # bins 2.. never visited
            status = run_cli("identify", "--series", series, "--width", "2.5",
                             "--count", "4", "--outdir", out)
        assert status == 0
        chain = RegimeChain.from_json(out / "chain.json")
        assert chain.rates[0, 1] == pytest.approx(24.0)

    def test_negative_day_numbers(self, tmp_path):
        # a '-' in a day number does not make it an ISO timestamp
        series = tmp_path / "series.csv"
        rows = ["timestamp,discharge_m3s"]
        rows += [f"{-1.5 + k / 24.0},{1.0 if k % 2 == 0 else 3.0}" for k in range(48)]
        series.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        with pytest.warns(UserWarning):  # bins 2.. never visited
            status = run_cli("identify", "--series", series, "--width", "2.5",
                             "--count", "4", "--outdir", out)
        assert status == 0
        chain = RegimeChain.from_json(out / "chain.json")
        assert chain.rates[0, 1] == pytest.approx(24.0)

    @pytest.mark.parametrize("flow, width", [("nan", "2.5"), ("inf", "2.5"), ("2.0", "nan")])
    def test_non_finite_discharge_or_width_fails(self, tmp_path, capsys, flow, width):
        series = tmp_path / "series.csv"
        series.write_text(f"timestamp,discharge_m3s\n0,1.0\n1,{flow}\n2,3.0\n")
        out = tmp_path / "out"
        status = run_cli("identify", "--series", series, "--width", width,
                         "--count", "4", "--outdir", out)
        assert status == 1
        assert capsys.readouterr().err.startswith("sedopt: error:")
        assert not (out / "chain.json").exists()

    @pytest.mark.parametrize("row, message", [
        ("1,abc", "abc"),              # non-numeric discharge
        ("x1,2.0", "x1"),              # non-numeric day number
        ("not-a-date,2.0", "not-a-date"),  # bad ISO timestamp
        ("1", "discharge_m3s"),        # short row
    ], ids=["discharge", "day-number", "iso-timestamp", "short-row"])
    def test_malformed_series_row_fails(self, tmp_path, capsys, row, message):
        series = tmp_path / "series.csv"
        series.write_text(f"timestamp,discharge_m3s\n0,1.0\n{row}\n")
        out = tmp_path / "out"
        status = run_cli("identify", "--series", series, "--width", "2.5",
                         "--count", "4", "--outdir", out)
        assert status == 1
        err = capsys.readouterr().err
        assert err.startswith(f"sedopt: error: {series}, line 3: ")
        assert message in err and "Traceback" not in err
        assert not (out / "chain.json").exists()

    @pytest.mark.parametrize("first, second, kind", [
        ("2020-01-01T00:00+00:00", "2020-01-02T00:00", "naive ISO"),
        ("2020-01-01T00:00", "2020-01-02T00:00+01:00", "timezone-aware ISO"),
        ("2020-01-01T00:00", "1.5", "day number"),
        ("0", "2020-01-02", "naive ISO"),
    ], ids=["aware-then-naive", "naive-then-aware", "iso-then-day", "day-then-iso"])
    def test_mixed_timestamp_kinds_fail(self, tmp_path, capsys, first, second, kind):
        series = tmp_path / "series.csv"
        series.write_text(f"timestamp,discharge_m3s\n{first},1.0\n{second},2.0\n{second},3.0\n")
        out = tmp_path / "out"
        status = run_cli("identify", "--series", series, "--width", "2.5",
                         "--count", "4", "--outdir", out)
        assert status == 1
        err = capsys.readouterr().err
        assert err.startswith(f"sedopt: error: {series}, line 3: timestamp '{second}'")
        assert kind in err and "Traceback" not in err
        assert not (out / "chain.json").exists()

    def test_missing_series_is_module_error(self, tmp_path, capsys):
        status = run_cli("identify", "--outdir", tmp_path)
        assert status == 1
        assert "required" in capsys.readouterr().err


class TestSolveSimulate:
    @pytest.mark.parametrize("flag, value, message", [
        ("--n", "4", "grid needs at least 5 vertices"),
        ("--delta", "-1", "discount rate must be >= 0"),
        ("--c", "-1", "costs must be >= 0"),
    ])
    def test_bad_solve_input_fails(self, chain_file, tmp_path, capsys, flag, value, message):
        out = tmp_path / "solve"
        assert run_cli("solve", "--chain", chain_file, flag, value, "--outdir", out) == 1
        assert capsys.readouterr().err == f"sedopt: error: {message}\n"
        assert not (out / "solve_result.json").exists()

    def test_ergodic_solve_without_drain_fails(self, tmp_path, capsys):
        # a critical Shields number no flow reaches: no regime transports,
        # so the Howard matrix is singular and no result may be written
        chain, props, out = tmp_path / "paper.json", tmp_path / "props.json", tmp_path / "solve"
        realistic_chain(0).to_json(chain)
        props.write_text('{"theta_c": 100}')
        assert run_cli("solve", "--chain", chain, "--props", props, "--delta", "0",
                       "--outdir", out) == 1
        assert "singular" in capsys.readouterr().err
        assert not (out / "solve_result.json").exists()

    def solve(self, chain_file, out):
        return run_cli(
            "solve", "--chain", chain_file, "--delta", "0.2", "--c", "0.02",
            "--d", "0.01", "--lambda", "1/7", "--n", "21",
            "--tol", "1e-8", "--outdir", out,
        )

    def test_solve_outputs(self, chain_file, tmp_path):
        out = tmp_path / "solve"
        assert self.solve(chain_file, out) == 0
        policy = read_free_boundary_csv(out / "free_boundary.csv")
        assert policy.boundaries.size == 2
        assert np.all(policy.boundaries >= 0.0)
        field_lines = (out / "value_field.csv").read_text().splitlines()
        assert field_lines[0] == "regime,y,phi,action"
        assert len(field_lines) == 1 + 2 * 21
        summary = json.loads((out / "solve_result.json").read_text())
        assert summary["converged"] is True
        history = summary["residual_history"]
        assert history[-1] <= 1e-8 < min(history[:-1])
        assert len(history) == len(summary["policy_changes"]) == summary["iterations"] + 1

    def test_unconverged_solve_fails(self, chain_file, tmp_path, capsys):
        # a tolerance below round-off stalls: exit 1, diagnostics kept, no policy
        out = tmp_path / "stalled"
        status = run_cli(
            "solve", "--chain", chain_file, "--n", "21", "--tol", "1e-30", "--outdir", out,
        )
        assert status == 1
        assert "stalled" in capsys.readouterr().err
        summary = json.loads((out / "solve_result.json").read_text())
        assert summary["converged"] is False
        assert not (out / "free_boundary.csv").exists()

    def test_diverged_solve_fails(self, tmp_path, capsys):
        # an observation intensity of 1e300 blows the residual up from 1 to
        # past 1e297: the error names a divergence, not a stall
        chain, out = tmp_path / "chain.json", tmp_path / "solve"
        RegimeChain(discharges=np.array([10.0, 40.0, 80.0]), rates=np.array(
            [[0.0, 0.5, 0.0], [0.3, 0.0, 0.4], [0.0, 0.6, 0.0]])).to_json(chain)
        assert run_cli("solve", "--chain", chain, "--n", "7", "--lambda", "1e300",
                       "--outdir", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("sedopt: error: iteration diverged: max |residual| went from "
                              "1.000e+00 to ")
        assert "stalled" not in err
        assert not (out / "free_boundary.csv").exists()

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_tolerance_fails(self, chain_file, tmp_path, capsys, tol):
        out = tmp_path / "solve"
        status = run_cli("solve", "--chain", chain_file, "--n", "21", "--tol", tol,
                         "--outdir", out)
        assert status == 1
        assert "tol must be finite" in capsys.readouterr().err
        assert not list(out.glob("*.csv"))

    def test_failed_solve_removes_earlier_policy(self, chain_file, tmp_path):
        out = tmp_path / "solve"
        assert self.solve(chain_file, out) == 0
        assert (out / "free_boundary.csv").exists()
        status = run_cli(
            "solve", "--chain", chain_file, "--n", "21", "--tol", "1e-30", "--outdir", out,
        )
        assert status == 1
        assert not (out / "free_boundary.csv").exists()
        assert not (out / "value_field.csv").exists()
        # the echo describes the failed run, not the earlier one
        assert json.loads((out / "run_config.json").read_text())["tol"] == 1e-30

    @pytest.mark.parametrize("n, seed", [(301, 0), (31, 2), (31, 109), (61, 0)])
    def test_realistic_chain(self, tmp_path, n, seed):
        # 43 regimes on 2.5 m^3/s bins, nearest-neighbour switching with
        # seeded jitter and Meyer-Peter-Mueller rates: the paper's size
        # (n = 301), and coarse grids whose solves passed through a slow
        # phase (n = 31) or a weight two-cycle (n = 61) while the WENO3 eps
        # was a fixed 1e-6 instead of 0.1 h^2
        chain = realistic_chain(seed)
        count = chain.count
        chain.to_json(tmp_path / "chain.json")
        out = tmp_path / "solve"
        status = run_cli(
            "solve", "--chain", tmp_path / "chain.json", "--delta", "0.2", "--c", "0.02",
            "--d", "0.01", "--lambda", "1/7", "--n", n, "--tol", "1e-9", "--outdir", out,
        )
        assert status == 0
        summary = json.loads((out / "solve_result.json").read_text())
        assert summary["converged"] is True
        phi = [float(line.split(",")[2])
               for line in (out / "value_field.csv").read_text().splitlines()[1:]]
        fld = ValueField(values=np.reshape(phi, (count, n)), grid=Grid(n), chain=chain,
                         rates=rates_for_chain(chain, SedimentProperties()),
                         costs=CostSpec(delta=0.2, c=0.02, d=0.01, lam=1.0 / 7.0))
        assert np.max(np.abs(residual(fld))) <= 1e-9
        assert extract_policy(fld).boundaries.size == count

    @pytest.mark.parametrize("delta", ["1e-4", "1e-6"])
    def test_small_discount_at_paper_size(self, tmp_path, delta):
        # v grows like u / delta, but the solve iterates on v - r / delta,
        # of the relative value's size, so round-off stays below tol
        realistic_chain(0).to_json(tmp_path / "paper.json")
        out = tmp_path / "solve"
        assert run_cli("solve", "--chain", tmp_path / "paper.json", "--delta", delta,
                       "--n", "301", "--tol", "1e-9", "--outdir", out) == 0
        assert json.loads((out / "solve_result.json").read_text())["converged"] is True

    def test_absorbing_last_regime(self, tmp_path):
        # the paper chain with its top regime made absorbing: the discounted
        # solve still has one fixed point, and a path started in that regime
        # never switches, so the run is the single-regime run of its drain
        # rate and threshold; the hold / 0 of the absorbing regime raises no
        # RuntimeWarning, which pytest turns into an error
        paper = realistic_chain(0)
        rates = paper.rates.copy()
        rates[-1] = 0.0
        chain = RegimeChain(discharges=paper.discharges, rates=rates)
        chain.to_json(tmp_path / "chain.json")
        costs = ["--delta", "0.2", "--c", "0.02", "--d", "0.01", "--lambda", "1/7"]
        solve, sim = tmp_path / "solve", tmp_path / "sim"
        assert run_cli("solve", "--chain", tmp_path / "chain.json", *costs, "--n", "31",
                       "--tol", "1e-9", "--outdir", solve) == 0
        assert json.loads((solve / "solve_result.json").read_text())["converged"] is True
        drains = rates_for_chain(chain, SedimentProperties())
        spec = CostSpec(delta=0.2, c=0.02, d=0.01, lam=1.0 / 7.0)
        with open(solve / "value_field.csv", newline="") as fh:
            phi = [float(row["phi"]) for row in csv.DictReader(fh)]
        fld = ValueField(values=np.reshape(phi, (chain.count, 31)), grid=Grid(31), chain=chain,
                         rates=drains, costs=spec)
        assert np.max(np.abs(residual(fld))) <= 1e-9
        policy = read_free_boundary_csv(solve / "free_boundary.csv")
        assert run_cli("simulate", "--chain", tmp_path / "chain.json", *costs, "--policy",
                       solve / "free_boundary.csv", "--y0", "1", "--initial-regime", "42",
                       "--horizon", "200", "--paths", "200", "--seed", "3", "--outdir", sim) == 0
        est = json.loads((sim / "cost_estimate.json").read_text())
        alone = estimate_cost(single_regime_chain(), drains[-1:],
                              ThresholdPolicy(boundaries=policy.boundaries[-1:]), spec,
                              1.0, 200.0, 200, seed=3)
        assert (est["mean"], est["events_per_path"]) == (alone.mean, alone.events_per_path)

    def test_rerun_from_echo_is_bit_identical(self, chain_file, tmp_path):
        first = tmp_path / "first"
        again = tmp_path / "again"
        assert self.solve(chain_file, first) == 0
        status = run_cli("solve", "--config", first / "run_config.json",
                         "--outdir", again)
        assert status == 0
        for name in ("value_field.csv", "free_boundary.csv", "solve_result.json"):
            assert (first / name).read_bytes() == (again / name).read_bytes()

    def test_ergodic_solve_mode(self, chain_file, tmp_path):
        # undiscounted solve reports the long-run cost rate per day
        out = tmp_path / "ergodic"
        status = run_cli(
            "solve", "--chain", chain_file, "--delta", "0", "--c", "0.02",
            "--d", "0.01", "--lambda", "1/7", "--n", "21",
            "--outdir", out,
        )
        assert status == 0
        summary = json.loads((out / "solve_result.json").read_text())
        assert summary["cost_rate"] > 0.0
        assert summary["converged"] is True

    def test_ambiguity_flag_notes_reduction(self, chain_file, tmp_path):
        out = tmp_path / "amb"
        status = run_cli(
            "solve", "--chain", chain_file, "--lambda", "1/7",
            "--lambda-upper", "1", "--n", "21",
            "--tol", "1e-8", "--outdir", out,
        )
        assert status == 0
        summary = json.loads((out / "solve_result.json").read_text())
        assert any("reduced" in note for note in summary["notes"])

    def test_degenerate_ambiguity_is_plain_solve(self, chain_file, tmp_path):
        # --lambda-upper equal to --lambda reduces nothing: the same result,
        # notes included, as leaving the flag unset
        plain, degenerate = tmp_path / "plain", tmp_path / "degenerate"
        argv = ["solve", "--chain", chain_file, "--lambda", "1/7", "--n", "21"]
        assert run_cli(*argv, "--outdir", plain) == 0
        assert run_cli(*argv, "--lambda-upper", "1/7", "--outdir", degenerate) == 0
        assert ((degenerate / "solve_result.json").read_bytes()
                == (plain / "solve_result.json").read_bytes())

    def test_simulate_with_policy_file(self, chain_file, tmp_path):
        out = tmp_path / "solve"
        assert self.solve(chain_file, out) == 0
        sim = tmp_path / "sim"
        status = run_cli(
            "simulate", "--chain", chain_file, "--policy", out / "free_boundary.csv",
            "--delta", "0.2", "--c", "0.02", "--d", "0.01", "--lambda", "1/7",
            "--y0", "1.0", "--horizon", "50", "--paths", "64", "--seed", "9",
            "--per-path", "--outdir", sim,
        )
        assert status == 0
        record = json.loads((sim / "cost_estimate.json").read_text())
        assert record["n_paths"] == 64
        assert record["mean"] >= 0.0
        # what the paths saw: switches plus Poisson(50/7) observations each
        assert record["events_per_path"] > 50.0 / 7.0
        assert 0.0 < record["replenishments_per_path"] < record["events_per_path"]
        assert 0.0 <= record["depleted_fraction"] < 1.0
        lines = (sim / "paths.csv").read_text().splitlines()
        assert lines[0] == "path,cost"
        assert len(lines) == 65

    def test_simulate_non_finite_intensity_fails(self, chain_file, tmp_path, capsys):
        out = tmp_path / "sim"
        status = run_cli("simulate", "--chain", chain_file, "--lambda", "nan",
                         "--paths", "8", "--outdir", out)
        assert status == 1
        assert "finite" in capsys.readouterr().err
        assert not (out / "cost_estimate.json").exists()

    def test_simulate_cost_past_the_double_range_fails(self, chain_file, tmp_path, capsys):
        # a refill from empty storage costs c + d = +inf: a named error, not
        # an OverflowError traceback or a null standard error
        policy = tmp_path / "free_boundary.csv"
        policy.write_text("regime,q,Ybar\n0,1,0.9\n1,10,0.9\n")
        out = tmp_path / "sim"
        status = run_cli("simulate", "--chain", chain_file, "--policy", policy, "--c", "1e308",
                         "--d", "1e308", "--y0", "0", "--paths", "8", "--outdir", out)
        assert status == 1
        err = capsys.readouterr().err
        assert err.startswith("sedopt: error: ") and "double range" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (out / "cost_estimate.json").exists()

    def test_simulate_nan_threshold_fails(self, chain_file, tmp_path, capsys):
        for threshold in ("nan", "1.5"):
            policy = tmp_path / "free_boundary.csv"
            policy.write_text(f"regime,q,Ybar\n0,1,0.3\n1,10,{threshold}\n")
            out = tmp_path / "sim"
            status = run_cli("simulate", "--chain", chain_file, "--policy", policy,
                             "--paths", "8", "--outdir", out)
            assert status == 1
            err = capsys.readouterr().err
            assert "[0, 1]" in err
            assert err.startswith(f"sedopt: error: {policy}: ")
            assert not (out / "cost_estimate.json").exists()

    @pytest.mark.parametrize("row", ["x,10,0.3", "1,10,abc", "1"],
                             ids=["regime", "threshold", "short-row"])
    def test_simulate_malformed_policy_fails(self, chain_file, tmp_path, capsys, row):
        policy = tmp_path / "free_boundary.csv"
        policy.write_text(f"regime,q,Ybar\n0,1,0.3\n{row}\n")
        out = tmp_path / "sim"
        status = run_cli("simulate", "--chain", chain_file, "--policy", policy,
                         "--paths", "8", "--outdir", out)
        assert status == 1
        err = capsys.readouterr().err
        assert err.startswith(f"sedopt: error: {policy}, line 3: ")
        assert "Traceback" not in err
        assert not (out / "cost_estimate.json").exists()

    @pytest.mark.parametrize("rows", [1, 3])
    def test_simulate_policy_of_wrong_length_fails(self, chain_file, tmp_path, capsys, rows):
        policy = tmp_path / "free_boundary.csv"
        policy.write_text("regime,q,Ybar\n" + "".join(f"{i},1,0.3\n" for i in range(rows)))
        out = tmp_path / "sim"
        status = run_cli("simulate", "--chain", chain_file, "--policy", policy,
                         "--paths", "8", "--outdir", out)
        assert status == 1
        err = capsys.readouterr().err
        assert err == f"sedopt: error: {policy}: {rows} thresholds for a chain of 2 regimes\n"
        assert not (out / "cost_estimate.json").exists()

    @pytest.mark.parametrize("rows, message", [
        ("", "no policy rows"),
        ("0,1,0.3\n2,10,0.3\n", "regime indices must be 0..1"),
    ], ids=["header-only", "regime-gap"])
    def test_simulate_policy_rows_fail(self, chain_file, tmp_path, capsys, rows, message):
        policy = tmp_path / "free_boundary.csv"
        policy.write_text("regime,q,Ybar\n" + rows)
        out = tmp_path / "sim"
        status = run_cli("simulate", "--chain", chain_file, "--policy", policy,
                         "--paths", "8", "--outdir", out)
        assert status == 1
        assert capsys.readouterr().err == f"sedopt: error: {policy}: {message}\n"
        assert not (out / "cost_estimate.json").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_simulate_negative_seed_fails(self, chain_file, tmp_path, capsys, source):
        # it used to end in numpy's "expected non-negative integer" traceback
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({"seed": -1}))
        seed = ["--seed", "-1"] if source == "flag" else ["--config", config]
        out = tmp_path / "sim"
        status = run_cli("simulate", "--chain", chain_file, *seed, "--paths", "8",
                         "--outdir", out)
        assert status == 1
        err = capsys.readouterr().err
        assert err.startswith("sedopt: error: bad seed -1") and err.count("\n") == 1
        assert not (out / "cost_estimate.json").exists()

    def test_simulate_reproducible(self, chain_file, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run_cli(
                "simulate", "--chain", chain_file, "--delta", "0.2", "--c", "0.02",
                "--d", "0.01", "--lambda", "1/7", "--y0", "0.5", "--horizon", "30",
                "--paths", "32", "--seed", "13", "--outdir", out,
            )
            outs.append((out / "cost_estimate.json").read_bytes())
        assert outs[0] == outs[1]


class TestJsonFiles:
    @pytest.mark.parametrize("text, message", [
        ('{"discharges": [1.0, 10.0]}', "missing keys ['rates']"),
        ("{not json", "cannot read"),
        ('{"discharges": [1.0, 10.0], "rates": [[0.0, "abc"], [1.0, 0.0]]}',
         "rates must hold numbers"),
        ('{"discharges": [1.0, 10.0], "rates": [[0.0, 0.5], [1.0]]}', "rectangular"),
        ("[[0.0, 0.5], [1.0, 0.0]]", "must hold a JSON object"),
    ], ids=["missing-rates", "invalid-json", "string-rate", "ragged-rows", "top-level-list"])
    def test_malformed_chain_fails(self, tmp_path, capsys, text, message):
        chain = tmp_path / "chain.json"
        chain.write_text(text)
        out = tmp_path / "solve"
        assert run_cli("solve", "--chain", chain, "--n", "21", "--outdir", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("sedopt: error:") and str(chain) in err and message in err
        assert "Traceback" not in err
        for name in ("solve_result.json", "value_field.csv", "free_boundary.csv"):
            assert not (out / name).exists()

    @pytest.mark.parametrize("text, message", [
        ("{not json", "cannot read"),
        ('{"B": "abc"}', "wrong type"),
        ('{"B": null}', "wrong type"),
        ('{"B": [1]}', "wrong type"),
        ('{"B": true}', "wrong type"),  # was read as B = 1.0
        ('{"rho_s": 900}', "sediment density must exceed water density"),
    ], ids=["invalid-json", "string", "null", "list", "bool", "light-sediment"])
    def test_malformed_props_fails(self, chain_file, tmp_path, capsys, text, message):
        props = tmp_path / "props.json"
        props.write_text(text)
        out = tmp_path / "solve"
        status = run_cli("solve", "--chain", chain_file, "--props", props, "--n", "21",
                         "--outdir", out)
        assert status == 1
        err = capsys.readouterr().err
        assert err.startswith("sedopt: error:") and str(props) in err and message in err
        assert "Traceback" not in err
        for name in ("solve_result.json", "value_field.csv", "free_boundary.csv"):
            assert not (out / name).exists()

    def test_overflowing_switching_total_fails(self, tmp_path, capsys):
        chain = tmp_path / "chain.json"
        chain.write_text('{"discharges": [1.0, 2.0, 3.0], '
                         '"rates": [[0.0, 1e308, 1e308], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]}')
        out = tmp_path / "solve"
        assert run_cli("solve", "--chain", chain, "--n", "21", "--outdir", out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"sedopt: error: {chain}: ") and "regimes [0]" in err
        assert not (out / "solve_result.json").exists()

    def test_props_integer_no_double_holds_fails(self, chain_file, tmp_path, capsys):
        # it used to end in an OverflowError traceback inside shear_stress
        props = tmp_path / "props.json"
        props.write_text('{"capacity": 1' + "0" * 400 + "}")
        out = tmp_path / "solve"
        status = run_cli("solve", "--chain", chain_file, "--props", props, "--n", "21",
                         "--outdir", out)
        assert status == 1
        err = capsys.readouterr().err
        assert err.startswith("sedopt: error:") and str(props) in err and "'capacity'" in err
        assert "Traceback" not in err and len(err) < 200
        assert not (out / "solve_result.json").exists()

    @pytest.mark.parametrize("text", ['{"capacity": Infinity}', '{"theta_c": NaN}',
                                      '{"B": -1}'],
                             ids=["infinite-capacity", "nan-theta-c", "negative-B"])
    def test_non_finite_props_fail(self, chain_file, tmp_path, capsys, text):
        # an infinite capacity made every drain rate 0 and the solve succeed
        props = tmp_path / "props.json"
        props.write_text(text)
        out = tmp_path / "solve"
        status = run_cli("solve", "--chain", chain_file, "--props", props, "--n", "21",
                         "--outdir", out)
        assert status == 1
        err = capsys.readouterr().err
        assert "must be finite and positive" in err
        assert err.startswith(f"sedopt: error: {props}: ")
        assert not (out / "solve_result.json").exists()

    def test_non_finite_floats_are_written_as_null(self, chain_file, tmp_path):
        # RFC 8259 has no NaN or Infinity token, so strict parsers rejected them
        def strict(path):
            def reject(token):
                raise ValueError(f"{path.name} holds {token}")
            return json.loads(path.read_text(), parse_constant=reject)

        assert run_cli("simulate", "--chain", chain_file, "--delta", "0", "--paths", "8",
                       "--horizon", "5", "--outdir", tmp_path) == 0
        assert strict(tmp_path / "cost_estimate.json")["truncation_bound"] is None
        assert run_cli("exact", "--S", "0.05", "--delta", "nan", "--outdir", tmp_path) == 1
        assert strict(tmp_path / "run_config.json")["delta"] is None

        @dataclasses.dataclass
        class Record:
            history: tuple
            field: np.ndarray

        path = tmp_path / "record.json"
        regime.write_json_fields(path, Record((1.0, np.nan), np.array([[np.inf, 2.0]])))
        assert strict(path) == {"history": [1.0, None], "field": [[None, 2.0]]}

    def test_result_files_hold_their_dataclass_fields(self, chain_file, tmp_path):
        # each record reaches its file whole, less the dropped fields, in field order
        def keys(name):
            return list(json.loads((tmp_path / name).read_text()))

        def names(cls, drop=""):
            return [f.name for f in dataclasses.fields(cls) if f.name != drop]

        assert run_cli("solve", "--chain", chain_file, "--n", "21", "--outdir", tmp_path) == 0
        assert keys("solve_result.json") == names(SolveResult, drop="field")
        assert run_cli("simulate", "--chain", chain_file, "--paths", "8", "--horizon", "5",
                       "--outdir", tmp_path) == 0
        assert keys("cost_estimate.json") == names(CostEstimate, drop="samples")
        assert run_cli("exact", "--S", "0.05", "--outdir", tmp_path) == 0
        assert keys("exact.json") == names(SmoothSolution, drop="problem") + ["u"]
        assert run_cli("exact", "--S", "0.05", "--delta", "0", "--outdir", tmp_path) == 0
        assert keys("exact.json") == names(ErgodicSolution)


class TestConvergenceCommand:
    def test_csv_structure(self, tmp_path):
        out = tmp_path / "conv"
        status = run_cli(
            "convergence", "--S", "0.05", "--delta", "0.1", "--c", "0.3",
            "--d", "0.2", "--lambda", "1/7", "--resolutions", "21,41",
            "--tol", "1e-8", "--outdir", out,
        )
        assert status == 0
        lines = (out / "convergence.csv").read_text().splitlines()
        assert lines[0] == "n,linf_error,l1_error,linf_rate,l1_rate,ybar,ybar_error"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[3] == "" and first[4] == ""  # no rate on the first row

    def test_unconverged_study_fails(self, tmp_path, capsys):
        out = tmp_path / "conv"
        status = run_cli(
            "convergence", "--S", "0.05", "--delta", "0.1", "--c", "0.3",
            "--d", "0.2", "--lambda", "1/7", "--resolutions", "21,41",
            "--tol", "1e-30", "--outdir", out,
        )
        assert status == 1
        assert "stalled" in capsys.readouterr().err
        assert not (out / "convergence.csv").exists()


class TestExitCodes:
    def test_module_error_is_one(self, tmp_path, capsys):
        status = run_cli("solve", "--chain", tmp_path / "missing.json",
                         "--outdir", tmp_path)
        assert status == 1
        err = capsys.readouterr().err
        assert err.startswith("sedopt: error:")
        assert err.count("\n") == 1  # single-line diagnostic

    def test_bad_config_file_is_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("exact", "--config", bad, "--outdir", tmp_path) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", [
        {"n": "21"}, {"delta": "0.2"}, {"delta": None}, {"n": 21.0}, {"n": True},
        {"per_path": 1}, {"resolutions": [51, "101"]}, {"resolutions": 51},
    ])
    def test_config_value_of_wrong_type_is_two(self, chain_file, tmp_path, capsys, entry):
        # unchecked, {"n": "21"} reaches Grid and ends in a TypeError traceback
        config = tmp_path / "conf.json"
        config.write_text(json.dumps(entry))
        status = run_cli("solve", "--config", config, "--chain", chain_file, "--outdir", tmp_path)
        assert status == 2
        assert "wrong type" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["exact", "simulate"])
    def test_config_integer_no_double_holds_is_two(self, chain_file, tmp_path, capsys, command):
        # it used to end in an OverflowError traceback
        config = tmp_path / "conf.json"
        config.write_text('{"delta": 1' + "0" * 400 + "}")
        inputs = ["--S", "0.05"] if command == "exact" else ["--chain", chain_file, "--paths", "8"]
        assert run_cli(command, "--config", config, *inputs, "--outdir", tmp_path) == 2
        err = capsys.readouterr().err
        assert "config error" in err and str(config) in err and "'delta'" in err
        assert "Traceback" not in err

    def test_config_int_for_float_and_null_for_none_accepted(self, tmp_path):
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({"S": 1, "delta": 1, "lam_upper": None, "samples": 3}))
        assert run_cli("exact", "--config", config, "--outdir", tmp_path) == 0
        echo = json.loads((tmp_path / "run_config.json").read_text())
        assert (echo["S"], echo["delta"], echo["lam_upper"]) == (1, 1, None)

    def test_wrong_command_config_is_two(self, tmp_path):
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({"command": "solve"}))
        assert run_cli("exact", "--config", config, "--outdir", tmp_path) == 2

    def test_unknown_config_key_is_two(self, tmp_path):
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({"speling": 1}))
        assert run_cli("exact", "--config", config, "--outdir", tmp_path) == 2

    def test_argparse_error_is_two(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["solve", "--no-such-flag"])
        assert info.value.code == 2

    @pytest.mark.parametrize("command, flag, value", [
        ("convergence", "--resolutions", "a,b"), ("convergence", "--tol", "1e-9x"),
        ("solve", "--n", "1.5"),
    ], ids=["--resolutions-a,b", "--tol-1e-9x", "--n-1.5"])
    def test_bad_flag_value_is_two(self, tmp_path, capsys, command, flag, value):
        with pytest.raises(SystemExit) as info:
            cli.main([command, flag, value, "--outdir", str(tmp_path)])
        assert info.value.code == 2
        assert f"argument {flag}: " in capsys.readouterr().err
        assert not (tmp_path / "run_config.json").exists()

    def test_convergence_takes_no_grid_size(self, tmp_path, capsys):
        # its grids are --resolutions; a --n would be read by nothing
        with pytest.raises(SystemExit) as info:
            cli.main(["convergence", "--S", "0.05", "--n", "5", "--outdir", str(tmp_path)])
        assert info.value.code == 2
        assert "unrecognized arguments: --n 5" in capsys.readouterr().err
        assert not (tmp_path / "run_config.json").exists()


class TestOutdir:
    @pytest.fixture()
    def inputs(self, chain_file, tmp_path):
        """Input files by placeholder: a good and a bad chain and series."""
        series, bad_series = tmp_path / "series.csv", tmp_path / "bad_series.csv"
        rows = [f"{k},{1.0 + 2.5 * (k % 3)}" for k in range(30)]
        series.write_text("\n".join(["timestamp,discharge_m3s", *rows]) + "\n")
        bad_series.write_text("timestamp,discharge_m3s\n0,1.0\n1,nan\n")
        bad_chain = tmp_path / "bad_chain.json"
        bad_chain.write_text('{"discharges": [1.0, 10.0]}')
        return {"CHAIN": chain_file, "BAD_CHAIN": bad_chain,
                "SERIES": series, "BAD_SERIES": bad_series}

    def run_in(self, inputs, out, *argv):
        return run_cli(*(inputs.get(a, a) for a in argv), "--outdir", out)

    @staticmethod
    def contents(out):
        """Each file's bytes, with the echo less its outdir."""
        found = {p.name: p.read_bytes() for p in out.iterdir()}
        echo = json.loads(found.pop("run_config.json"))
        del echo["outdir"]
        return found, echo

    ARGS = {
        "identify": ("--series", "SERIES", "--count", "3"),
        "solve": ("--chain", "CHAIN", "--n", "21"),
        "exact": ("--S", "0.05"),
        "simulate": ("--chain", "CHAIN", "--paths", "8", "--horizon", "5"),
        "convergence": ("--S", "0.05", "--resolutions", "11,21"),
    }

    @pytest.mark.parametrize("command", list(cli._COMMAND_TABLE))
    def test_fresh_run_writes_only_its_outputs(self, inputs, tmp_path, command):
        spec = cli._COMMAND_TABLE[command]
        extra = {"per_path": ("--per-path",), "samples": ("--samples", "5")}
        argv = [command, *self.ARGS[command]]
        for name in spec.takes:
            argv += extra.get(name, ())
        out = tmp_path / "out"
        assert self.run_in(inputs, out, *argv) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [*spec.outputs, "run_config.json"])

    @pytest.mark.parametrize("first, second", [
        (("simulate", "--chain", "CHAIN", "--paths", "50", "--horizon", "5", "--per-path"),
         ("simulate", "--chain", "CHAIN", "--paths", "60", "--horizon", "5")),
        (("simulate", "--chain", "CHAIN", "--paths", "50", "--horizon", "5", "--per-path"),
         ("simulate", "--chain", "CHAIN", "--paths", "70", "--seed", "-1")),
        (("exact", "--S", "0.05", "--samples", "5"), ("exact", "--S", "0.05", "--delta", "0")),
        (("exact", "--S", "0.05", "--samples", "5"),
         ("exact", "--S", "0.05", "--delta", "0", "--samples", "5")),
        (("solve", "--chain", "CHAIN", "--n", "21"), ("solve", "--chain", "BAD_CHAIN")),
        (("identify", "--series", "SERIES", "--count", "3"),
         ("identify", "--series", "BAD_SERIES")),
        (("convergence", "--S", "0.05", "--resolutions", "11,21"),
         ("convergence", "--S", "0.05", "--resolutions", "21,21")),
    ], ids=["simulate-narrower", "simulate-bad-seed", "exact-ergodic", "exact-bad-samples",
            "solve-bad-chain", "identify-bad-series", "convergence-duplicate-n"])
    def test_later_run_leaves_only_its_files(self, inputs, tmp_path, first, second):
        # the outdir of a run after an earlier one holds what a fresh outdir would
        shared, fresh = tmp_path / "shared", tmp_path / "fresh"
        assert self.run_in(inputs, shared, *first) == 0
        status = self.run_in(inputs, shared, *second)
        assert self.run_in(inputs, fresh, *second) == status
        assert self.contents(shared) == self.contents(fresh)

    def test_other_commands_files_stay(self, inputs, tmp_path):
        # a run removes only its own command's files: the others' may be its
        # inputs, as identify's chain is for solve and solve's policy for simulate
        out = tmp_path / "out"
        assert self.run_in(inputs, out, "identify", "--series", "SERIES", "--count", "3") == 0
        chain = (out / "chain.json").read_bytes()
        assert self.run_in(inputs, out, "exact", "--S", "0.05") == 0
        assert (out / "chain.json").read_bytes() == chain
        assert self.run_in(inputs, out, "solve", "--chain", out / "chain.json",
                           "--n", "21") == 0
        assert self.run_in(inputs, out, "simulate", "--chain", out / "chain.json",
                           "--policy", out / "free_boundary.csv", "--paths", "8",
                           "--horizon", "5") == 0
        assert sorted(p.name for p in out.iterdir()) == sorted([
            "chain.json", "exact.json", "solve_result.json", "value_field.csv",
            "free_boundary.csv", "cost_estimate.json", "run_config.json"])
        # the echo describes the last run only
        assert json.loads((out / "run_config.json").read_text())["command"] == "simulate"

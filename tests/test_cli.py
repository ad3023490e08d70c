import json

import numpy as np
import pytest

from sedopt import cli
from sedopt.pde import (
    CostSpec, Grid, ValueField, extract_policy, read_free_boundary_csv, residual,
)
from sedopt.regime import RegimeChain
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


class TestParsing:
    def test_fraction_rates(self):
        assert cli.parse_rate("1/7") == pytest.approx(1.0 / 7.0, rel=1e-15)
        assert cli.parse_rate("0.25") == 0.25

    def test_resolutions(self):
        assert cli.parse_resolutions("51,101,201") == [51, 101, 201]

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

    def test_missing_series_is_module_error(self, tmp_path, capsys):
        status = run_cli("identify", "--outdir", tmp_path)
        assert status == 1
        assert "required" in capsys.readouterr().err


class TestSolveSimulate:
    def solve(self, chain_file, out):
        return run_cli(
            "solve", "--chain", chain_file, "--delta", "0.2", "--c", "0.02",
            "--d", "0.01", "--lambda", "1/7", "--n", "21", "--t-end", "150",
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
        # (n = 301), and coarse grids whose solves pass through a slow
        # phase (n = 31) or a weight two-cycle without damping (n = 61)
        rng = np.random.default_rng(seed)
        count = 43
        nu = np.zeros((count, count))
        low = np.arange(count - 1)
        nu[low, low + 1] = 0.7 * rng.uniform(0.9, 1.1, count - 1)
        nu[low + 1, low] = 1.1 * rng.uniform(0.9, 1.1, count - 1)
        chain = RegimeChain(discharges=1.25 + 2.5 * np.arange(count), rates=nu)
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
            "--d", "0.01", "--lambda", "1/7", "--n", "21", "--t-end", "30",
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
            "--lambda-upper", "1", "--n", "21", "--t-end", "150",
            "--tol", "1e-8", "--outdir", out,
        )
        assert status == 0
        summary = json.loads((out / "solve_result.json").read_text())
        assert any("reduced" in note for note in summary["notes"])

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


class TestConvergenceCommand:
    def test_csv_structure(self, tmp_path):
        out = tmp_path / "conv"
        status = run_cli(
            "convergence", "--S", "0.05", "--delta", "0.1", "--c", "0.3",
            "--d", "0.2", "--lambda", "1/7", "--resolutions", "21,41",
            "--dt", "0.01", "--t-end", "250", "--tol", "1e-8", "--outdir", out,
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

"""tools/solver_sweep.py: the iteration evidence behind the solver's stall window."""

import importlib.util
import json
from pathlib import Path

import pytest

from sedopt import pde

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "solver_sweep.py"
spec = importlib.util.spec_from_file_location("solver_sweep", SCRIPT)
solver_sweep = importlib.util.module_from_spec(spec)
spec.loader.exec_module(solver_sweep)


@pytest.mark.parametrize("history, window", [
    ([1.0, 1e-12], 1),                   # converges at once
    ([1.0, 0.4, 0.3, 0.1, 1e-12], 2),    # 0.3 is not half of 0.4, but is of 1.0
    ([1.0, 0.9, 0.8, 0.7, 0.6, 1e-12], 5),  # never halves before the end
    ([1.0, 0.1, 0.2, 0.15, 0.04, 1e-12], 3),  # 0.15 needs the 1.0 three back
])
def test_needed_window_is_the_smallest_that_stops_nothing(history, window):
    assert solver_sweep.needed_window(history) == window


def stops_early(history, window):
    """The stall rule of `solve_stationary` applied to a recorded history."""
    return any(not r <= 0.5 * min(history[:k + 1][:-window], default=float("inf"))
               for k, r in enumerate(history[:-1]))


@pytest.mark.parametrize("history", [
    [1.0, 0.4, 0.3, 0.1, 1e-12],
    [1.0, 0.1, 0.2, 0.15, 0.04, 0.05, 0.03, 1e-12],
])
def test_needed_window_agrees_with_the_stall_rule(history):
    window = solver_sweep.needed_window(history)
    assert not stops_early(history, window)
    assert window == 1 or stops_early(history, window - 1)


# some one-regime fields rise along storage by up to 7e-6 at n = 11 and 31
@pytest.mark.filterwarnings("ignore:field increases along storage")
def test_sweep_on_a_few_seeds(capsys):
    assert solver_sweep.main(["--n", "11", "31", "--seeds", "4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["grids"]) == len(report["single"]) == 4
    for grid in report["grids"] + report["single"]:
        assert grid["seeds"] == 4 and grid["unconverged"] == []
        assert grid["median"] <= grid["p99"] <= grid["worst"]
        assert 1 <= grid["needed_window"] <= pde._STALL_WINDOW // 2


def test_report_lists_each_seed(capsys):
    assert solver_sweep.main(["--n", "11", "--seeds", "3", "--first", "5"]) == 0
    grid = json.loads(capsys.readouterr().out)["grids"][0]
    assert sorted(grid["iterations"]) == ["5", "6", "7"]
    assert max(grid["iterations"].values()) == grid["worst"]


def test_slowest_coarse_seed_converges_quickly():
    # seed 728 at n = 11 took 1046 iterations with an absolute WENO3 eps of
    # 1e-6 and damped updates; eps = 0.1 h^2 and plain updates need 53
    grid = solver_sweep.sweep(11, [728], 1e-9)
    assert grid["unconverged"] == []
    assert grid["worst"] <= 150

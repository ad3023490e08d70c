"""tools/solver_sweep.py: the iteration evidence behind the solver's stall window."""

import importlib.util
import json
from pathlib import Path
from unittest import mock

import pytest

from sedopt import pde
from sedopt.pde import Grid, SolverConfig, solve_stationary

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "solver_sweep.py"
spec = importlib.util.spec_from_file_location("solver_sweep", SCRIPT)
solver_sweep = importlib.util.module_from_spec(spec)
spec.loader.exec_module(solver_sweep)


@pytest.mark.parametrize("history, window", [
    ([1.0, 1e-12], 1),                   # converges at once
    ([1.0, 0.4, 0.3, 0.1, 1e-12], 1),    # every iterate sets a new minimum
    ([1.0, 0.9, 0.8, 0.7, 0.6, 1e-12], 1),  # however slowly
    ([1.0, 0.1, 0.2, 0.15, 0.04, 1e-12], 3),  # 0.2 and 0.15 set none after 0.1
])
def test_needed_window_is_the_smallest_that_stops_nothing(history, window):
    assert solver_sweep.needed_window(history) == window


def stops_early(history, window):
    """The stall rule of `solve_stationary` applied to a recorded history:
    iterate k stops when none of the last `window` residuals is below all
    those before them."""
    return any(min(history[k - window + 1:k + 1]) >= min(history[:k - window + 1])
               for k in range(window, len(history) - 1))


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
        assert grid["seeds"] == 4 and grid["unconverged"] == [] and grid["stopped_early"] == {}
        assert grid["median"] <= grid["p99"] <= grid["worst"]
        assert 1 <= grid["needed_window"] <= pde._STALL_WINDOW // 2
    # 43 regimes never take the one-regime prefix sum, so never its fallback
    assert all(grid["block_sweep_seeds"] == [] for grid in report["grids"])


def test_sweep_lists_the_block_sweep_seeds():
    # seed 3 drains at S = 2.7e-4 with lam = 0.089: at n = 401 its summation
    # factors underflow, and those of seeds 0-2 do not
    grid = solver_sweep.sweep(401, range(4), 1e-9, 0.2, solver_sweep.single_problem)
    assert grid["block_sweep_seeds"] == [3] and grid["unconverged"] == []


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


def test_stopped_early_lists_what_the_stall_rule_stops():
    # under a stall window of 1 the rule in force stops converging coarse
    # solves (one of 3 stops none of these); the sweep runs each under the
    # wide window instead, so it lists those seeds with the window they
    # need, and counts them
    with mock.patch.object(pde, "_STALL_WINDOW", 1):
        grid = solver_sweep.sweep(11, range(6), 1e-9, 0.0)
        stopped = {seed for seed in range(6)
                   if not solve_stationary(*solver_sweep.realistic_problem(seed, 0.0),
                                           Grid(11), SolverConfig(tol=1e-9)).converged}
    assert grid["unconverged"] == [] and sorted(grid["iterations"]) == list(range(6))
    assert stopped and sorted(grid["stopped_early"]) == sorted(stopped)
    assert all(need > 1 for need in grid["stopped_early"].values())
    assert max(grid["stopped_early"].values()) == grid["needed_window"]

"""Iteration counts of the steady-state solver over seeded problems.

    python3 tools/solver_sweep.py --n 11 31 --seeds 1000 [--first 0] [--tol TOL] [--out FILE]

Seed s draws the chain `sedopt.regime.realistic_chain(s)`: 43 regimes on
2.5 m^3/s bins, nearest-neighbour switching with seeded jitter,
Meyer-Peter-Mueller rates and c 0.02, d 0.01, lambda 1/7. Each grid size
is swept in both modes, discounted (delta 0.2) and ergodic (delta 0), and
every discounted entry comes first. Per grid size and mode the report
gives the median, p99 and worst iteration counts, the worst seed, the
unconverged seeds, `worst_seconds`, the longest time a solve took, and
`needed_window`: the smallest stall window that stops none of the
converged solves early. A solve stops as stalled when max |residual| has
set no new minimum in the last W iterations, so it needs W one more than
its longest run of iterates that set none.
`iterations` lists every converged seed's iteration count, so that two
checkouts can be compared seed by seed.
Those entries form the `grids` list. The `single` list sweeps one-regime
problems the same way: seed s draws S log-uniform on [1e-4, 10] and
lambda log-uniform on [1/56, 16], with c 0.2 and d 0.3, wide enough that
one-regime factorizations take both solves of `pde._Howard`: the prefix
solve, and the block solve where the summation factors underflow.
`block_sweep_seeds` lists the seeds whose solve ran at least one
one-regime factorization on the block solve (none in `grids`).
Every solve runs under a stall window of `WIDE_WINDOW` instead of
`pde._STALL_WINDOW`; the window only decides when to stop, so a solve
that converges under both has the same history under both. A seed that
converges only under the wide window, needing more than
`pde._STALL_WINDOW`, is one that the stall rule in force stops as
stalled: `stopped_early` maps each such seed to its needed window.
`unconverged` lists the seeds that do not converge even under the wide
window. Counts and `needed_window` cover every seed that converges under
it. sedopt is imported from `src/` next to this script; JSON goes to
stdout or `--out`.
"""

import argparse
import json
import math
import statistics
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sedopt import pde  # noqa: E402
from sedopt.analytic import CostSpec  # noqa: E402
from sedopt.pde import Grid, SolverConfig, single_regime_chain, solve_stationary  # noqa: E402
from sedopt.regime import realistic_chain  # noqa: E402
from sedopt.transport import SedimentProperties, rates_for_chain  # noqa: E402

DELTAS = (0.2, 0.0)  # discounted, then ergodic
WIDE_WINDOW = 300  # over five times the widest window (54) a converging solve is seen to need


def needed_window(history) -> int:
    """Smallest stall window under which no iterate before the last stops:
    one more than the longest run of iterates that set no new minimum."""
    need, best, best_at = 1, math.inf, 0
    for k, r in enumerate(history):
        if r < best:
            best, best_at = r, k
        need = max(need, k - best_at + 1)
    return need


def realistic_problem(seed: int, delta: float):
    """(chain, rates, costs) of seed s: `realistic_chain(s)`."""
    chain = realistic_chain(seed)
    costs = CostSpec(delta=delta, c=0.02, d=0.01, lam=1.0 / 7.0)
    return chain, rates_for_chain(chain, SedimentProperties()), costs


def single_problem(seed: int, delta: float):
    """(chain, rates, costs) of seed s: one regime, S and lambda log-uniform."""
    S, lam = np.exp(np.random.default_rng(seed).uniform(np.log([1e-4, 1.0 / 56.0]),
                                                        np.log([10.0, 16.0])))
    return single_regime_chain(), np.array([S]), CostSpec(delta=delta, c=0.2, d=0.3, lam=lam)


def solve_watched(chain, rates, costs, grid, config):
    """`solve_stationary` under the stall window `WIDE_WINDOW`, and whether
    a one-regime factorization of the solve took the block solve instead
    of the prefix solve."""
    factor, block = pde._Howard.factor, []

    def watched(sweep, replenish):
        factor(sweep, replenish)
        block.append(sweep.s.size == 1 and not sweep.prefix)
        return sweep

    with mock.patch.object(pde._Howard, "factor", watched), \
            mock.patch.object(pde, "_STALL_WINDOW", WIDE_WINDOW):
        return solve_stationary(chain, rates, costs, grid, config), any(block)


def sweep(n: int, seeds, tol: float, delta: float = DELTAS[0],
          problem=realistic_problem) -> dict:
    grid, config = Grid(n), SolverConfig(tol=tol)
    iterations, unconverged, stopped, window, window_seed, block = {}, [], {}, 0, None, []
    seconds = 0.0
    for seed in seeds:
        start = time.perf_counter()
        result, on_block = solve_watched(*problem(seed, delta), grid, config)
        seconds = max(seconds, time.perf_counter() - start)
        if on_block:
            block.append(seed)
        if not result.converged:
            unconverged.append(seed)
            continue
        iterations[seed] = result.iterations
        need = needed_window(result.residual_history)
        if need > pde._STALL_WINDOW:
            stopped[seed] = need
        if need > window:
            window, window_seed = need, seed
    counts = sorted(iterations.values())
    worst_seed = max(iterations, key=iterations.get, default=None)
    return {
        "n": n,
        "delta": delta,
        "seeds": len(seeds),
        "median": statistics.median(counts) if counts else None,
        "p99": float(np.percentile(counts, 99)) if counts else None,
        "worst": iterations.get(worst_seed),
        "worst_seed": worst_seed,
        "worst_seconds": seconds,
        "unconverged": unconverged,
        "stopped_early": stopped,
        "needed_window": window,
        "needed_window_seed": window_seed,
        "iterations": iterations,
        "block_sweep_seeds": block,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, nargs="+", default=[11, 31], help="grid sizes")
    parser.add_argument("--seeds", type=int, default=1000, help="seeds per grid size")
    parser.add_argument("--first", type=int, default=0, help="first seed")
    parser.add_argument("--tol", type=float, default=SolverConfig.tol,
                        help="bound on max |residual| (default %(default)g)")
    parser.add_argument("--out", type=Path, help="write the JSON here instead of stdout")
    args = parser.parse_args(argv)
    seeds = range(args.first, args.first + args.seeds)
    report = {"tol": args.tol,
              "grids": [sweep(n, seeds, args.tol, delta) for delta in DELTAS for n in args.n],
              "single": [sweep(n, seeds, args.tol, delta, single_problem)
                         for delta in DELTAS for n in args.n]}
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Iteration counts of the steady-state solver over seeded problems.

    python3 tools/solver_sweep.py --n 11 31 --seeds 1000 [--first 0] [--tol 1e-9] [--out FILE]

Seed s draws the chain `sedopt.regime.realistic_chain(s)`: 43 regimes on
2.5 m^3/s bins, nearest-neighbour switching with seeded jitter,
Meyer-Peter-Mueller rates and c 0.02, d 0.01, lambda 1/7. Each grid size
is swept in both modes, discounted (delta 0.2) and ergodic (delta 0), and
every discounted entry comes first. Per grid size and mode the report
gives the median, p99 and worst iteration counts, the worst seed, the
unconverged seeds and `needed_window`: the smallest stall window that
stops none of the converged solves early. A solve stops as
stalled at iterate k when max |residual| r_k is not at most half of every
r_j with j <= k - W, so iterate k needs W >= k - j*, where j* is the last
j whose prefix minimum min(r_0..r_j) is still >= 2 r_k (j* = -1 if none).
`pde._STALL_WINDOW` should be a few times the largest `needed_window`.
`iterations` lists every converged seed's iteration count, so that two
checkouts can be compared seed by seed.
Those entries form the `grids` list. The `single` list sweeps one-regime
problems the same way: seed s draws S log-uniform on [1e-4, 10] and
lambda log-uniform on [1/56, 16], with c 0.2 and d 0.3, wide enough that
both one-regime forward sweeps of `pde._BlockSweep`, the scaled prefix
sum and the doubling scan, run.
The histories are those of the stall rule in force, which match an
unlimited window for every solve that converges. sedopt is imported from
`src/` next to this script; JSON goes to stdout or `--out`.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sedopt.analytic import CostSpec  # noqa: E402
from sedopt.pde import Grid, SolverConfig, single_regime_chain, solve_stationary  # noqa: E402
from sedopt.regime import realistic_chain  # noqa: E402
from sedopt.transport import SedimentProperties, rates_for_chain  # noqa: E402

DELTAS = (0.2, 0.0)  # discounted, then ergodic


def needed_window(history) -> int:
    """Smallest stall window under which no iterate before the last stops."""
    prefix_min = np.minimum.accumulate(np.asarray(history, dtype=float))
    need = 1
    for k, r in enumerate(history[:-1]):
        # prefix_min is nonincreasing: the j with prefix_min[j] >= 2 r form a head
        last = int(np.searchsorted(-prefix_min[:k + 1], -2.0 * r, side="right")) - 1
        need = max(need, k - last)
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


def sweep(n: int, seeds, tol: float, delta: float = DELTAS[0],
          problem=realistic_problem) -> dict:
    grid, config = Grid(n), SolverConfig(tol=tol)
    iterations, unconverged, window, window_seed = {}, [], 0, None
    for seed in seeds:
        result = solve_stationary(*problem(seed, delta), grid, config)
        if not result.converged:
            unconverged.append(seed)
            continue
        iterations[seed] = result.iterations
        need = needed_window(result.residual_history)
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
        "unconverged": unconverged,
        "needed_window": window,
        "needed_window_seed": window_seed,
        "iterations": iterations,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, nargs="+", default=[11, 31], help="grid sizes")
    parser.add_argument("--seeds", type=int, default=1000, help="seeds per grid size")
    parser.add_argument("--first", type=int, default=0, help="first seed")
    parser.add_argument("--tol", type=float, default=1e-9)
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

"""Time the same sedopt work from two checkouts, interleaved in one process.

    taskset -c 0 python3 tools/inprocess_ab.py PARENT_TREE CHANGE_TREE \
        [--pairs N] [--work ITEM ...] [--tiny]

Each tree's `src/sedopt` is loaded under its own package name
(`sedopt_parent`, `sedopt_change`; sedopt imports itself relatively only),
so both run in one interpreter against the same numpy, allocator and CPU
state. Work items:

- `mc-scalar`: criterion 6's Monte Carlo work, `estimate_cost` of the
  benchmark threshold at y0 = 0, 0.3 and 1 (3000 paths each, horizon 200)
  and `policy_gap_check` with shifts -0.15, 0 and 0.15 (1500 paths);
- `mc-43`: `estimate_cost` of 2000 paths on `realistic_chain(3)` under its
  n = 31 policy (solved at tol 1e-9), from (regime 0, y = 1);
- `solve-1`: `table1`'s one-regime work, the refinement study of the
  benchmark at n = 51 ... 801 (tol 1e-10), then 5 ergodic solves at
  n = 401 (criterion 11's costs, tol 1e-12);
- `solve-43`: the discounted n = 31 solve of that chain at tol 1e-9.

Every solve passes its tolerance, so both sides do the same work when
the two checkouts differ in the library's default.

A pair runs an item once on each side, the side that goes first
alternating from pair to pair; a side's time in a pair is the best of
3 calls. Keep the default 200 pairs for a verdict: at 40, the minima of
an A/A run drifted by 2-4% on a shared 2-vCPU host. The JSON printed
gives per item each side's median, 10th percentile and minimum (seconds)
and every pair's times, the change's wins (pairs where it is strictly
faster), `median_ratio`, the median over pairs of change / parent, and
whether both sides returned the same numbers (for `solve-1`, the study's
errors and the last ergodic field). Read neutrality on `median_ratio`
and the 10th percentiles: at 200 pairs the minima of two A/A runs read
+6.1% and -1.2% on `mc-43`, and each run's 10th percentiles agreed
within about 1% (in a busy hour, within 2.3%), while over five A/A runs
the median ratio stayed within 0.9961-1.0044, as a pair's two sides
share the host's load of the moment.
Pin the process to one CPU, as above, so the two sides share a core.
`--tiny` shrinks every item (paths, grid) for a smoke run.
"""

import argparse
import importlib.util
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

SIDES = ("parent", "change")


def load(tree: Path, name: str):
    """`tree/src/sedopt` imported as the package `name`."""
    package = tree.resolve() / "src" / "sedopt"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def mc_scalar(pkg, tiny: bool):
    """Criterion 6's estimates and gap check on one side, ready to call."""
    problem = pkg.analytic.BENCHMARK
    costs = pkg.CostSpec(delta=problem.delta, c=problem.c, d=problem.d, lam=problem.lam)
    policy = pkg.ThresholdPolicy(boundaries=np.array([pkg.solve_smooth_pasting(problem).ybar]))
    paths, gap_paths = (40, 20) if tiny else (3000, 1500)

    def work():
        means = [pkg.estimate_cost(pkg.pde.single_regime_chain(), np.array([problem.S]), policy,
                                   costs, y0, 200.0, paths, seed=seed).mean
                 for y0, seed in ((0.0, 11), (0.3, 12), (1.0, 13))]
        gaps = pkg.policy_gap_check(problem, (-0.15, 0.0, 0.15), horizon=200.0,
                                    n_paths=gap_paths, seed=14)
        return means + [row.mean for row in gaps]
    return work


def chain_43(pkg, tiny: bool):
    chain = pkg.regime.realistic_chain(3)
    rates = pkg.rates_for_chain(chain, pkg.SedimentProperties())
    costs = pkg.CostSpec(delta=0.2, c=0.02, d=0.01, lam=1.0 / 7.0)
    return chain, rates, costs, pkg.Grid(11 if tiny else 31), pkg.SolverConfig(tol=1e-9)


def mc_43(pkg, tiny: bool):
    """2000 paths on the 43-regime chain under its grid policy."""
    chain, rates, costs, grid, config = chain_43(pkg, tiny)
    policy = pkg.extract_policy(pkg.solve_stationary(chain, rates, costs, grid, config).field)
    paths = 20 if tiny else 2000

    def work():
        return [pkg.estimate_cost(chain, rates, policy, costs, 1.0, 200.0, paths, seed=5).mean]
    return work


def solve_1(pkg, tiny: bool):
    """The refinement study of the benchmark, then criterion 11's ergodic solves."""
    problem = pkg.analytic.BENCHMARK
    costs = pkg.CostSpec(delta=0.0, c=0.2, d=0.3, lam=1.0 / 7.0)
    resolutions, n, repeats = ((51, 101), 51, 1) if tiny else ((51, 101, 201, 401, 801), 401, 5)

    def work():
        rows = pkg.convergence_study(problem, resolutions, pkg.SolverConfig(tol=1e-10))
        for _ in range(repeats):
            result = pkg.solve_stationary(pkg.pde.single_regime_chain(), np.array([problem.S]),
                                          costs, pkg.Grid(n), pkg.SolverConfig(tol=1e-12))
        return [row.linf_error for row in rows] + result.field.values.ravel().tolist()
    return work


def solve_43(pkg, tiny: bool):
    """The discounted solve of the 43-regime chain."""
    chain, rates, costs, grid, config = chain_43(pkg, tiny)

    def work():
        result = pkg.solve_stationary(chain, rates, costs, grid, config)
        return result.field.values.ravel().tolist()
    return work


WORK = {"mc-scalar": mc_scalar, "mc-43": mc_43, "solve-1": solve_1, "solve-43": solve_43}


def best_of_3(work) -> float:
    times = []
    for _ in range(3):
        start = perf_counter()
        work()
        times.append(perf_counter() - start)
    return min(times)


def compare(trees: dict[str, Path], items: list[str], pairs: int, tiny: bool) -> dict:
    """Interleaved timings of each item on both sides, summarised."""
    packages = {side: load(tree, f"sedopt_{side}") for side, tree in trees.items()}
    report = {}
    for item in items:
        works = {side: WORK[item](pkg, tiny) for side, pkg in packages.items()}
        same = works["parent"]() == works["change"]()  # also a warm-up call of each
        times = {side: [] for side in SIDES}
        for k in range(pairs):
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                times[side].append(best_of_3(works[side]))
        report[item] = {
            **{side: {"median_s": statistics.median(times[side]),
                      "p10_s": float(np.percentile(times[side], 10)),
                      "min_s": min(times[side]), "times_s": times[side]} for side in SIDES},
            "wins": sum(c < p for p, c in zip(times["parent"], times["change"])),
            "median_ratio": statistics.median(
                c / p for p, c in zip(times["parent"], times["change"])),
            "pairs": pairs,
            "same_output": same,
        }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--pairs", type=int, default=200, help="interleaved pairs per item")
    parser.add_argument("--work", nargs="+", choices=WORK, default=list(WORK),
                        help="items to time (default: all)")
    parser.add_argument("--tiny", action="store_true", help="shrink every item")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    report = compare(dict(zip(SIDES, (args.parent, args.change))), args.work, args.pairs,
                     args.tiny)
    sys.stdout.write(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

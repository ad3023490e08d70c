"""Compare benchmark runs of two checkouts, paired by workload and seed.

    python3 tools/bench_compare.py PARENT_TREE CHANGE_TREE OUT.json

Each tree holds `perfbench/_runs/<workload>-seed<n>/result-trace<0|1>.json`
as written by `perfbench/run.py`. Runs of the two trees with the same
workload, seed and trace setting form a pair. For every metric the output
gives both sides' medians and quartiles, the relative change of the median,
the number of pairs, how many the change wins (better in the direction
`BENCHMARK.json` gives; ties win for neither), the seeds and each side's
environment.

Each metric also gets a verdict. `gain`: the change wins at least nine
tenths of the pairs that are not ties, and its median is better than the
parent's by more than the parent's quartile distance. `worse`: the median
is worse by more than the metric's `bound` in `BENCHMARK.json`, a fraction
of the parent's median (metrics without a bound are never `worse`). `no
change`: anything else. A side whose runs name more than one commit, or an
unknown one, is flagged: its runs may not be of the code it stands for.
A seed that ran on one side only of a workload and trace setting is
flagged too, and a workload and trace setting with no pair at all is
listed under `unpaired`: such runs are left out of every comparison.
Standard library only.
"""

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

RUN_DIR = re.compile(r"(?P<workload>.+)-seed(?P<seed>\d+)$")
RESULT = re.compile(r"result-trace(?P<trace>[01])\.json$")
VOLATILE = ("load1_start", "load1_end")  # differ from run to run


def load_runs(tree: Path) -> dict[tuple[str, int, int], dict]:
    """(workload, seed, trace) -> result record, for every run under the tree."""
    runs = {}
    for path in sorted((tree / "perfbench" / "_runs").glob("*/result-trace*.json")):
        run, result = RUN_DIR.match(path.parent.name), RESULT.match(path.name)
        if run and result:
            key = (run["workload"], int(run["seed"]), int(result["trace"]))
            runs[key] = json.loads(path.read_text())
    return runs


def metric_specs(tree: Path) -> dict[str, dict]:
    """metric name -> its entry in the tree's BENCHMARK.json ("better", and
    "bound" for the end-to-end metrics)."""
    spec = json.loads((tree / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def environment(records: list[dict]) -> dict:
    """The environment the runs share, with the range of the load averages."""
    envs = [r["environment"] for r in records]
    shared = {k: v for k, v in envs[0].items()
              if k not in VOLATILE and all(e.get(k) == v for e in envs)}
    loads = [e[k] for e in envs for k in VOLATILE if k in e]
    if loads:
        shared["load1_range"] = [min(loads), max(loads)]
    return shared


def verdict(metric: dict, bound: float | None) -> str:
    """gain, worse or no change, by the rule in the module docstring."""
    sign = -1.0 if metric["better"] == "higher" else 1.0
    worsening = sign * (metric["change"]["median"] - metric["parent"]["median"])
    untied = metric["pairs"] - metric["ties"]
    if untied and metric["wins"] >= 0.9 * untied and -worsening > metric["parent"]["iqr"]:
        return "gain"
    if bound is not None and worsening > bound * abs(metric["parent"]["median"]):
        return "worse"
    return "no change"


def commit_flags(side: str, records: list[dict]) -> list[str]:
    """Warnings when a side's runs name more than one commit or an unknown one."""
    commits = sorted({str(r["environment"].get("commit", "unknown")) for r in records})
    flags = []
    if len(commits) > 1:
        flags.append(f"{side} runs name {len(commits)} commits: {', '.join(commits)}")
    if any(c.startswith("unknown") for c in commits):
        flags.append(f"{side} runs name an unknown commit")
    return flags


def seeds_by_group(runs: dict) -> dict[tuple[str, int], set[int]]:
    """(workload, trace) -> the seeds run in it."""
    groups: dict[tuple[str, int], set[int]] = {}
    for workload, seed, trace in runs:
        groups.setdefault((workload, trace), set()).add(seed)
    return groups


def one_sided_flags(parent_seeds: set[int], change_seeds: set[int]) -> list[str]:
    """Warnings naming the seeds that ran on one side only."""
    return [f"seeds {sorted(only)} ran on the {side} only"
            for side, only in (("parent", parent_seeds - change_seeds),
                               ("change", change_seeds - parent_seeds)) if only]


def unpaired(parent: dict, change: dict) -> list[dict]:
    """The workload and trace settings without a single pair, with the
    seeds each side ran."""
    ran_parent, ran_change = seeds_by_group(parent), seeds_by_group(change)
    return [{"workload": w, "trace": t, "parent_seeds": sorted(ran_parent.get((w, t), ())),
             "change_seeds": sorted(ran_change.get((w, t), ()))}
            for w, t in sorted(ran_parent.keys() | ran_change.keys())
            if not ran_parent.get((w, t), set()) & ran_change.get((w, t), set())]


def compare(parent: dict, change: dict, specs: dict[str, dict]) -> list[dict]:
    rows = []
    ran_parent, ran_change = seeds_by_group(parent), seeds_by_group(change)
    for workload, trace in sorted(ran_parent.keys() & ran_change.keys()):
        seeds = sorted(ran_parent[workload, trace] & ran_change[workload, trace])
        if not seeds:
            continue
        pairs = [(parent[workload, s, trace], change[workload, s, trace]) for s in seeds]
        metrics = {}
        for name in pairs[0][0]["metrics"]:
            if not all(name in p["metrics"] and name in c["metrics"] for p, c in pairs):
                continue
            old = [p["metrics"][name]["value"] for p, _ in pairs]
            new = [c["metrics"][name]["value"] for _, c in pairs]
            spec = specs.get(name, {})
            better = spec.get("better", "lower")
            sign = -1.0 if better == "higher" else 1.0
            q_old, q_new = quartiles(old), quartiles(new)
            metrics[name] = {
                "unit": pairs[0][0]["metrics"][name]["unit"],
                "better": better,
                "parent": {"median": q_old[1], "q1": q_old[0], "q3": q_old[2],
                           "iqr": q_old[2] - q_old[0]},
                "change": {"median": q_new[1], "q1": q_new[0], "q3": q_new[2],
                           "iqr": q_new[2] - q_new[0]},
                "median_change": (q_new[1] - q_old[1]) / q_old[1] if q_old[1] else None,
                "pairs": len(pairs),
                "wins": sum(sign * (b - a) < 0 for a, b in zip(old, new)),
                "ties": sum(a == b for a, b in zip(old, new)),
            }
            metrics[name]["verdict"] = verdict(metrics[name], spec.get("bound"))
        rows.append({
            "workload": workload,
            "trace": trace,
            "seeds": seeds,
            "failed_operations": {"parent": sum(p["failed"] for p, _ in pairs),
                                  "change": sum(c["failed"] for _, c in pairs)},
            "metrics": metrics,
            "environment": {"parent": environment([p for p, _ in pairs]),
                            "change": environment([c for _, c in pairs])},
            "flags": (commit_flags("parent", [p for p, _ in pairs])
                      + commit_flags("change", [c for _, c in pairs])
                      + one_sided_flags(ran_parent[workload, trace], ran_change[workload, trace])),
        })
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("out", type=Path, help="JSON file to write")
    args = parser.parse_args()
    for tree in (args.parent, args.change):
        if not (tree / "BENCHMARK.json").is_file() or not (tree / "perfbench" / "_runs").is_dir():
            parser.error(f"{tree}: no BENCHMARK.json or no perfbench/_runs/")
    parent, change = load_runs(args.parent), load_runs(args.change)
    rows = compare(parent, change, metric_specs(args.change))
    if not rows:
        print("bench_compare: no workload and seed was run in both trees", file=sys.stderr)
        return 1
    lone = unpaired(parent, change)
    args.out.write_text(json.dumps({"comparisons": rows, "unpaired": lone}, indent=1) + "\n")
    for group in lone:
        print(f"bench_compare: {group['workload']} trace{group['trace']}: no pair, parent seeds "
              f"{group['parent_seeds']}, change seeds {group['change_seeds']}", file=sys.stderr)
    for row in rows:
        for flag in row["flags"]:
            print(f"bench_compare: {row['workload']} trace{row['trace']}: {flag}", file=sys.stderr)
        for name, m in row["metrics"].items():
            rel = "" if m["median_change"] is None else f" ({m['median_change']:+.1%})"
            print(f"{row['workload']} trace{row['trace']} {name}: {m['parent']['median']:.6g} -> "
                  f"{m['change']['median']:.6g} {m['unit']}{rel}, "
                  f"wins {m['wins']}/{m['pairs']}, parent IQR {m['parent']['iqr']:.3g}: "
                  f"{m['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

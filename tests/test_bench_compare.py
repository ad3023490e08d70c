"""tools/bench_compare.py on synthetic benchmark-run trees."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_compare.py"
spec = importlib.util.spec_from_file_location("bench_compare", SCRIPT)
bench_compare = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_compare)

SPEC = {
    "end_to_end": [{"name": "total_ref", "better": "lower", "bound": 0.25},
                   {"name": "pass_frac", "better": "higher", "bound": 0.05}],
    "per_layer": [{"name": "mc.paths", "better": "higher"}],
}


def make_tree(root: Path, runs: dict) -> Path:
    """runs: (workload, seed, trace) -> {metric: value}, plus the run's
    "failed" count and "commit" when they are given."""
    root.mkdir()
    (root / "BENCHMARK.json").write_text(json.dumps(SPEC))
    for (workload, seed, trace), metrics in runs.items():
        run_dir = root / "perfbench" / "_runs" / f"{workload}-seed{seed}"
        run_dir.mkdir(parents=True, exist_ok=True)
        record = {
            "failed": metrics.get("failed", 0),
            "metrics": {name: {"value": v, "unit": "u"} for name, v in metrics.items()
                        if name not in ("failed", "commit")},
            "environment": {"nproc": 2, "load1_start": 0.1 * seed, "load1_end": 0.5,
                            "commit": metrics.get("commit", root.name)},
        }
        (run_dir / f"result-trace{trace}.json").write_text(json.dumps(record))
    return root


def run_script(monkeypatch, parent: Path, change: Path, out: Path) -> int:
    monkeypatch.setattr(sys, "argv", ["bench_compare.py", str(parent), str(change), str(out)])
    return bench_compare.main()


@pytest.fixture()
def trees(tmp_path):
    parent = make_tree(tmp_path / "parent", {
        ("table1", 0, 0): {"total_ref": 10.0, "pass_frac": 0.9, "mc.paths": 5.0},
        ("table1", 1, 0): {"total_ref": 12.0, "pass_frac": 1.0, "mc.paths": 5.0},
        ("table1", 2, 0): {"total_ref": 14.0, "pass_frac": 1.0, "mc.paths": 5.0, "failed": 1},
        ("table1", 3, 0): {"total_ref": 99.0, "pass_frac": 0.0, "mc.paths": 0.0},  # no partner
        ("table1", 0, 1): {"total_ref": 99.0, "pass_frac": 0.0, "mc.paths": 0.0},  # no partner
        ("scalar-mc", 0, 0): {"total_ref": 1.0, "pass_frac": 1.0, "mc.paths": 1.0},  # no partner
    })
    change = make_tree(tmp_path / "change", {
        ("table1", 0, 0): {"total_ref": 9.0, "pass_frac": 1.0, "mc.paths": 6.0},
        ("table1", 1, 0): {"total_ref": 13.0, "pass_frac": 1.0, "mc.paths": 4.0},
        ("table1", 2, 0): {"total_ref": 14.0, "pass_frac": 0.8, "mc.paths": 5.0},
        ("table1", 5, 0): {"total_ref": 1.0, "pass_frac": 1.0, "mc.paths": 9.0},  # no partner
        ("realistic43", 0, 0): {"total_ref": 1.0, "pass_frac": 1.0, "mc.paths": 1.0},
    })
    return parent, change


def test_pairs_by_workload_seed_and_trace(trees, tmp_path, monkeypatch):
    out = tmp_path / "BENCH.json"
    assert run_script(monkeypatch, *trees, out) == 0
    rows = json.loads(out.read_text())["comparisons"]
    # unpartnered seeds, the trace-1 run and one-sided workloads drop out
    assert [(r["workload"], r["trace"], r["seeds"]) for r in rows] == [("table1", 0, [0, 1, 2])]
    assert rows[0]["failed_operations"] == {"parent": 1, "change": 0}
    assert all(m["pairs"] == 3 for m in rows[0]["metrics"].values())


def test_one_sided_seeds_and_groups_flagged(trees, tmp_path, monkeypatch, capsys):
    out = tmp_path / "BENCH.json"
    run_script(monkeypatch, *trees, out)
    result = json.loads(out.read_text())
    assert result["comparisons"][0]["flags"] == ["seeds [3] ran on the parent only",
                                                 "seeds [5] ran on the change only"]
    assert result["unpaired"] == [
        {"workload": "realistic43", "trace": 0, "parent_seeds": [], "change_seeds": [0]},
        {"workload": "scalar-mc", "trace": 0, "parent_seeds": [0], "change_seeds": []},
        {"workload": "table1", "trace": 1, "parent_seeds": [0], "change_seeds": []},
    ]
    err = capsys.readouterr().err
    assert "table1 trace0: seeds [3] ran on the parent only" in err
    assert "table1 trace1: no pair, parent seeds [0], change seeds []" in err


def test_wins_follow_the_declared_direction_and_ties_win_for_neither(trees, tmp_path,
                                                                      monkeypatch):
    out = tmp_path / "BENCH.json"
    run_script(monkeypatch, *trees, out)
    metrics = json.loads(out.read_text())["comparisons"][0]["metrics"]
    # lower is better: 10 -> 9 wins, 12 -> 13 loses, 14 -> 14 ties
    assert (metrics["total_ref"]["wins"], metrics["total_ref"]["ties"]) == (1, 1)
    # higher is better: 0.9 -> 1 wins, 1 -> 1 ties, 1 -> 0.8 loses
    assert (metrics["pass_frac"]["wins"], metrics["pass_frac"]["ties"]) == (1, 1)
    assert metrics["pass_frac"]["better"] == "higher"
    # a per-layer metric is read from BENCHMARK.json too: 5 -> 6 wins
    assert (metrics["mc.paths"]["wins"], metrics["mc.paths"]["ties"]) == (1, 1)


def test_medians_and_quartiles_written(trees, tmp_path, monkeypatch):
    out = tmp_path / "BENCH.json"
    run_script(monkeypatch, *trees, out)
    total = json.loads(out.read_text())["comparisons"][0]["metrics"]["total_ref"]
    # inclusive quartiles of (10, 12, 14) and of (9, 13, 14)
    assert total["parent"] == {"median": 12.0, "q1": 11.0, "q3": 13.0, "iqr": 2.0}
    assert total["change"] == {"median": 13.0, "q1": 11.0, "q3": 13.5, "iqr": 2.5}
    assert total["median_change"] == pytest.approx(1.0 / 12.0)
    assert total["unit"] == "u"


def test_no_common_run_fails(tmp_path, monkeypatch):
    parent = make_tree(tmp_path / "parent", {("table1", 0, 0): {"total_ref": 1.0}})
    change = make_tree(tmp_path / "change", {("table1", 1, 0): {"total_ref": 1.0}})
    out = tmp_path / "BENCH.json"
    assert run_script(monkeypatch, parent, change, out) == 1
    assert not out.exists()


def ten_pairs(tmp_path, parent_values, change_values, **extra):
    parent = make_tree(tmp_path / "parent", {("w", k, 0): {"total_ref": v, **extra.get("p", {})}
                                             for k, v in enumerate(parent_values)})
    change = make_tree(tmp_path / "change", {("w", k, 0): {"total_ref": v, **extra.get("c", {})}
                                             for k, v in enumerate(change_values)})
    return parent, change


def compare_trees(monkeypatch, tmp_path, parent, change) -> dict:
    out = tmp_path / "BENCH.json"
    assert run_script(monkeypatch, parent, change, out) == 0
    return json.loads(out.read_text())["comparisons"][0]


PARENT = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]  # IQR 0.175


@pytest.mark.parametrize("change, expected", [
    ([v - 1.0 for v in PARENT], "gain"),  # 10/10 wins, median 1 below
    ([v - 1.0 for v in PARENT[:9]] + [11.0], "gain"),  # 9/10
    ([v - 1.0 for v in PARENT[:8]] + [11.0, 11.0], "no change"),  # 8/10
    ([v - 0.1 for v in PARENT], "no change"),  # 10/10, but within the parent's IQR
    (PARENT[:2] + [v - 1.0 for v in PARENT[2:]], "gain"),  # 8/8 untied pairs
    ([v + 2.0 for v in PARENT], "no change"),  # worse by 20%, inside the 25% bound
    ([v + 3.0 for v in PARENT], "worse"),  # worse by 30%
])
def test_verdicts(tmp_path, monkeypatch, change, expected):
    row = compare_trees(monkeypatch, tmp_path, *ten_pairs(tmp_path, PARENT, change))
    assert row["metrics"]["total_ref"]["verdict"] == expected
    assert row["flags"] == []


def test_worse_follows_the_declared_direction(tmp_path, monkeypatch):
    parent = make_tree(tmp_path / "parent", {("w", k, 0): {"pass_frac": 1.0, "mc.paths": 9.0}
                                             for k in range(3)})
    change = make_tree(tmp_path / "change", {("w", k, 0): {"pass_frac": 0.9, "mc.paths": 1.0}
                                             for k in range(3)})
    metrics = compare_trees(monkeypatch, tmp_path, parent, change)["metrics"]
    assert metrics["pass_frac"]["verdict"] == "worse"  # lower, by more than 5%
    assert metrics["mc.paths"]["verdict"] == "no change"  # no bound: never worse


@pytest.mark.parametrize("commits, flag", [
    ({"p": {"commit": "unknown (not a git checkout)"}}, "parent runs name an unknown commit"),
    ({"c": {"commit": "unknown"}}, "change runs name an unknown commit"),
])
def test_unknown_commit_flagged(tmp_path, monkeypatch, capsys, commits, flag):
    row = compare_trees(monkeypatch, tmp_path, *ten_pairs(tmp_path, PARENT, PARENT, **commits))
    assert row["flags"] == [flag]
    assert flag in capsys.readouterr().err


def test_mixed_commits_flagged(tmp_path, monkeypatch):
    parent = make_tree(tmp_path / "parent", {("w", k, 0): {"total_ref": 1.0, "commit": f"c{k % 2}"}
                                             for k in range(4)})
    change = make_tree(tmp_path / "change", {("w", k, 0): {"total_ref": 1.0} for k in range(4)})
    row = compare_trees(monkeypatch, tmp_path, parent, change)
    assert row["flags"] == ["parent runs name 2 commits: c0, c1"]

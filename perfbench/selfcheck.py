"""The benchmark's own self-check.

    python3 perfbench/selfcheck.py

1. The tracer: the self times of nested spans sum to the root's duration,
   `check_nesting` passes on well-nested spans and fails on a span left
   open, and `uninstall` puts back every wrapped function. The speed probe's
   cost arithmetic on made-up kernel runs.
2. A tiny-size smoke run of each workload, traced and untraced: the last
   line is the result object BENCHMARK.json promises, with every metric it
   names and every check passing.
3. A copy holding only BENCHMARK.json and perfbench/ exits non-zero
   without printing a result.

Exits non-zero if any part fails. Takes about half a minute.
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path
from time import perf_counter

from speed import SpeedProbe
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
failures = []


def report(name: str, ok: bool, detail: str) -> None:
    print(f"selfcheck {'PASS' if ok else 'FAIL'} {name}: {detail}", flush=True)
    if not ok:
        failures.append(name)


def busy(seconds: float) -> None:
    end = perf_counter() + seconds
    while perf_counter() < end:
        pass


def check_tracer() -> None:
    module = types.SimpleNamespace(leaf=lambda: busy(0.002))
    original = module.leaf
    tracer = Tracer()
    tracer.wrap(module, "leaf", "leaf", on_result=lambda counts, _: counts.update(["leaf"]))
    with tracer.span("root"):
        busy(0.001)
        with tracer.span("middle"):
            module.leaf()
            busy(0.001)
            module.leaf()
        module.leaf()
    tracer.uninstall()
    own = tracer.self_times()
    root = tracer.durations()[0]
    report("tracer.self_times_sum_to_root", abs(sum(own) - root) <= 1e-12 and min(own) >= 0.0,
           f"{len(own)} spans, sum of self times - root duration = {sum(own) - root:.1e} s")
    report("tracer.parents", tracer.parents == [-1, 0, 1, 1, 0], f"parents {tracer.parents}")
    nested, detail = tracer.check_nesting()
    broken = Tracer()
    with broken.span("root"):
        broken._open("never closed")
    broken_nested, broken_detail = broken.check_nesting()
    report("tracer.check_nesting", nested and not broken_nested,
           f"well nested: {detail}; one span left open: {broken_detail}")
    report("tracer.counts_and_uninstall", tracer.counts["leaf"] == 3 and module.leaf is original,
           f"{tracer.counts['leaf']} counted calls, original restored: {module.leaf is original}")


def check_speed() -> None:
    probe = SpeedProbe()
    probe.ends, probe.durations = [1.0, 2.0, 3.0], [0.1, 0.2, 0.1]
    # stretches 0.5-0.9, 1.0-1.8, 2.0-2.9 end in kernel runs of 0.1, 0.2, 0.1 s;
    # the tail 3.0-3.5 runs at the last speed
    costs = (probe.cost(0.5, 3.5), probe.cost(0.2, 0.4), probe.kernel_time(0.5, 3.5))
    ok = all(abs(a - b) < 1e-9 for a, b in zip(costs, (4 + 4 + 9 + 5, 2.0, 0.4)))
    report("speed.cost", ok, f"cost, cost before any kernel run, kernel time = {costs}")


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_smoke(workload: str, trace: int) -> None:
    name = f"smoke.{workload}.trace{trace}"
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    result = last_json(proc.stdout)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    problems = []
    if proc.returncode != 0:
        problems.append(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    if result is None:
        problems.append("last line is not JSON")
    else:
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"keys {sorted(result)}")
        if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
            problems.append(f"correct {result.get('correct')}, failed {result.get('failed')}")
        got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
        if got != expected:
            problems.append(f"metrics differ from BENCHMARK.json: "
                            f"{sorted(set(got.items()) ^ set(expected.items()))}")
        if not trace and not all(v["value"] > 0 for v in result["metrics"].values()):
            problems.append("an end-to-end metric is not positive")
    report(name, not problems, "; ".join(problems) or
           f"{result['attempted']} operations, {len(expected)} metrics")


def check_bare_copy() -> None:
    bare = ROOT / "perfbench" / "_runs" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "table1", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180, check=False,
    )
    shutil.rmtree(bare)
    report("bare_copy_fails", proc.returncode != 0 and last_json(proc.stdout) is None,
           f"exit {proc.returncode}, stderr: {proc.stderr.strip()[-120:]}")


if __name__ == "__main__":
    check_tracer()
    check_speed()
    for workload in ("table1", "scalar-mc", "realistic43"):
        for trace in (0, 1):
            check_smoke(workload, trace)
    check_bare_copy()
    print(f"selfcheck: {len(failures)} failed" + (f" ({', '.join(failures)})" if failures else ""))
    sys.exit(1 if failures else 0)

"""sedopt benchmark: three seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload table1 --seed 0 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all      # each workload in turn, one child process each

Run it from the repository root. sedopt is imported from `src/` beside
this directory, never from an installed copy. A workload runs in one
process on one thread; BLAS threads are pinned to 1 before numpy loads.

The timed steps repeat while another repetition fits in `--seconds`, and
run at least once. A step that runs several times, within a repetition or
across repetitions, is timed by the median over its runs. Times are
measured in runs of a reference kernel (`speed.py`), so that the host's
speed cancels; wall seconds are printed beside them. `--trace 0` prints the
end-to-end metrics. `--trace 1` runs the same repetitions, then
one more with spans around every layer, and prints the per-layer metrics.
The last line of standard output is one JSON object; the lines before it
name every metric with its unit and give the checks and the environment.
perfbench/README.md says what each metric means.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / "perfbench" / "_runs"
NAMES = ("table1", "scalar-mc", "realistic43")
SETUP_REPEATS = 7
IMPORT_ROUNDS = 2  # before the timed repetitions, and again after them
SEDOPT_MODULES = "numpy, scipy, sedopt, sedopt.cli"
# A fixed yardstick for the host's speed at importing: sedopt's third-party
# imports as they stand. No change to sedopt's code moves its time.
REF_MODULES = "numpy, scipy.sparse.csgraph"
REF_IMPORT_S = 0.4  # about its time on the 2-vCPU Xeon VM the benchmark was built on
NO_WAIT_NOTE = ("one process, one thread: no layer waits on another, "
                "so per-layer waiting time does not apply")


def import_sedopt() -> None:
    """Import sedopt from the checkout's `src/`, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "sedopt" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no sedopt sources under {src}")
    sys.path.insert(0, str(src))
    import sedopt

    if Path(sedopt.__file__).resolve().parent != (src / "sedopt").resolve():
        raise SystemExit(f"perfbench: sedopt imported from {sedopt.__file__}, not {src}")


def import_rounds() -> list[tuple[float, float]]:
    """Seconds to import sedopt, then the reference modules, each in a fresh interpreter.

    On a shared host the same import runs up to 1.6x slower, both from one
    interpreter to the next and in spells of minutes that the reference
    kernel does not follow. A spell slows the two imports of a round alike,
    so their ratio holds; the median over rounds made before and after the
    timed repetitions removes most of the rest.
    """
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def seconds_to_import(modules: str) -> float:
        code = f"import time; start = time.perf_counter(); import {modules}; " \
               "print(time.perf_counter() - start)"
        return float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                    capture_output=True, text=True).stdout)

    return [(seconds_to_import(SEDOPT_MODULES), seconds_to_import(REF_MODULES))
            for _ in range(IMPORT_ROUNDS)]


def prepare_seconds(workload) -> float:
    """Fastest time of input generation and warm-up, as for the imports."""
    from workloads import Bench

    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        workload.prepare()
        workload.warm_up(Bench(Tracer()))
        times.append(perf_counter() - start)
    return min(times)


def install_wrappers(tracer: Tracer, full: bool) -> None:
    """Wrap each function at the module attribute its callers look up.

    Untraced repetitions wrap only `solve_stationary`, for the convergence
    counts the checks need: a handful of spans per repetition.
    """
    from sedopt import analytic, mc, pde, transport

    def solved(counts, result):
        counts["pde.iterations"] += result.iterations
        if result.field.costs.delta > 0:
            counts["pde.discounted_solves"] += 1
            counts["pde.unconverged"] += not result.converged

    # cli, convergence_study and the benchmark all call it through sedopt.pde
    tracer.wrap(pde, "solve_stationary", "pde.solve_stationary", solved)
    if not full:
        return

    def sampled(counts, path):
        counts["regime.segments"] += path.regimes.size

    def estimated(counts, estimate):
        counts["mc.paths"] += estimate.n_paths

    tracer.wrap(mc, "sample_regime_path", "regime.sample_regime_path", sampled)
    tracer.wrap(mc, "estimate_cost", "mc.estimate_cost", estimated)
    tracer.wrap(mc, "policy_gap_check", "mc.policy_gap_check")
    tracer.wrap(pde, "convergence_study", "pde.convergence_study")
    tracer.wrap(pde, "extract_policy", "pde.extract_policy")
    tracer.wrap(pde, "write_value_field_csv", "pde.csv")
    tracer.wrap(pde, "write_free_boundary_csv", "pde.csv")
    tracer.wrap(transport, "rates_for_chain", "transport.rates_for_chain")
    # convergence_study, policy_gap_check and the benchmark each look it up
    # in their own module
    for module in (analytic, pde, mc):
        tracer.wrap(module, "solve_smooth_pasting", "analytic.solve_smooth_pasting")


def run_repetition(workload, traced: bool):
    """One pass over the timed steps inside a root span.

    An untraced repetition runs under a SpeedProbe, so its steps can be
    measured in reference-kernel runs. The traced one does not, so no
    kernel time lands in a span.
    """
    from speed import SpeedProbe
    from workloads import Bench

    tracer = Tracer()
    install_wrappers(tracer, full=traced)
    bench = Bench(tracer)
    bench.probe = None if traced else SpeedProbe()
    try:
        with bench.probe or contextlib.nullcontext(), tracer.span("workload"):
            workload.run(bench)
    except Exception:  # counted as a failed operation and reported
        bench.error = traceback.format_exc()
    finally:
        tracer.uninstall()
    return bench


def seconds(bench, start: float, end: float) -> float:
    """Wall time of [start, end], less the time the speed probe's kernel took."""
    return end - start - (bench.probe.kernel_time(start, end) if bench.probe else 0.0)


def step_medians(reps) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
    """Median seconds and median kernel-run cost of each step over its runs."""
    secs: dict[str, list[float]] = {}
    costs: dict[str, list[float]] = {}
    for bench in reps:
        for name, intervals in bench.steps.items():
            secs.setdefault(name, []).extend(seconds(bench, *i) for i in intervals)
            costs.setdefault(name, []).extend(bench.probe.cost(*i) for i in intervals)
    return ({k: statistics.median(v) for k, v in secs.items()},
            {k: statistics.median(v) for k, v in costs.items()},
            {k: len(v) for k, v in secs.items()})


def file_bytes(paths) -> int:
    return sum(p.stat().st_size for p in paths if p.is_file())


def per_layer(workload, seed: int, bench, untraced_total: float) -> dict:
    """Per-layer metrics from the traced repetition, plus kernel timings."""
    import numpy as np
    from sedopt import transport
    from workloads import Realistic43, realistic_chain, residual_us

    tracer = bench.tracer
    traced_total = seconds(bench, *bench.interval)
    own = tracer.self_by_name()
    counts = tracer.counts

    def per(num, den):
        return num / den * 1e6 if den else 0.0

    chain, rates, costs, n = workload.residual_case()
    paper = realistic_chain(np.random.default_rng(seed))
    paper_rates = transport.rates_for_chain(paper, transport.SedimentProperties())
    outputs = [f for d in workload.cli_outdirs if d.is_dir() for f in d.iterdir()]
    library_s = sum(t for name, t in own.items() if name != "workload" and not name.startswith("step."))
    return {
        "regime.sample_regime_path.self_s": (own["regime.sample_regime_path"], "s"),
        "regime.segments": (counts["regime.segments"], "count"),
        "regime.us_per_segment": (per(own["regime.sample_regime_path"], counts["regime.segments"]), "us"),
        "mc.estimate_cost.self_s": (own["mc.estimate_cost"], "s"),
        "mc.paths": (counts["mc.paths"], "count"),
        "mc.self_us_per_path": (per(own["mc.estimate_cost"], counts["mc.paths"]), "us"),
        "pde.solve_stationary.self_s": (own["pde.solve_stationary"], "s"),
        "pde.iterations": (counts["pde.iterations"], "count"),
        "pde.us_per_iteration": (per(own["pde.solve_stationary"], counts["pde.iterations"]), "us"),
        "pde.unconverged": (counts["pde.unconverged"], "count"),
        "pde.residual.us": (residual_us(chain, rates, costs, n), "us"),
        "pde.residual.us_paper": (residual_us(paper, paper_rates, Realistic43.costs, 301), "us"),
        # computed, not measured: read the field once, write the residual once
        "pde.residual.bytes_computed": (16 * chain.count * n, "B"),
        "pde.extract_policy.self_s": (own["pde.extract_policy"], "s"),
        "pde.csv.self_s": (own["pde.csv"], "s"),
        "pde.csv.bytes": (file_bytes(f for f in outputs
                                     if f.name in ("value_field.csv", "free_boundary.csv")), "B"),
        "pde.convergence_study.self_s": (own["pde.convergence_study"], "s"),
        "analytic.solve_smooth_pasting.self_s": (own["analytic.solve_smooth_pasting"], "s"),
        "transport.rates_for_chain.self_s": (own["transport.rates_for_chain"], "s"),
        "cli.main.convergence.self_s": (own["cli.main.convergence"], "s"),
        "cli.main.solve.self_s": (own["cli.main.solve"], "s"),
        "cli.main.simulate.self_s": (own["cli.main.simulate"], "s"),
        "cli.output_bytes": (file_bytes(outputs), "B"),
        "trace.total_s": (traced_total, "s"),
        "trace.overhead_s": (traced_total - untraced_total, "s"),
        "trace.uncovered_s": (traced_total - library_s, "s"),
        "trace.spans": (len(tracer.names), "count"),
    }


def environment(load_start: float) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ[var] for var in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": git_commit(),
        "load1_start": load_start,
        "load1_end": os.getloadavg()[0],
    }


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git checkout."""
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"


def run_workload(args) -> int:
    load_start = os.getloadavg()[0]
    import_sedopt()
    from workloads import WORKLOADS

    outdir = RUNS / f"{args.workload}-seed{args.seed}{'-tiny' if args.size == 'tiny' else ''}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, args.size == "tiny", outdir)

    rounds, prepare_s = import_rounds(), prepare_seconds(workload)

    reps = []
    while True:
        reps.append(run_repetition(workload, traced=False))
        last = reps[-1].interval[1] - reps[-1].interval[0]
        if reps[-1].error or reps[-1].interval[1] - reps[0].interval[0] + last > args.seconds:
            break
    rounds += import_rounds()
    import_ratio = statistics.median(sedopt_s / ref_s for sedopt_s, ref_s in rounds)
    ref_import_s = statistics.median(ref_s for _, ref_s in rounds)
    benches = list(reps)
    if args.trace and not reps[-1].error:
        traced = run_repetition(workload, traced=True)
        benches.append(traced)
        traced.check("trace.spans_nested", traced.tracer.check_nesting)
        traced.tracer.dump(outdir / "spans.json")

    errors = [b.error for b in benches if b.error]
    attempted = sum(b.attempted for b in benches) + len(errors)
    failed = sum(b.failed for b in benches) + len(errors)
    lines = [f"perfbench: workload {args.workload}, seed {args.seed}, size {args.size}, "
             f"trace {args.trace}, {len(reps)} untraced repetition(s) in a {args.seconds} s budget"]
    metrics: dict = {}
    if not errors:
        total_s = statistics.median(seconds(b, *b.interval) for b in reps)
        total_ref = statistics.median(b.probe.cost(*b.interval) for b in reps)
        steps, step_costs, runs = step_medians(reps)
        if args.trace:
            metrics = per_layer(workload, args.seed, benches[-1], total_s)
        else:
            metrics = {
                "setup_s": ((import_ratio + prepare_s / ref_import_s) * REF_IMPORT_S, "s"),
                "total_ref": (total_ref, "ref"),
                "solve_ref": (step_costs["solve"], "ref"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
                "err": (workload.err, "1"),
                "pass_frac": ((attempted - failed) / attempted, "1"),
            }
        lines.append(f"figure total_s = {total_s:.6g} s ({total_ref:.6g} ref)")
        lines.append(f"figure setup: imports {import_ratio:.6g} x the reference import, "
                     f"whose median is {ref_import_s:.6g} s ({2 * IMPORT_ROUNDS} rounds); "
                     f"inputs and warm-up {prepare_s:.6g} s (fastest of {SETUP_REPEATS}); "
                     f"setup_s takes the reference import as {REF_IMPORT_S} s")
        lines.extend(f"step {name} = {steps[name]:.6g} s ({step_costs[name]:.6g} ref), "
                     f"median of {runs[name]}" for name in steps)
        for name, (value, unit) in workload.figures(steps).items():
            lines.append(f"figure {name} = {value:.6g} {unit}")
    printed = set()  # repetitions repeat their checks; show each once, and every failure
    for name, ok, detail in (c for b in benches for c in b.checks):
        if ok and name in printed:
            continue
        printed.add(name)
        lines.append(f"check {'PASS' if ok else 'FAIL'} {name}: {detail}")
    for error in errors:
        lines.append("error: " + error.strip().replace("\n", "\n    "))
    commands = sum(b.commands for b in benches)
    lines.append(f"operations: {attempted} attempted ({commands} CLI commands, "
                 f"{attempted - commands - len(errors)} checks, {len(errors)} raised), "
                 f"{failed} failed, fail_frac = {failed}/{attempted} = {failed / attempted:.4g}")
    lines.extend(f"metric {name} = {value!r} {unit}" for name, (value, unit) in metrics.items())
    if args.trace:
        lines.append(f"note: {NO_WAIT_NOTE}; spans written to {outdir / 'spans.json'}")
    env = environment(load_start)
    lines.append("environment: " + json.dumps(env))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": int(value) if unit in ("count", "B") else float(value),
                           "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (outdir / f"result-trace{args.trace}.json").write_text(json.dumps(
        {**result, "environment": env, "report": lines}, indent=1) + "\n")
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own child process, one after another."""
    status = 0
    for name in NAMES:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size],
            check=False,
        )
        status = status or child.returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0,
                        help="measuring budget; the timed steps run at least once")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for the self-check")
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

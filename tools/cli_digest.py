"""SHA-256 of every file a fixed set of seeded CLI runs writes.

    python3 tools/cli_digest.py TREE [--out FILE]

Imports sedopt from `TREE/src` and, in a fresh temporary directory, runs
`sedopt.cli.main` on a seeded 6-regime chain and a seeded 400-sample
discharge series: discounted, ergodic and `--lambda-upper` solves (n = 41,
21, 21), `simulate` with the discounted policy and `--per-path`, an
ergodic `simulate`, `exact --samples 33` and an ergodic `exact`,
`convergence` at 21,41,81 and `identify`. At the paper's size it also
solves a seeded 43-regime nearest-neighbour chain at n = 301, discounted
and ergodic, and simulates 500 paths of the discounted policy. A seeded
one-regime chain under a one-threshold policy runs the engine's still
branch, taken by a start regime with no way out (`simulate-single`). The
same chain under a store 1000 times larger drains about 5.2e-5 a day, so at
n = 301 its factorizations' summation factors underflow and the one-regime
system takes the block solve (`solve-single-faint`, discounted and
ergodic; the ergodic one also takes the prefix solve). Each
run writes into its own outdir, named after the run. The JSON maps each
`run/file` to its digest and each run to its exit status. The temporary
path is masked in each `run_config.json`, so digests of two checkouts, or
of two runs of one, compare equal when their outputs are byte-identical.
"""

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

CHAIN = "chain.json"
SERIES = "series.csv"
PAPER = "paper_chain.json"
POLICY = "solve/free_boundary.csv"
PAPER_POLICY = "solve-paper/free_boundary.csv"
SINGLE = "single_chain.json"
SINGLE_POLICY = "free_boundary.csv"
FAINT = "faint_props.json"
INPUTS = (CHAIN, SERIES, PAPER, POLICY, PAPER_POLICY, SINGLE, SINGLE_POLICY, FAINT)

# run name -> argv; a run's name starts with its command
RUNS = {
    "solve": ["solve", "--chain", CHAIN, "--n", "41"],
    "solve-ergodic": ["solve", "--chain", CHAIN, "--delta", "0", "--n", "21"],
    "solve-ambiguity": ["solve", "--chain", CHAIN, "--lambda-upper", "1/2", "--n", "21"],
    "simulate": ["simulate", "--chain", CHAIN, "--policy", POLICY, "--paths", "200",
                 "--horizon", "50", "--seed", "7", "--per-path"],
    "simulate-ergodic": ["simulate", "--chain", CHAIN, "--delta", "0", "--paths", "200",
                         "--horizon", "50", "--seed", "7"],
    "exact": ["exact", "--S", "0.05", "--samples", "33"],
    "exact-ergodic": ["exact", "--S", "0.05", "--delta", "0"],
    "convergence": ["convergence", "--S", "0.05", "--resolutions", "21,41,81"],
    "identify": ["identify", "--series", SERIES, "--count", "8"],
    "solve-paper": ["solve", "--chain", PAPER, "--n", "301"],
    "solve-paper-ergodic": ["solve", "--chain", PAPER, "--delta", "0", "--n", "301"],
    "simulate-paper": ["simulate", "--chain", PAPER, "--policy", PAPER_POLICY,
                       "--paths", "500", "--horizon", "50", "--seed", "7"],
    "simulate-single": ["simulate", "--chain", SINGLE, "--policy", SINGLE_POLICY,
                        "--paths", "200", "--horizon", "50", "--seed", "7", "--per-path"],
    "solve-single-faint": ["solve", "--chain", SINGLE, "--props", FAINT, "--n", "301"],
    "solve-single-faint-ergodic": ["solve", "--chain", SINGLE, "--props", FAINT,
                                   "--delta", "0", "--n", "301"],
}


def write_inputs(root: Path) -> None:
    """The seeded chains, discharge series and one-regime policy, written
    directly, not through sedopt."""
    rng = np.random.default_rng(6)
    discharges = 10.0 + 15.0 * np.arange(6) + rng.uniform(0.0, 5.0, 6)
    rates = rng.uniform(0.05, 0.5, (6, 6))
    np.fill_diagonal(rates, 0.0)
    chain = {"discharges": discharges.tolist(), "rates": rates.tolist()}
    (root / CHAIN).write_text(json.dumps(chain) + "\n")
    flows = np.abs(15.0 + np.cumsum(rng.normal(0.0, 1.5, 400)))
    rows = [f"{day},{flow!r}" for day, flow in enumerate(flows.tolist())]
    (root / SERIES).write_text("\n".join(["timestamp,discharge_m3s", *rows]) + "\n")
    # the paper's shape: 43 regimes on 2.5 m^3/s bins, nearest-neighbour switching
    low = np.arange(42)
    rates = np.zeros((43, 43))
    rates[low, low + 1] = 0.7 * rng.uniform(0.9, 1.1, 42)
    rates[low + 1, low] = 1.1 * rng.uniform(0.9, 1.1, 42)
    paper = {"discharges": (1.25 + 2.5 * np.arange(43)).tolist(), "rates": rates.tolist()}
    (root / PAPER).write_text(json.dumps(paper) + "\n")
    # one regime, never left: 5 m^3/s drains about 0.052 a day, near the benchmark's S
    single = {"discharges": [5.0], "rates": [[0.0]]}
    (root / SINGLE).write_text(json.dumps(single) + "\n")
    (root / SINGLE_POLICY).write_text("regime,q,Ybar\n0,5,0.6\n")
    # a store 1000 times larger drains about 5.2e-5 a day
    (root / FAINT).write_text(json.dumps({"capacity": 1e5}) + "\n")


def digest(tree: Path) -> dict:
    sys.path.insert(0, str(tree.resolve() / "src"))
    from sedopt import cli

    files, status = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_inputs(root)
        for name, argv in RUNS.items():
            argv = [str(root / a) if a in INPUTS else a for a in argv]
            status[name] = cli.main([*argv, "--outdir", str(root / name)])
        for path in sorted(root.glob("*/*")):
            data = path.read_bytes()
            if path.name == "run_config.json":
                data = data.replace(tmp.encode(), b"TMP")
            files[f"{path.parent.name}/{path.name}"] = hashlib.sha256(data).hexdigest()
    return {"files": files, "status": status}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", type=Path, help="checkout whose src/ to import")
    parser.add_argument("--out", type=Path, help="write the JSON here instead of stdout")
    args = parser.parse_args(argv)
    text = json.dumps(digest(args.tree), indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

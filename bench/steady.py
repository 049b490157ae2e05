"""Steadiness check: run workloads repeatedly and report each metric's spread.

    python3 bench/steady.py [--workloads sweep,certify,beams,cli] [--runs 10]
                            [--seconds S]

Runs `bench/run.py --trace 0` `--runs` times per workload, with seeds 1, 2,
..., on the same code.  For every metric it prints the median, the quartiles (as
statistics.quantiles(n=4) gives them) and the spread, (Q3 - Q1) / median.
A spread larger than the metric's bound in BENCHMARK.json is flagged, as is a
share of failed operations that differs between runs.  Exits 1 if anything
is flagged.  The runs are written to bench/out/steady-<workload>.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, stdin=subprocess.DEVNULL)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {out.returncode}:\n"
                         f"{out.stdout}{out.stderr}")
    return json.loads(lines[-1])


def summarize(workload, results, bounds):
    """Print one row per metric; return the list of flagged problems."""
    flagged = []
    shares = {(r["failed"], r["attempted"]) for r in results}
    if len({f / a for f, a in shares}) != 1:
        flagged.append(f"{workload}: failed share differs between runs: {sorted(shares)}")
    print(f"\n{workload}: {len(results)} runs, failed/attempted "
          + ", ".join(f"{f}/{a}" for f, a in sorted(shares)))
    print(f"  {'metric':<45} {'median':>12} {'Q1':>12} {'Q3':>12} {'spread':>8} {'bound':>6}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds[name]
        mark = ""
        if spread > bound:
            mark = "  OVER BOUND"
            flagged.append(f"{workload}: {name} spread {spread:.3f} > bound {bound}")
        elif spread > bound / 3:
            mark = "  over a third of bound"
        print(f"  {name + ' [' + unit + ']':<45} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>8.3f} {bound:>6}{mark}")
    return flagged


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be >= 2 for quartiles")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    flagged = []
    for workload in args.workloads.split(","):
        results = []
        for seed in range(1, args.runs + 1):
            results.append(run_once(workload, seed, args.seconds))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in results[-1]["metrics"].items()),
                flush=True)
        (BENCH / "out").mkdir(exist_ok=True)
        with open(BENCH / "out" / f"steady-{workload}.json", "w", encoding="utf-8") as handle:
            json.dump({"seconds": args.seconds, "runs": results}, handle, indent=1)
        flagged += summarize(workload, results, bounds)
    for message in flagged:
        print(f"FLAGGED: {message}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark command for compint.

    python3 bench/run.py --workload {sweep,certify,beams,cli} --seed N \
        --seconds S --trace {0,1}

Runs whole rounds of one workload until S seconds have passed, checks every
output, prints each metric by name with its unit, and ends with one JSON line
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the per-layer ones, from a run whose
calls into compint are wrapped in spans.  Exits 1 if a check fails, 2 if the
package source is missing.  A result file with the machine details goes to
bench/out/.  Metric names and units are read from BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# One BLAS thread: the N = 64 problems are too small to gain from more, and
# extra threads only add scheduling noise on a shared machine.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 10

# Each CPU of this process's affinity set, in turn: round k (and set-up
# probe k) runs on CPUS[k % len(CPUS)].  On a virtual machine each CPU can
# slow down twofold for seconds at a time, independently of the others, and
# a busy process is not moved off a slow one; alternating lets the fastest
# time of each piece of work come from a CPU in its fast state.
CPUS = sorted(os.sched_getaffinity(0))


def use_cpu(k):
    os.sched_setaffinity(0, {CPUS[k % len(CPUS)]})


def git_sha():
    """HEAD of the checkout's own .git, if it has one; never looks above ROOT."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_sha": git_sha(),
        "platform": platform.platform(),
    }


def setup_probe(args, env, k):
    """Wall time of a fresh interpreter that only sets the workload up, on CPU k."""
    argv = [sys.executable, str(BENCH / "run.py"), "--probe", "--workload",
            args.workload, "--seed", str(args.seed), "--seconds", "0"]
    use_cpu(k)
    start = time.perf_counter()
    subprocess.run(argv, env=env, check=True, stdin=subprocess.DEVNULL)
    return time.perf_counter() - start


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in SPEC["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true",
                   help="set the workload up and exit (used to time set-up)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "compint" / "__init__.py").is_file():
        print(f"bench: no compint package under {SRC}", file=sys.stderr)
        return 2
    os.environ.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    sys.path.insert(0, str(SRC))
    import compint
    if Path(compint.__file__).resolve().parent != (SRC / "compint").resolve():
        print(f"bench: compint imported from {compint.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import workloads
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    if args.probe:
        workloads.WORKLOADS[args.workload](args.seed, False, workdir)
        return 0

    workdir.mkdir()
    try:
        return measure(args, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workloads, workdir):
    workload = workloads.WORKLOADS[args.workload](args.seed, bool(args.trace), workdir)
    tracer = log = None
    if args.trace:
        import layers
        import tracing
        tracer = tracing.Tracer()
        log = layers.ResultLog(tracer)
        tracer.install()

    # Rounds continue until --seconds have passed, but never stop short of
    # workload.ROUNDS, and the time metrics use only the first ROUNDS rounds:
    # every commit gets the same number of draws for each piece's minimum.
    # Untraced runs take SETUP_PROBES set-up probes, spread over the same
    # first rounds, so that no slow stretch of a few seconds holds them all.
    rounds = []
    failures = []
    setup_runs = []
    probes_due = 0 if args.trace else SETUP_PROBES
    env = workloads.child_env()
    start = time.perf_counter()
    try:
        k = 0
        while True:
            due = -(-probes_due * min(k + 1, workload.ROUNDS) // workload.ROUNDS)
            while len(setup_runs) < due:
                setup_runs.append(setup_probe(args, env, len(setup_runs)))
            use_cpu(k)
            if tracer is not None:
                tracer.round = k
            t0 = time.perf_counter()
            result = workload.round(k)
            rounds.append((time.perf_counter() - t0, result))
            failures += result.failures
            k += 1
            if k >= workload.ROUNDS and time.perf_counter() - start >= args.seconds:
                break
    finally:
        os.sched_setaffinity(0, CPUS)
        if tracer is not None:
            tracer.uninstall()

    attempted = sum(r.ops for _, r in rounds)
    failed = sum(r.failed for _, r in rounds)
    if args.trace:
        failures += log.failures()
        import_s, import_scipy_s = layers.import_times(env)
        overhead_s = tracing.per_call_overhead() * len(tracer.spans)
        metrics = layers.metrics(SPEC["per_layer"], tracer, log, len(rounds), import_s,
                                 import_scipy_s, overhead_s)
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.json"
        tracer.write(spans_path)
    else:
        # Every round does the same work: keep each piece's fastest time.
        timed_rounds = rounds[:workload.ROUNDS]

        def fastest(field):
            pieces = getattr(rounds[0][1], field)
            return sum(min(getattr(r, field)[name] for _, r in timed_rounds)
                       for name in pieces)

        work_s = fastest("work_s")
        rest = min(wall - sum(r.work_s.values()) - sum(r.other_s.values()) - r.skipped_s
                   for wall, r in timed_rounds)
        if args.workload == "cli":
            rss_kb = workload.peak_rss_kb
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "setup_s": min(setup_runs),
            "wall_s": work_s + fastest("other_s") + rest,
            "work_per_s": rounds[0][1].work / work_s,
            "peak_rss_mb": rss_kb / 1024.0,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in SPEC["end_to_end"]}
        spans_path = None

    correct = not failures
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "work_unit": workload.unit, "timed_rounds": workload.ROUNDS,
        "rounds": [{"wall_s": wall, "ops": r.ops, "failed": r.failed,
                    "work": r.work, "work_s": r.work_s, "other_s": r.other_s,
                    "skipped_s": r.skipped_s} for wall, r in rounds],
        "setup_runs_s": setup_runs, "spans": spans_path and spans_path.name,
        "correct": correct, "attempted": attempted, "failed": failed,
        "failures": failures[:50], "metrics": metrics, "environment": environment(),
    }
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds, "
          f"{attempted} operations attempted, {failed} failed; work unit: {workload.unit}")
    for message in failures[:20]:
        print(f"CHECK FAILED: {message}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

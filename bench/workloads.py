"""The four benchmark workloads: sweep, certify, beams and cli.

Each workload is a closed loop: one caller, one call at a time.  A run
repeats whole rounds until its time is up, and every round does the same
work, timed in named pieces well under a second long.  The run keeps each
piece's fastest time over its first ROUNDS rounds, a fixed number per
workload (about what today's code completes in a 15 s run; two 12-15 s
rounds for cli), so that every commit gets the same number of draws: on a
machine whose speed drifts, the
fastest of several equal pieces of work measures the code far more steadily
than a mean.  Round k draws fresh inputs from a seed derived from (--seed, k)
wherever the cost does not depend on them; the sweep, whose cost does,
repeats one fixed problem set.  Calls into compint go through module
attributes (``experiments.error_vs_m_sweep``), so the tracer's wrappers see
them.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from compint import diagnostics, experiments, modes, sensing
from compint._rng import derive_seed
# Bound before the tracer wraps anything: checks rebuild inputs untraced.
from compint.sensing import random_schedule as _random_schedule
from compint.sensing import sensing_matrix as _sensing_matrix

import checks

TWO_PI = 2.0 * math.pi
SRC = Path(__file__).resolve().parents[1] / "src"


def child_env():
    """Environment for child interpreters: this process's, with src importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def round_seeds(seed: int, k: int, count: int = 1) -> list:
    """Seeds of round k, independent of compint's own seed derivation."""
    return [int(v) for v in np.random.SeedSequence([seed, k]).generate_state(count)]


@dataclasses.dataclass
class Round:
    """What one round did: operations, work, and the time of its pieces.

    `work_s` times the pieces of the workload's main work, `other_s` the other
    timed calls, and `skipped_s` the calls the time metrics leave out: the
    operations that failed on the known fault, and a repeated piece's slower
    passes.  The round's wall time minus all three is its remainder (checks
    and glue).
    """

    ops: int            # operations attempted
    failed: int         # operations that failed on the known fault
    work: int           # units of the main work that succeeded, the same every round
    work_s: dict        # seconds of each piece of the main work, by name
    failures: list      # unexpected check failures
    other_s: dict = dataclasses.field(default_factory=dict)
    skipped_s: float = 0.0


def timed(pieces, name, call, *args, **kwargs):
    """Call, store its wall time under `name` in `pieces`, return its result."""
    start = time.perf_counter()
    result = call(*args, **kwargs)
    pieces[name] = time.perf_counter() - start
    return result


class Sweep:
    """error_vs_m_sweep at N = 64, s <= 4, M = 5..50 step 5, on fixed problems.

    Each of the 50 problems is a one-run sweep at one M, with sweep seeds
    0..RUNS-1, so that every solve is timed on its own.  The problems are the
    same whatever --seed is: small-M solves stop early or run to the
    iteration cap depending on the draw, and over 16 fresh draws of a 50-solve
    sweep the ADMM iteration total had a standard deviation of 22% of its mean.
    """

    N, S_MAX, RUNS = 64, 4, 5
    M_VALUES = tuple(range(5, 51, 5))
    ROUNDS = 5
    unit = "BP solves"

    def __init__(self, seed, traced, workdir):
        self.first = None

    def round(self, k):
        pieces, failures = {}, []
        errors = np.empty((len(self.M_VALUES), self.RUNS))
        for i, m in enumerate(self.M_VALUES):
            for j in range(self.RUNS):
                result = timed(pieces, f"M{m}/{j}", experiments.error_vs_m_sweep,
                               self.N, self.S_MAX, [m], 1, seed=j)
                failures += checks.sweep_round(
                    result.m_values.tolist(), result.mean_error, result.std_error,
                    result.m_star, result.threshold, [m], 1, result.runs_per_point)
                errors[i, j] = result.mean_error[0]
        if self.first is None:
            self.first = errors
            failures += checks.sweep_shape(self.M_VALUES, errors.mean(axis=1),
                                           errors.std(axis=1), self.RUNS, 0.01)
        elif not np.array_equal(errors, self.first):
            failures.append("sweep: the same inputs gave different errors")
        return Round(errors.size, 0, errors.size, pieces, failures)


class Certify:
    """eta_ensemble with a fixed Phi, isotropy_estimate and incoherence calls.

    Per round: ETA_CALLS calls of SAMPLES eta samples each, one isotropy
    estimate over 100 000 rows (fewer would break the 0.01 isotropy check)
    and SCHEDULES incoherence calls.
    """

    M, N, S, ETA_CALLS, SAMPLES, ROWS, SCHEDULES = 30, 64, 4, 5, 4000, 100_000, 200
    ROUNDS = 10
    unit = "eta samples"

    def __init__(self, seed, traced, workdir):
        self.seed = seed

    def round(self, k):
        *eta_seeds, seed = round_seeds(self.seed, k, self.ETA_CALLS + 1)
        pieces, other, failures, offsets = {}, {}, [], []
        for i, s in enumerate(eta_seeds):
            report = timed(pieces, f"eta_ensemble/{i}", diagnostics.eta_ensemble,
                           self.M, self.N, self.S, self.SAMPLES, s)
            # eta_ensemble documents its fixed Phi as drawn from (seed, "eta-phi").
            phi = _sensing_matrix(
                _random_schedule(self.M, derive_seed(s, "eta-phi")), self.N).entries
            offsets.append(report.mean_eta - checks.eta_expected(phi))
            failures += checks.eta_report(phi, report.mean_eta, report.max_abs_eta,
                                          report.counts, report.sample_count,
                                          report.bin_edges)
            if report.sample_count != self.SAMPLES:
                failures.append(f"eta sample_count {report.sample_count} != {self.SAMPLES}")
        failures += checks.eta_mean_offset(offsets)

        iso = timed(other, "isotropy_estimate", diagnostics.isotropy_estimate,
                    self.N, self.ROWS, seed)
        failures += checks.isotropy_report(iso.estimate, iso.max_offdiag_abs,
                                           iso.max_diag_dev)

        start = time.perf_counter()
        schedules = np.random.default_rng(seed).integers(0, 2 ** 62, self.SCHEDULES).tolist()
        matrices = [sensing.sensing_matrix(sensing.random_schedule(self.M, s), self.N)
                    for s in schedules]
        values = [diagnostics.incoherence(phi) for phi in matrices]
        other["incoherence"] = time.perf_counter() - start
        for phi, value in zip(matrices, values):
            failures += checks.incoherence_value(phi.schedule.alphas, self.N, value)
        return Round(self.ETA_CALLS + 1 + self.SCHEDULES, 0, self.ETA_CALLS * self.SAMPLES,
                     pieces, failures, other)


class Beams:
    """Field-level interferograms and noiseless reconstructions of the six stock beams."""

    DELAYS = 50
    ROUNDS = 12
    unit = "field evaluations"

    def __init__(self, seed, traced, workdir):
        self.seed = seed
        self.specs = experiments.builtin_scenarios()

    def round(self, k):
        (seed,) = round_seeds(self.seed, k)
        rng = np.random.default_rng(seed)
        pieces, other, failures, grids = {}, {}, [], {}
        for spec in self.specs:
            if spec.basis not in grids:
                grids[spec.basis] = timed(other, f"default_grid/{spec.basis.kind.value}",
                                          modes.default_grid, spec.basis)
            grid = grids[spec.basis]
            alphas = rng.uniform(0.0, TWO_PI, self.DELAYS).tolist()
            values = timed(pieces, spec.name, lambda: [
                modes.field_interferogram(spec.amplitudes, a, grid) for a in alphas])
            failures += checks.field_values(spec.amplitudes.coeffs, alphas, values)
        for spec in self.specs:
            result = timed(other, f"run_scenario/{spec.name}", experiments.run_scenario,
                           dataclasses.replace(spec, seed=seed))
            failures += checks.scenario(
                spec.name, spec.spectrum.weights, result.ft.raw, result.bp.raw,
                result.bp.converged,
                {"ft_truth_error": result.ft_truth_error,
                 "bp_vs_ft_error": result.bp_vs_ft_error,
                 "bp_truth_error": result.bp_truth_error})
        evaluations = len(self.specs) * self.DELAYS
        # Each run_scenario is two solves: harmonic inversion and BP.
        return Round(evaluations + 2 * len(self.specs), 0, evaluations, pieces, failures,
                     other)


# Stock beam weights, from the scenario definitions (N = 64, unit power).
STOCK = {"hg0": {1: 1.0}, "hg1": {2: 1.0}, "lg0": {1: 1.0}, "lg1": {2: 1.0},
         "hg0+hg1": {1: 0.5, 2: 0.5}, "hg1+ihg2": {2: 0.5, 3: 0.5}}
NOISE_SIGMA = 0.01


def stock_weights(name, n=64):
    w = np.zeros(n)
    for index, value in STOCK[name].items():
        w[index - 1] = value
    return w


class Cli:
    """A fixed sequence of `python -m compint` commands, one process each.

    A round makes REPEATS passes of the eight commands expected to pass, each
    pass with its own seed and checked on its own, then runs the noisy
    command once: the noisy command's 5 s would otherwise leave each of the
    others only K draws per run.  A command's time is its fastest pass.
    """

    N = 64
    REPEATS = 2
    ROUNDS = 2
    unit = "CLI commands"

    def __init__(self, seed, traced, workdir):
        self.seed = seed
        self.workdir = Path(workdir)
        self.traced = traced
        self.peak_rss_kb = 0
        self.env = child_env()
        # Every command pays this import; traced runs call main in-process.
        import compint.cli  # noqa: F401

    def _run(self, argv):
        """Run one command; returns (exit code, seconds)."""
        if self.traced:
            import compint.cli as cli
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            return code, time.perf_counter() - start
        with open(self.workdir / "stderr.txt", "ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "compint", *argv],
                                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                    stderr=err, env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode, seconds

    def commands(self, seed):
        """(label, argv) for one pass; the noisy command is last and seed-free."""
        rng = np.random.default_rng(seed)
        support = sorted(rng.choice(np.arange(1, self.N + 1), size=3, replace=False).tolist())
        weights = rng.uniform(0.1, 1.0, 3)
        self.truth = np.zeros(self.N)
        self.truth[np.array(support) - 1] = weights
        modes_arg = ",".join(f"{n}={w!r}" for n, w in zip(support, weights.tolist()))
        d = self.workdir
        s = ["--seed", str(seed)]
        return [
            ("simulate-even", ["simulate", "--modes", modes_arg, "--n", str(self.N),
                               "--schedule", "even", "--m", str(2 * self.N),
                               "--format", "csv", "--out", str(d / "even.csv"), *s]),
            ("recover-ft", ["recover", str(d / "even.csv"), "--method", "ft",
                            "--n", str(self.N), "--out", str(d / "ft.json")]),
            ("simulate-random", ["simulate", "--scenario", "hg0+hg1", "--schedule", "random",
                                 "--m", "30", "--format", "csv", "--out", str(d / "cs.csv"), *s]),
            ("recover-bp", ["recover", str(d / "cs.csv"), "--method", "bp",
                            "--n", str(self.N), "--out", str(d / "bp.json")]),
            ("scenario-all", ["scenario", "--all", "--out", str(d / "scenarios.json"), *s]),
            ("diagnose", ["diagnose", "--check", "eta", "--m", "30", "--n", str(self.N),
                          "--s", "4", "--samples", "2000", "--out", str(d / "eta.json"), *s]),
            ("sweep", ["sweep", "--n", str(self.N), "--s-max", "4", "--m-values", "20,30",
                       "--runs", "4", "--out", str(d / "sweep.json"), *s]),
            ("rerun-recover-bp", ["recover", str(d / "cs.csv"), "--method", "bp",
                                  "--n", str(self.N), "--out", str(d / "bp-rerun.json")]),
            ("scenario-noisy", ["scenario", "--name", "hg0", "--noise-sigma", str(NOISE_SIGMA),
                                "--strict", "--out", str(d / "noisy.json")]),
        ]

    def round(self, k):
        failures, failed, skipped_s, pieces = [], 0, 0.0, {}
        for seed in round_seeds(self.seed, k, self.REPEATS):
            commands = self.commands(seed)
            for label, argv in commands[:-1]:
                code, seconds = self._run(argv)
                if label in pieces:
                    skipped_s += max(seconds, pieces[label])
                pieces[label] = min(seconds, pieces.get(label, seconds))
                if code != 0:
                    failures.append(f"{label}: exit code {code}")
            if not failures:
                failures += self._check_outputs()
        label, argv = commands[-1]
        code, seconds = self._run(argv)
        if self._noisy_passes(code):
            pieces[label] = seconds
        else:
            failed, skipped_s = 1, skipped_s + seconds
        ops = self.REPEATS * (len(commands) - 1) + 1
        return Round(ops, failed, len(pieces), pieces, failures, {}, skipped_s)

    def _check_outputs(self):
        d = self.workdir
        out = checks.interferogram_csv((d / "even.csv").read_text(), self.truth)
        ft = _load(d / "ft.json")
        out += checks.recovered_weights(ft["weights"], self.truth, checks.FT_TOL, "recover ft")
        pair = stock_weights("hg0+hg1")
        out += checks.interferogram_csv((d / "cs.csv").read_text(), pair)
        bp = _load(d / "bp.json")
        out += checks.recovered_weights(bp["weights"], pair, checks.BP_TOL, "recover bp")
        if not bp["converged"]:
            out.append("recover bp did not converge")
        out += checks.identical((d / "bp.json").read_bytes(),
                                (d / "bp-rerun.json").read_bytes(), "recover bp")
        scenarios = _load(d / "scenarios.json")["scenarios"]
        if sorted(s["name"] for s in scenarios) != sorted(STOCK):
            out.append("scenario --all did not run the six stock beams")
        for s in scenarios:
            truth = stock_weights(s["name"])
            out += checks.recovered_weights(s["ft_spectrum"], truth, checks.FT_TOL,
                                            f"scenario {s['name']} ft")
            out += checks.recovered_weights(s["bp_spectrum"], truth, checks.BP_TOL,
                                            f"scenario {s['name']} bp")
            if not s["bp_converged"]:
                out.append(f"scenario {s['name']}: BP did not converge")
        eta = _load(d / "eta.json")
        if int(np.sum(eta["counts"])) != eta["sample_count"] or eta["sample_count"] != 2000:
            out.append("diagnose: eta histogram does not hold the 2000 samples")
        sweep = _load(d / "sweep.json")
        out += checks.sweep_round(sweep["m_values"], sweep["mean_error"], sweep["std_error"],
                                  sweep["m_star"], sweep["threshold"], [20, 30], 4,
                                  sweep["runs"])
        return out

    def _noisy_passes(self, code):
        """Passes only with exit 0 under --strict and an error within the sigma bound."""
        if code != 0:
            return False
        data = _load(self.workdir / "noisy.json")
        bound = checks.noisy_bound(NOISE_SIGMA, data["cs_m"], stock_weights("hg0"))
        return data["bp_truth_error"] <= bound


def _load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["data"]


WORKLOADS = {"sweep": Sweep, "certify": Certify, "beams": Beams, "cli": Cli}

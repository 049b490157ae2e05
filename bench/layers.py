"""Per-layer metrics for the traced run.

The layers are compint's modules.  Times come from the tracer's spans
(self time = span minus its traced children); solver iteration counts and
convergence come from the returned RecoveryResult objects.  The import
figures come from fresh interpreters.
"""
from __future__ import annotations

import inspect
import statistics
import subprocess
import sys

import numpy as np

from compint import recovery

import checks

_DEFAULT_BP_OPTIONS = inspect.signature(recovery.basis_pursuit).parameters["opts"].default


class ResultLog:
    """Tracer hooks that keep what the per-layer metrics and checks need.

    Hooks only store references; the checks run after the timed rounds.
    """

    def __init__(self, tracer):
        self.solves = []         # (M, iterations, converged, phi, y, z, opts, truth)
        self.eta_samples = 0
        self._last_sample = None
        tracer.hooks["sensing.sample_interferogram"] = self._on_sample
        tracer.hooks["recovery.basis_pursuit"] = self._on_bp
        tracer.hooks["diagnostics.eta_ensemble"] = self._on_eta

    def _on_sample(self, args, kwargs, result):
        self._last_sample = (args[0] if args else kwargs["x"], result)

    def _on_bp(self, args, kwargs, result):
        phi = args[0] if args else kwargs["phi"]
        y = args[1] if len(args) > 1 else kwargs["y"]
        opts = args[2] if len(args) > 2 else kwargs.get("opts", _DEFAULT_BP_OPTIONS)
        truth = None
        if self._last_sample is not None and self._last_sample[1] is y:
            truth = self._last_sample[0].weights
        self.solves.append((phi.shape[0], result.iterations, result.converged,
                            phi.entries, y.values, result.raw, opts, truth))

    def _on_eta(self, args, kwargs, result):
        self.eta_samples += result.sample_count

    def failures(self):
        """Every converged solve is feasible; where the truth that produced y
        is itself feasible, the solve is no longer than it in l1."""
        out = []
        for _, _, converged, phi, y, z, opts, truth in self.solves:
            if not converged:
                continue
            eps = opts.residual_epsilon
            truth_l1 = None
            if truth is not None and np.linalg.norm(phi @ truth - y) <= eps:
                truth_l1 = float(np.sum(np.abs(truth)))
            out += checks.bp_solution(phi, y, z, eps, opts.abs_tol, truth_l1)
        return out


def _scipy_share(importtime_stderr):
    """Seconds spent importing scipy, from `python -X importtime` output.

    Sums the cumulative time of each scipy module not nested inside another
    scipy module.  Children are listed before their parent, one indent level
    (two spaces) deeper.
    """
    entries = []
    for line in importtime_stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not line.startswith("import time:"):
            continue
        try:
            cumulative = int(parts[1])
        except ValueError:
            continue             # the header line
        name = parts[2].rstrip()
        level = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((level, name.strip(), cumulative))
    total = 0
    stack = []                   # (level, inside scipy) of enclosing parents
    for level, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= level:
            stack.pop()
        enclosed = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not enclosed:
            total += cumulative
        stack.append((level, enclosed or is_scipy))
    return total / 1e6


def import_times(env, repeats=3):
    """(median seconds to import compint.cli, median scipy share of it)."""
    code = ("import time; t = time.perf_counter(); import compint.cli; "
            "print(time.perf_counter() - t)")
    plain, scipy = [], []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True)
        plain.append(float(out.stdout))
        out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import compint.cli"],
                             env=env, check=True, capture_output=True, text=True)
        scipy.append(_scipy_share(out.stderr))
    return statistics.median(plain), statistics.median(scipy)


def metrics(per_layer, tracer, log, rounds, import_s, import_scipy_s, overhead_s):
    """Every metric of `per_layer` (BENCHMARK.json's list); layers the
    workload never called read 0.

    `<span>.calls` and `<span>.self_s` come from the spans of that name.
    Runs are time-bound, so a faster layer fits more rounds into a run:
    counts and self times are given per round to stay comparable.
    """
    times = tracer.self_times()
    none = (0, 0.0, 0.0)
    iterations = sum(s[1] for s in log.solves)
    converged = sum(1 for s in log.solves if s[2])
    bp_self_s = times.get("recovery.basis_pursuit", none)[1]
    values = {
        "recovery.basis_pursuit.iterations": iterations,
        "recovery.basis_pursuit.converged": converged,
        "recovery.basis_pursuit.converged_share":
            converged / len(log.solves) if log.solves else 0.0,
        "recovery.basis_pursuit.us_per_iteration":
            1e6 * bp_self_s / iterations if iterations else 0.0,
        # Inclusive time: most of a sample's cost is its rng.stream child.
        "diagnostics.eta_ensemble.us_per_sample":
            1e6 * times.get("diagnostics.eta_ensemble", none)[2] / log.eta_samples
            if log.eta_samples else 0.0,
        "cli.import_s": import_s,
        "cli.import_scipy_s": import_scipy_s,
        "trace.overhead_s": overhead_s,
    }
    for m in (5, 10, 20, 30):
        its = [s[1] for s in log.solves if s[0] == m]
        values[f"recovery.basis_pursuit.iterations_median.M{m}"] = (
            float(statistics.median(its)) if its else 0.0)
    for m in per_layer:
        name, unit = m["name"], m["unit"]
        span, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = times.get(span, none)[0]
        elif field == "self_s":
            values[name] = times.get(span, none)[1]
        if unit.endswith("/round"):
            values[name] /= rounds
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in per_layer}

"""Span tracing of compint's public functions, from outside the package.

`Tracer.install()` replaces each traced function in every loaded ``compint``
module namespace where that function object is bound, i.e. where its callers
look it up (``compint.experiments.basis_pursuit``, ``compint.modes.synthesize``
and so on).  Each call records a span (name, start, end, parent, round) in
memory; `write` dumps them at the end.  Nothing under ``src/`` is modified:
`uninstall` puts the original objects back.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# Traced functions by defining module, with the layer name used in metrics.
TARGETS = {
    "compint.recovery": ("recovery", ("basis_pursuit", "ft_recover")),
    "compint.diagnostics": ("diagnostics", ("eta_ensemble", "isotropy_estimate",
                                            "incoherence")),
    "compint._rng": ("rng", ("stream",)),
    "compint.modes": ("modes", ("field_interferogram", "synthesize",
                                "mode_table", "default_grid")),
    "compint.sensing": ("sensing", ("sensing_matrix", "sample_interferogram",
                                    "random_schedule")),
    "compint.experiments": ("experiments", ("error_vs_m_sweep", "run_scenario")),
    "compint.cli": ("cli", ("parse_config", "ingest_interferogram",
                            "emit_result")),
}


class Tracer:
    """In-memory span recorder with optional per-call result hooks."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index, round)
        self.round = 0
        self._stack = []
        self._patched = []       # (module, attribute, original)
        self.hooks = {}          # span name -> callable(args, kwargs, result)

    def wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        hooks = self.hooks

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.round)
            hook = hooks.get(name)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every target where any loaded compint module binds it."""
        loaded = [m for key, m in sys.modules.items()
                  if m is not None and (key == "compint" or key.startswith("compint."))]
        for module_name, (layer, names) in TARGETS.items():
            home = sys.modules.get(module_name)
            if home is None:
                continue
            for attr in names:
                original = getattr(home, attr)
                traced = self.wrap(f"{layer}.{attr}", original)
                for module in loaded:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, traced)
                            self._patched.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def self_times(self):
        """{span name: (calls, total self seconds, total inclusive seconds)}.

        Self time is a span's duration minus the durations of its direct
        children; calls are sequential, so children never overlap.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = totals[name]
            entry[0] += 1
            entry[1] += (end - start) - child_time[i]
            entry[2] += end - start
        return {name: tuple(v) for name, v in totals.items()}

    def write(self, path):
        """Write spans as JSON: a name table plus [name, start, end, parent, round]."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[index[n], round(s - t0, 7), round(e - t0, 7), p, r]
                for n, s, e, p, r in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": names,
                       "fields": ["name", "start_s", "end_s", "parent", "round"],
                       "spans": rows}, handle, separators=(",", ":"))


def per_call_overhead(calls=20000):
    """Seconds a traced call costs over a plain one, measured on a no-op."""
    def noop():
        return None

    probe = Tracer()
    traced = probe.wrap("probe", noop)
    best_plain = best_traced = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        best_plain = min(best_plain, time.perf_counter() - start)
        probe.spans.clear()
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        best_traced = min(best_traced, time.perf_counter() - start)
    return max(best_traced - best_plain, 0.0) / calls

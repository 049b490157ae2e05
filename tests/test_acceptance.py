"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every test prints `[PASS]` or `[FAIL]` with its measured quantities (outside
the capture, so the line is visible in any pytest mode), then asserts.
Budgets are wall-clock seconds on the reference container; the computations
run far below them.
"""
import csv
import io
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import compint

from compint._rng import derive_seed, stream
from compint.cli import main
from compint.diagnostics import eta_ensemble, incoherence, isotropy_estimate
from compint.experiments import (builtin_scenarios, error_vs_m_sweep,
                                 random_sparse_spectrum, run_scenario)
from compint.modes import (BasisKind, ComplexModalField, ModeBasis,
                           default_grid, field_interferogram)
from compint.recovery import basis_pursuit, ft_recover, reconstruction_error
from compint.sensing import (MeasurementVector, ModalSpectrum,
                             analytic_interferogram, nyquist_schedule,
                             random_schedule, sample_interferogram,
                             sensing_matrix)

from oracles import l1_oracle


def report(capfd, criterion: str, passed: bool, detail: str) -> None:
    tag = "PASS" if passed else "FAIL"
    with capfd.disabled():
        print(f"\n[{tag}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_isotropy(capfd):
    budget = 10.0
    t0 = time.time()
    rep = isotropy_estimate(64, 100000, 0)
    elapsed = time.time() - t0
    ok = (rep.max_diag_dev <= 0.01 and rep.max_offdiag_abs <= 0.01
          and elapsed <= budget)
    report(capfd, "criterion 1 (isotropy 0.5 I)", ok,
           f"N=64 rows=1e5 diag_dev={rep.max_diag_dev:.5f} "
           f"offdiag={rep.max_offdiag_abs:.5f} (both <= 0.01) "
           f"time={elapsed:.2f}s <= {budget:.0f}s")


def test_criterion_2_incoherence(capfd):
    budget = 5.0
    t0 = time.time()
    values = np.empty(1000)
    for i in range(1000):
        sched = random_schedule(30, derive_seed(0, "acc2-schedule", i))
        values[i] = incoherence(sensing_matrix(sched, 64))
    elapsed = time.time() - t0
    ok = bool(np.all(values <= 1.0)) and values.max() >= 0.999 and elapsed <= budget
    report(capfd, "criterion 2 (incoherence bound)", ok,
           f"1000 schedules M=30 N=64 max={values.max():.6f} "
           f"(all <= 1, max >= 0.999) time={elapsed:.2f}s <= {budget:.0f}s")


def test_criterion_3_eta_ensemble(capfd):
    budget = 30.0
    t0 = time.time()
    rep = eta_ensemble(30, 64, 4, 100000, 3)
    elapsed = time.time() - t0
    bp_bound = np.sqrt(2.0) - 1.0
    ok = (abs(rep.mean_eta) <= 0.02 and rep.max_abs_eta > bp_bound
          and elapsed <= budget)
    report(capfd, "criterion 3 (eta statistic)", ok,
           f"M=30 N=64 s=4 samples=1e5 mean={rep.mean_eta:+.5f} (|.| <= 0.02) "
           f"max={rep.max_abs_eta:.4f} > {bp_bound:.4f} "
           f"time={elapsed:.2f}s <= {budget:.0f}s")


def test_criterion_4_ft_round_trip(capfd):
    sched = nyquist_schedule(128)
    worst = 0.0
    for i in range(100):
        rng = stream(0, "acc4-spectrum", i)
        w = rng.uniform(0.0, 1.0, 64)
        x = ModalSpectrum(w / w.sum())
        y = sample_interferogram(x, sched)
        rec = ft_recover(y, sched, 64)
        worst = max(worst, reconstruction_error(x, rec.raw))
    ok = worst <= 1e-10
    report(capfd, "criterion 4 (harmonic round trip)", ok,
           f"M=128 N=64, 100 spectra, worst error={worst:.2e} <= 1e-10")


def test_criterion_5_bp_at_m30(capfd):
    budget = 60.0
    t0 = time.time()
    ok_runs = 0
    worst = 0.0
    for i in range(100):
        truth = random_sparse_spectrum(64, 4, derive_seed(7, "acc5-vector", i))
        sched = random_schedule(30, derive_seed(7, "acc5-schedule", i))
        phi = sensing_matrix(sched, 64)
        y = sample_interferogram(truth, sched)
        res = basis_pursuit(phi, y)
        err = reconstruction_error(truth, res.raw)
        worst = max(worst, err)
        if err <= 1e-3:
            ok_runs += 1

    worst_scenario = 0.0
    for spec in builtin_scenarios():
        result = run_scenario(spec)
        worst_scenario = max(worst_scenario, result.bp_vs_ft_error)
    elapsed = time.time() - t0

    ok = ok_runs >= 99 and worst_scenario <= 1e-3 and elapsed <= budget
    report(capfd, "criterion 5 (BP at M=30)", ok,
           f"{ok_runs}/100 runs <= 1e-3 (worst {worst:.2e}); six scenarios "
           f"worst bp_vs_ft={worst_scenario:.2e} <= 1e-3; "
           f"time={elapsed:.1f}s <= {budget:.0f}s")


def test_criterion_6_error_vs_m(capfd):
    budget = 300.0
    t0 = time.time()
    sweep = error_vs_m_sweep(64, 4, range(5, 51, 5), runs=100, seed=0)
    elapsed = time.time() - t0

    mean = sweep.mean_error
    se = sweep.std_error / np.sqrt(sweep.runs_per_point)
    monotone = True
    for j in range(len(mean) - 1):
        slack = 2.0 * np.sqrt(se[j] ** 2 + se[j + 1] ** 2)
        if mean[j + 1] > mean[j] + slack:
            monotone = False
    ok = (mean[0] > 0.1 and sweep.m_star is not None
          and 15 <= sweep.m_star <= 30 and monotone and elapsed <= budget)
    report(capfd, "criterion 6 (error versus M)", ok,
           f"mean@M=5 {mean[0]:.3f} > 0.1; m_star={sweep.m_star} in [15, 30]; "
           f"non-increasing within 2 SE: {monotone}; "
           f"time={elapsed:.1f}s <= {budget:.0f}s")


def test_criterion_7_field_level_oracle(capfd):
    worst = {}
    for kind in (BasisKind.HERMITE_GAUSS_1D, BasisKind.LAGUERRE_GAUSS_RADIAL):
        basis = ModeBasis(kind, 64)
        grid = default_grid(basis)
        dev = 0.0
        for i in range(100):
            rng = stream(0, "acc7-field", kind.value, i)
            s = int(rng.integers(1, 5))
            support = rng.choice(64, size=s, replace=False)
            amps = rng.standard_normal(s) + 1j * rng.standard_normal(s)
            c = np.zeros(64, complex)
            c[support] = amps / np.linalg.norm(amps)
            field = ComplexModalField(basis, c, normalized=True)
            x = ModalSpectrum(field.mode_weights())
            for alpha in rng.uniform(0.0, 2.0 * np.pi, 32):
                p_field = field_interferogram(field, float(alpha), grid)
                p_analytic = analytic_interferogram(x, float(alpha))
                dev = max(dev, abs(p_field - p_analytic))
        worst[kind.value] = dev
    ok = all(v <= 1e-6 for v in worst.values())
    report(capfd, "criterion 7 (field-level oracle)", ok,
           f"100 fields x 32 delays per basis, worst |field - analytic|: "
           f"hg={worst['hg']:.2e}, lg={worst['lg']:.2e} (both <= 1e-6)")


def test_criterion_8_l1_oracle_equivalence(capfd):
    l1_ok = support_ok = unique_count = 0
    worst_gap = 0.0
    for i in range(50):
        rng = stream(11, "acc8-instance", i)
        n = int(rng.integers(6, 13))
        s = int(rng.integers(1, 3))
        m = int(rng.integers(max(4, 2 * s), n + 1))
        support = rng.choice(n, size=s, replace=False)
        values = rng.uniform(0.2, 1.0, s) * rng.choice([-1.0, 1.0], s)
        x_true = np.zeros(n)
        x_true[support] = values
        sched = random_schedule(m, derive_seed(11, "acc8-schedule", i))
        phi = sensing_matrix(sched, n)
        y = MeasurementVector(phi.entries @ x_true)
        res = basis_pursuit(phi, y)
        oracle, is_unique = l1_oracle(phi.entries, y.values)
        gap = abs(np.abs(res.raw).sum() - np.abs(oracle).sum())
        worst_gap = max(worst_gap, gap)
        if gap <= 1e-6:
            l1_ok += 1
        if is_unique:
            unique_count += 1
            bp_support = set(np.flatnonzero(np.abs(res.raw) > 1e-6))
            oracle_support = set(np.flatnonzero(np.abs(oracle) > 1e-6))
            if bp_support == oracle_support:
                support_ok += 1
    ok = l1_ok == 50 and support_ok == unique_count
    report(capfd, "criterion 8 (exhaustive l1 oracle)", ok,
           f"l1 match {l1_ok}/50 (worst gap {worst_gap:.2e} <= 1e-6); "
           f"support match {support_ok}/{unique_count} unique instances")


# Criterion 9's commands, each run with "--out <file>" added.
_CRITERION_9_COMMANDS = [
    ["simulate", "--scenario", "hg0+hg1", "--schedule", "random",
     "--m", "30", "--noise-sigma", "0.01", "--format", "csv"],
    ["diagnose", "--check", "eta", "--m", "30", "--n", "64", "--s", "4",
     "--samples", "2000"],
    ["diagnose", "--check", "isotropy", "--n", "16", "--rows", "20000",
     "--format", "csv"],
    ["sweep", "--n", "16", "--s-max", "2", "--m-values", "10,24",
     "--runs", "4"],
    ["scenario", "--name", "hg1+ihg2", "--seed", "12"],
]
# ... and a recovery from this simulated file.
_CRITERION_9_SIMULATE = ["simulate", "--modes", "3=0.5,7=0.5", "--n", "16",
                         "--schedule", "random", "--m", "12", "--format", "csv"]


def test_criterion_9_cli_determinism(capfd, tmp_path):
    commands = _CRITERION_9_COMMANDS
    identical = 0
    for argv in commands:
        a = tmp_path / "a.out"
        b = tmp_path / "b.out"
        rc_a = main(argv + ["--out", str(a)])
        rc_b = main(argv + ["--out", str(b)])
        if rc_a == 0 and rc_b == 0 and a.read_bytes() == b.read_bytes():
            identical += 1

    sim = tmp_path / "sim.csv"
    main(_CRITERION_9_SIMULATE + ["--out", str(sim)])
    a = tmp_path / "rec_a.json"
    b = tmp_path / "rec_b.json"
    rc_a = main(["recover", str(sim), "--n", "16", "--out", str(a)])
    rc_b = main(["recover", str(sim), "--n", "16", "--out", str(b)])
    if rc_a == 0 and rc_b == 0 and a.read_bytes() == b.read_bytes():
        identical += 1

    total = len(commands) + 1
    ok = identical == total
    report(capfd, "criterion 9 (CLI determinism)", ok,
           f"{identical}/{total} command pairs byte-identical across reruns")


# A child process that runs criterion 9's commands, each writing the file
# named by its position in the list, in the working directory.
_CRITERION_9_CHILD = """
import json, sys
from compint.cli import main
commands = json.loads(sys.argv[1])
print(json.dumps([main(argv + ["--out", str(k)]) for k, argv in enumerate(commands)]))
"""


def _blas_kernels_selectable():
    """Why OPENBLAS_CORETYPE cannot pick numpy's BLAS kernel here, or None."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "numpy does not report its BLAS build"
    if "openblas" not in str(blas.get("name", "")).lower():
        return f"numpy's BLAS is {blas.get('name')}, not OpenBLAS"
    if "DYNAMIC_ARCH" not in str(blas.get("openblas configuration", "")):
        return "numpy's OpenBLAS is built for one kernel only (no DYNAMIC_ARCH)"
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return f"the Prescott kernel is x86-64 only, not {platform.machine()}"
    return None


def _run_criterion_9(workdir, coretype):
    commands = _CRITERION_9_COMMANDS + [
        _CRITERION_9_SIMULATE,
        ["recover", str(len(_CRITERION_9_COMMANDS)), "--n", "16"],
    ]
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    # the child runs elsewhere, so it imports this compint by absolute path
    source = str(Path(compint.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    workdir.mkdir()
    proc = subprocess.run(
        [sys.executable, "-c", _CRITERION_9_CHILD, json.dumps(commands)],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    codes = json.loads(proc.stdout)
    return codes, [(workdir / str(k)).read_text() for k in range(len(commands))]


def _parsed(text):
    """An output file as JSON, or as CSV rows with numeric cells converted."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return [[_cell(c) for c in row] for row in csv.reader(io.StringIO(text))]


def _cell(text):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _leaves(value, path=""):
    if isinstance(value, dict):
        yield path, sorted(value)
        for key in sorted(value):
            yield from _leaves(value[key], f"{path}.{key}")
    elif isinstance(value, list):
        yield path, len(value)
        for k, item in enumerate(value):
            yield from _leaves(item, f"{path}[{k}]")
    else:
        yield path, value


def test_criterion_9_outputs_agree_across_blas_kernels(capfd, tmp_path):
    # Bytes are the same per host and kernel, not across kernels: BLAS
    # kernels round differently.  So the outputs are parsed and compared:
    # every key, length, integer, string and flag must be equal, and every
    # float within 1e-12 of max(|a|, |b|, 1).  The outputs are dimensionless
    # and of order one (powers with P(0) = 2, unit-sum weights, eta,
    # relative errors); a value at rounding level, such as a noiseless
    # recovery's error near 1e-29, differs between kernels in every digit.
    reason = _blas_kernels_selectable()
    if reason is not None:
        pytest.skip(reason)
    default = _run_criterion_9(tmp_path / "default", None)
    prescott = _run_criterion_9(tmp_path / "prescott", "Prescott")
    assert default[0] == prescott[0] == [0] * len(default[0])
    worst, differing = 0.0, 0
    for a_text, b_text in zip(default[1], prescott[1]):
        differing += a_text != b_text
        a_leaves = list(_leaves(_parsed(a_text)))
        b_leaves = list(_leaves(_parsed(b_text)))
        assert [p for p, _ in a_leaves] == [p for p, _ in b_leaves]
        for (path, a), (_, b) in zip(a_leaves, b_leaves):
            if isinstance(a, float) and isinstance(b, float):
                gap = abs(a - b) / max(abs(a), abs(b), 1.0)
                assert gap <= 1e-12, (path, a, b)
                worst = max(worst, gap)
            else:
                assert type(a) is type(b) and a == b, (path, a, b)
    report(capfd, "criterion 9 across BLAS kernels", True,
           f"{differing}/{len(default[1])} outputs differ in bytes between "
           f"the default kernel and Prescott; discrete fields equal, worst "
           f"float gap {worst:.2g}")

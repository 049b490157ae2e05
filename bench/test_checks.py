"""Tests for the benchmark's checks: each accepts a correct result and
rejects a corrupted one.  Run with `python3 -m pytest bench -q`."""
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from compint import cli, diagnostics, experiments, modes, recovery, sensing  # noqa: E402
from compint._rng import derive_seed  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_field_value_off_by_1e5_is_rejected():
    spec = experiments.scenario_by_name("hg1+ihg2")
    grid = modes.default_grid(spec.basis)
    alphas = [0.3, 1.7, 4.0]
    values = [modes.field_interferogram(spec.amplitudes, a, grid) for a in alphas]
    assert checks.field_values(spec.amplitudes.coeffs, alphas, values) == []
    values[1] += 1e-5
    assert checks.field_values(spec.amplitudes.coeffs, alphas, values)


def _bp_problem():
    truth = experiments.random_sparse_spectrum(64, 3, 5)
    schedule = sensing.random_schedule(30, 9)
    phi = sensing.sensing_matrix(schedule, 64)
    y = sensing.sample_interferogram(truth, schedule)
    result = recovery.basis_pursuit(phi, y)
    assert result.converged
    return truth.weights, phi.entries, y.values, np.array(result.raw), recovery.BPOptions()


def test_perturbed_bp_solution_is_rejected():
    truth, phi, y, z, opts = _bp_problem()
    l1 = float(np.sum(truth))
    assert checks.bp_solution(phi, y, z, opts.residual_epsilon, opts.abs_tol, l1) == []
    z[7] += 1e-4
    assert checks.bp_solution(phi, y, z, opts.residual_epsilon, opts.abs_tol, l1)


def test_feasible_but_longer_bp_solution_is_rejected():
    truth, phi, y, _, opts = _bp_problem()
    null = np.linalg.svd(phi)[2][-1]          # Phi @ null ~ 0, so still feasible
    longer = truth + 0.01 * null
    assert np.linalg.norm(phi @ longer - y) <= opts.abs_tol
    assert checks.bp_solution(phi, y, longer, opts.residual_epsilon, opts.abs_tol,
                              float(np.sum(truth)))


def test_scenario_check_rejects_perturbed_or_misreported_results():
    r = experiments.run_scenario(experiments.scenario_by_name("hg0+hg1"))
    reported = {"ft_truth_error": r.ft_truth_error, "bp_vs_ft_error": r.bp_vs_ft_error,
                "bp_truth_error": r.bp_truth_error}
    truth = r.spec.spectrum.weights
    assert checks.scenario("x", truth, r.ft.raw, r.bp.raw, True, reported) == []
    bp = np.array(r.bp.raw)
    bp[0] -= 0.05
    assert checks.scenario("x", truth, r.ft.raw, bp, True, reported)
    assert checks.scenario("x", truth, r.ft.raw, r.bp.raw, False, reported)
    assert checks.scenario("x", truth, r.ft.raw, r.bp.raw, True,
                           dict(reported, bp_vs_ft_error=reported["bp_vs_ft_error"] + 1e-6))


def _good_sweep():
    m = list(range(5, 51, 5))
    mean = np.array([0.6, 0.3, 0.005, 1e-4, 1e-8, 1e-9, 1e-12, 1e-13, 1e-13, 1e-14])
    std = mean / 2
    return m, mean, std


def test_sweep_round_rejects_inconsistent_m_star_and_grid():
    m, mean, std = _good_sweep()
    assert checks.sweep_round(m, mean, std, 15, 0.01, m, 5, 5) == []
    assert checks.sweep_round(m, mean, std, 20, 0.01, m, 5, 5)
    assert checks.sweep_round(m[:-1], mean[:-1], std[:-1], 15, 0.01, m, 5, 5)
    assert checks.sweep_round(m, mean, std, 15, 0.01, m, 5, 4)


def test_sweep_shape_rejects_bad_shapes():
    m, mean, std = _good_sweep()
    assert checks.sweep_shape(m, mean, std, 5, 0.01) == []
    rising = mean.copy()
    rising[5] = 0.2                          # error jumps at M = 30
    assert checks.sweep_shape(m, rising, std, 5, 0.01)
    easy = mean.copy()
    easy[0] = 0.05                           # M = 5 recovered too well
    assert checks.sweep_shape(m, easy, std, 5, 0.01)
    late = mean.copy()
    late[2:7] = [0.3, 0.2, 0.1, 0.05, 0.02]  # m_star = 40
    assert checks.sweep_shape(m, late, std * 0, 5, 0.01)


def test_eta_report_rejects_corrupted_statistics():
    seed = 4
    rep = diagnostics.eta_ensemble(30, 64, 4, 20000, seed)
    phi = sensing.sensing_matrix(
        sensing.random_schedule(30, derive_seed(seed, "eta-phi")), 64).entries
    args = [phi, rep.mean_eta, rep.max_abs_eta, np.array(rep.counts), rep.sample_count,
            rep.bin_edges]
    assert checks.eta_report(*args) == []
    offset = rep.mean_eta - checks.eta_expected(phi)
    assert checks.eta_mean_offset([offset, offset]) == []
    assert checks.eta_mean_offset([offset + 0.05, offset])
    assert checks.eta_mean_offset([offset + 0.05, offset + 0.05])
    short = list(args)
    short[3] = short[3].copy()
    short[3][50] -= 1
    assert checks.eta_report(*short)
    small = list(args)
    small[2] = 0.4
    assert checks.eta_report(*small)


def test_eta_expectation_matches_a_direct_average():
    phi = sensing.sensing_matrix(sensing.random_schedule(30, 3), 64).entries
    rng = np.random.default_rng(0)
    etas = []
    for _ in range(20000):
        support = rng.choice(64, 4, replace=False)
        v = rng.standard_normal(4)
        pv = phi[:, support] @ v
        etas.append((2 / 30) * (pv @ pv) / (v @ v) - 1)
    assert abs(np.mean(etas) - checks.eta_expected(phi)) < 0.01


def test_isotropy_report_rejects_deviation_and_misreport():
    est = 0.5 * np.eye(8)
    est[1, 2] = est[2, 1] = 0.004
    assert checks.isotropy_report(est, 0.004, 0.0) == []
    bad = est.copy()
    bad[3, 3] = 0.52
    assert checks.isotropy_report(bad, 0.004, 0.02)
    assert checks.isotropy_report(est, 0.003, 0.0)


def test_incoherence_off_by_1e9_is_rejected():
    phi = sensing.sensing_matrix(sensing.random_schedule(30, 1), 64)
    value = diagnostics.incoherence(phi)
    assert checks.incoherence_value(phi.schedule.alphas, 64, value) == []
    assert checks.incoherence_value(phi.schedule.alphas, 64, value - 1e-9)


def test_cli_outputs_reject_a_changed_byte(tmp_path):
    truth = np.zeros(16)
    truth[[2, 6]] = [0.25, 0.75]
    csv = tmp_path / "sim.csv"
    assert cli.main(["simulate", "--modes", "3=0.25,7=0.75", "--n", "16", "--m", "32",
                     "--format", "csv", "--out", str(csv)]) == 0
    text = csv.read_text()
    assert checks.interferogram_csv(text, truth) == []
    row = text.splitlines()[3]
    alpha, power = row.split(",")
    digit = power[5]                          # fourth decimal of the power
    changed_row = f"{alpha},{power[:5]}{'1' if digit != '1' else '2'}{power[6:]}"
    assert checks.interferogram_csv(text.replace(row, changed_row, 1), truth)

    out = tmp_path / "ft.json"
    assert cli.main(["recover", str(csv), "--method", "ft", "--n", "16",
                     "--out", str(out)]) == 0
    data = out.read_bytes()
    weights = json.loads(data)["data"]["weights"]
    assert checks.recovered_weights(weights, truth, checks.FT_TOL, "ft") == []
    assert checks.recovered_weights(np.add(weights, 1e-9), truth, checks.FT_TOL, "ft")
    assert checks.identical(data, data, "recover") == []
    assert checks.identical(data, data.replace(b"1", b"2", 1), "recover")


def test_noisy_bound_separates_matched_from_interpolating_solves():
    bound = checks.noisy_bound(0.01, 30, [1.0] + [0.0] * 63)
    eps = 0.01 * math.sqrt(30 + 2 * math.sqrt(60))
    assert bound == pytest.approx((10 * eps / math.sqrt(15)) ** 2)
    assert 1e-3 < bound < 0.1


def test_scipy_share_counts_outermost_scipy_modules_once():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:       200 |        300 |     scipy",
        "import time:       400 |        400 |       scipy.linalg._fblas",
        "import time:       500 |       1200 |     scipy.linalg",
        "import time:        50 |       1550 |   compint.recovery",
        "import time:        10 |       1560 | compint",
    ])
    assert layers._scipy_share(text) == pytest.approx(1500e-6)


def test_tracer_self_time_and_restore():
    tracer = tracing.Tracer()
    original = modes.synthesize
    tracer.install()
    try:
        assert modes.synthesize is not original
        spec = experiments.scenario_by_name("hg0")
        modes.field_interferogram(spec.amplitudes, 0.5, modes.default_grid(spec.basis))
    finally:
        tracer.uninstall()
    assert modes.synthesize is original
    times = tracer.self_times()
    assert times["modes.field_interferogram"][0] == 1
    assert times["modes.synthesize"][0] == 2
    assert times["modes.mode_table"][0] == 2
    total = times["modes.field_interferogram"][2]
    inner = sum(times[n][1] for n in ("modes.synthesize", "modes.mode_table"))
    assert times["modes.field_interferogram"][1] == pytest.approx(total - inner, abs=1e-9)

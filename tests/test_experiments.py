import dataclasses

import numpy as np
import pytest

from compint.experiments import (
    ScenarioSpec,
    SweepResult,
    builtin_scenarios,
    error_vs_m_sweep,
    random_sparse_spectrum,
    run_scenario,
    scenario_by_name,
)
from compint.modes import BasisKind, ComplexModalField, ModeBasis
from compint import experiments, recovery
from compint.recovery import BPOptions, Method, RecoveryResult, reconstruction_error
from compint.sensing import ModalSpectrum

from oracles import highs_bp


# ------------------------------------------------------------ stock scenarios


def test_builtin_scenario_catalog():
    specs = builtin_scenarios()
    names = [s.name for s in specs]
    assert names == ["hg0", "hg1", "lg0", "lg1", "hg0+hg1", "hg1+ihg2"]
    for s in specs:
        assert s.n_modes == 64
        assert s.nyquist_m == 128
        assert s.cs_m == 30
        assert s.noise_sigma == 0.0
        assert abs(s.spectrum.weights.sum() - 1.0) < 1e-12


def test_builtin_scenario_spectra():
    by_name = {s.name: s for s in builtin_scenarios()}
    np.testing.assert_array_equal(
        by_name["hg0"].spectrum.weights,
        ModalSpectrum.from_entries(64, {1: 1.0}).weights)
    np.testing.assert_array_equal(
        by_name["hg1"].spectrum.weights,
        ModalSpectrum.from_entries(64, {2: 1.0}).weights)
    np.testing.assert_array_equal(
        by_name["hg0+hg1"].spectrum.weights,
        ModalSpectrum.from_entries(64, {1: 0.5, 2: 0.5}).weights)
    np.testing.assert_array_equal(
        by_name["hg1+ihg2"].spectrum.weights,
        ModalSpectrum.from_entries(64, {2: 0.5, 3: 0.5}).weights)
    assert by_name["hg0"].basis.kind is BasisKind.HERMITE_GAUSS_1D
    assert by_name["lg0"].basis.kind is BasisKind.LAGUERRE_GAUSS_RADIAL
    assert by_name["lg1"].basis.kind is BasisKind.LAGUERRE_GAUSS_RADIAL


def test_builtin_amplitudes_match_spectra():
    for s in builtin_scenarios():
        assert s.amplitudes is not None
        assert s.amplitudes.basis == s.basis
        np.testing.assert_allclose(s.amplitudes.mode_weights(),
                                   s.spectrum.weights, atol=1e-12)


def test_coefficient_phase_is_invisible_in_weights():
    # hg1+ihg2 carries a relative i on the second coefficient; the weight
    # vector it induces is bit-identical to the unphased superposition's
    s = scenario_by_name("hg1+ihg2")
    r = 1.0 / np.sqrt(2.0)
    c = np.zeros(64, complex)
    c[1] = r
    c[2] = r
    unphased = ComplexModalField(s.basis, c, normalized=True)
    assert np.array_equal(unphased.mode_weights(), s.amplitudes.mode_weights())


def test_scenario_by_name_lookup():
    assert scenario_by_name("lg1").name == "lg1"
    with pytest.raises(KeyError, match="hg0"):
        scenario_by_name("nope")


def test_scenario_spec_validation():
    hg = ModeBasis(BasisKind.HERMITE_GAUSS_1D, 4)
    x = ModalSpectrum.from_entries(4, {1: 1.0}, normalized=True)
    ScenarioSpec("ok", hg, x)
    with pytest.raises(ValueError):
        ScenarioSpec("bad", hg, ModalSpectrum.from_entries(3, {1: 1.0}))
    with pytest.raises(ValueError):
        ScenarioSpec("bad", hg, x, cs_m=200, nyquist_m=100)
    with pytest.raises(ValueError):
        ScenarioSpec("bad", hg, x, noise_sigma=-0.1)
    lg = ModeBasis(BasisKind.LAGUERRE_GAUSS_RADIAL, 4)
    amp = ComplexModalField(lg, np.array([1.0, 0, 0, 0]), normalized=True)
    with pytest.raises(ValueError):
        ScenarioSpec("bad", hg, x, amplitudes=amp)
    amp2 = ComplexModalField(hg, np.array([0, 1.0, 0, 0]), normalized=True)
    with pytest.raises(ValueError):
        ScenarioSpec("bad", hg, x, amplitudes=amp2)


# ------------------------------------------------------------- running them


def test_run_scenario_single_mode():
    res = run_scenario(scenario_by_name("hg0"))
    assert res.bp.converged
    assert res.ft_truth_error < 1e-10
    assert res.bp_truth_error < 1e-6
    assert res.bp_vs_ft_error < 1e-6
    np.testing.assert_allclose(res.ft.raw[0], 1.0, atol=1e-12)


def test_run_scenario_deterministic():
    spec = scenario_by_name("hg0+hg1")
    a = run_scenario(spec)
    b = run_scenario(spec)
    np.testing.assert_array_equal(a.bp.raw, b.bp.raw)
    np.testing.assert_array_equal(a.ft.raw, b.ft.raw)
    assert a.bp_vs_ft_error == b.bp_vs_ft_error


def test_run_scenario_starved_sampling_fails_gracefully():
    # 2 measurements cannot pin down a 2-sparse spectrum in 64 modes; the
    # run must complete and the misfit must show up in the truth error
    spec = dataclasses.replace(scenario_by_name("hg0+hg1"), cs_m=2)
    res = run_scenario(spec)
    assert res.bp_truth_error > 0.01


def test_scenario_errors_are_recomputable():
    res = run_scenario(scenario_by_name("hg1"))
    assert res.bp_vs_ft_error == reconstruction_error(res.ft.raw, res.bp.raw)
    assert res.ft_truth_error == reconstruction_error(res.spec.spectrum, res.ft.raw)
    assert res.bp_truth_error == reconstruction_error(res.spec.spectrum, res.bp.raw)


def test_stock_beams_over_seeds():
    # The six stock beams, noiseless, over 200 seeds, each with a random
    # schedule of its own: every BP solve converges, on the truth's support,
    # with bp_vs_ft_error <= 1e-3 (the benchmark's check on every round).
    for spec in builtin_scenarios():
        support = spec.spectrum.weights != 0
        for seed in range(200):
            res = run_scenario(dataclasses.replace(spec, seed=seed))
            assert res.bp.converged
            assert res.bp_vs_ft_error <= 1e-3
            assert np.array_equal(res.bp.raw != 0, support)


# -------------------------------------------------------------------- sweeps


def test_sweep_error_drops_with_m():
    sweep = error_vs_m_sweep(16, 2, [4, 64], runs=8, seed=0)
    np.testing.assert_array_equal(sweep.m_values, [4, 64])
    assert sweep.runs_per_point == 8
    assert sweep.mean_error[1] < sweep.mean_error[0]
    assert sweep.mean_error[1] < 1e-3
    assert sweep.m_star == 64

    again = error_vs_m_sweep(16, 2, [4, 64], runs=8, seed=0)
    np.testing.assert_array_equal(sweep.mean_error, again.mean_error)
    np.testing.assert_array_equal(sweep.std_error, again.std_error)


def _highs_solve(phi, y, opts=recovery.BPOptions()):
    """A noiseless Basis Pursuit result from HiGHS: its optimum, run to its
    own tolerance, refit on its support by `recovery._refit` (entries below
    1e-9 of its largest are off the support); converged where it finds one."""
    x, _ = highs_bp(phi.entries, y.values, opts.nonnegative)
    z = np.zeros(phi.n_modes)
    if x is not None:
        z = recovery._refit(phi.entries, y.values, np.abs(x) > 1e-9 * np.abs(x).max())
    return RecoveryResult(spectrum=ModalSpectrum(np.maximum(z, 0.0)), iterations=0,
                          final_residual=float(np.linalg.norm(phi.entries @ z - y.values)),
                          converged=x is not None, method=Method.BP, raw=z)


def test_sweep_unchanged_by_early_stop(monkeypatch):
    # Criterion 6's sweep at four of its M values: ending each solve at its
    # first certified refit leaves every number as the HiGHS optimum, refit
    # on its support, gives it.
    m_values = [5, 10, 20, 30]
    early = error_vs_m_sweep(64, 4, m_values, runs=100, seed=0)
    monkeypatch.setattr(experiments, "basis_pursuit", _highs_solve)
    full = error_vs_m_sweep(64, 4, m_values, runs=100, seed=0)
    np.testing.assert_array_equal(early.mean_error, full.mean_error)
    np.testing.assert_array_equal(early.std_error, full.std_error)
    assert early.m_star == full.m_star


def _recorded_sweep(monkeypatch, *args, **kwargs):
    """error_vs_m_sweep(*args, **kwargs) and the RecoveryResult of each solve."""
    solves = []
    solve = experiments.basis_pursuit

    def recording(*bp_args):
        solves.append(solve(*bp_args))
        return solves[-1]

    with monkeypatch.context() as patch:
        patch.setattr(experiments, "basis_pursuit", recording)
        return error_vs_m_sweep(*args, **kwargs), solves


def test_sweep_path_route_matches_highs(monkeypatch):
    # Criterion 6's sweep with 20 runs: the solves of the exact solver and
    # those of HiGHS, the linear program's solver, have the same verdicts,
    # and converged raw outputs within 1e-12 relative l1.
    args = (64, 4, range(5, 51, 5))
    path, path_solves = _recorded_sweep(monkeypatch, *args, runs=20)
    monkeypatch.setattr(experiments, "basis_pursuit", _highs_solve)
    lp, lp_solves = _recorded_sweep(monkeypatch, *args, runs=20)
    assert len(path_solves) == len(lp_solves) == 200
    for res, ref in zip(path_solves, lp_solves):
        assert res.converged == ref.converged
        if res.converged:
            assert np.abs(res.raw - ref.raw).sum() <= 1e-12 * np.abs(ref.raw).sum()
    assert path.m_star == lp.m_star


def test_sweep_refit_leaves_exact_zeros(monkeypatch):
    # Two one-run sweeps where a refit that kept a column of the support at
    # a round-off value (4.2e-17 and 3.3e-17) would leave an error of 1.4e-32
    # and 2.6e-33.  Only the entries that keep their sign are refit, so the
    # solution is the truth to the last bit and the mean error is exactly 0.
    for m, seed in ((5, 1), (10, 2)):
        sweep, (res,) = _recorded_sweep(monkeypatch, 64, 4, [m], 1, seed=seed)
        assert res.converged
        assert sweep.mean_error[0] == 0.0


def test_sweep_reports_no_threshold_crossing():
    sweep = error_vs_m_sweep(16, 2, [2, 3], runs=5, seed=0)
    assert sweep.m_star is None
    assert np.all(sweep.mean_error > sweep.threshold)


def test_sweep_single_vector_pool():
    sweep = error_vs_m_sweep(16, 2, [64], runs=4, vectors=1, seed=3)
    assert sweep.m_star == 64
    assert sweep.mean_error[0] < 1e-10


def test_sweep_validation():
    with pytest.raises(ValueError):
        error_vs_m_sweep(16, 2, [], runs=4)
    with pytest.raises(ValueError):
        error_vs_m_sweep(16, 2, [0, 5], runs=4)
    with pytest.raises(ValueError):
        error_vs_m_sweep(16, 0, [5], runs=4)
    with pytest.raises(ValueError):
        error_vs_m_sweep(16, 17, [5], runs=4)
    with pytest.raises(ValueError):
        error_vs_m_sweep(16, 2, [5], runs=0)
    with pytest.raises(ValueError):
        error_vs_m_sweep(16, 2, [5], runs=4, vectors=0)


def test_sweep_result_validation():
    with pytest.raises(ValueError):
        SweepResult(np.array([5, 10]), np.array([0.1]), np.array([0.0, 0.0]),
                    runs_per_point=1, m_star=None, threshold=0.01)
    with pytest.raises(ValueError):
        SweepResult(np.array([5]), np.array([-0.1]), np.array([0.0]),
                    runs_per_point=1, m_star=None, threshold=0.01)
    with pytest.raises(ValueError):
        SweepResult(np.array([5]), np.array([0.1]), np.array([0.0]),
                    runs_per_point=0, m_star=None, threshold=0.01)


def test_sweep_counts_unconverged_solves(monkeypatch):
    capped, solves = _recorded_sweep(monkeypatch, 64, 4, [5, 30], runs=5,
                                     opts=BPOptions(max_iters=1))
    assert capped.unconverged == sum(not r.converged for r in solves) > 0
    full, solves = _recorded_sweep(monkeypatch, 64, 4, [5, 30], runs=5)
    assert all(r.converged for r in solves)
    assert full.unconverged == 0


def test_sweep_result_unconverged_count():
    args = (np.array([5]), np.array([0.1]), np.array([0.0]))
    assert SweepResult(*args, 1, None, 0.01).unconverged == 0
    with pytest.raises(ValueError):
        SweepResult(*args, 1, None, 0.01, unconverged=-1)


# ----------------------------------------------------------- random spectra


def test_random_sparse_spectrum_properties():
    for s in (1, 3, 8):
        x = random_sparse_spectrum(16, s, seed=s)
        assert x.sparsity == s
        assert abs(x.weights.sum() - 1.0) < 1e-12
        assert np.all(x.weights >= 0.0)
    a = random_sparse_spectrum(16, 3, seed=5)
    b = random_sparse_spectrum(16, 3, seed=5)
    np.testing.assert_array_equal(a.weights, b.weights)
    assert not np.array_equal(a.weights, random_sparse_spectrum(16, 3, seed=6).weights)
    with pytest.raises(ValueError):
        random_sparse_spectrum(16, 0, seed=0)
    with pytest.raises(ValueError):
        random_sparse_spectrum(16, 17, seed=0)

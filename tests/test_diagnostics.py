import itertools
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chisquare

from compint import diagnostics
from compint._rng import derive_seed, stream
from compint.diagnostics import (
    EtaEnsembleReport,
    IsotropyReport,
    eta,
    eta_ensemble,
    incoherence,
    isotropy_estimate,
    isotropy_from_rows,
)
from compint.sensing import (
    DelaySchedule,
    ModalSpectrum,
    ScheduleKind,
    nyquist_schedule,
    random_schedule,
    sensing_matrix,
)

from oracles import isotropy_reference


# ----------------------------------------------------------------- eta values


def test_eta_single_row_at_zero_delay():
    sched = DelaySchedule(np.array([0.0]), ScheduleKind.EXTERNAL)
    phi = sensing_matrix(sched, 1)
    assert eta(phi, np.array([1.0])) == 1.0


def test_eta_single_column_formula():
    # for N = 1, eta reduces to (2/M) sum_j cos^2(alpha_j) - 1 whatever x is
    sched = random_schedule(13, seed=3)
    phi = sensing_matrix(sched, 1)
    expect = (2.0 / 13) * float(np.sum(np.cos(sched.alphas) ** 2)) - 1.0
    for value in (1.0, -2.5, 0.01):
        assert abs(eta(phi, np.array([value])) - expect) < 1e-12


def test_eta_concentrates_at_large_m():
    phi = sensing_matrix(random_schedule(100000, seed=0), 16)
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert abs(eta(phi, rng.standard_normal(16))) < 3.0 / np.sqrt(100000)


def test_eta_scale_invariant_and_bounded_below():
    phi = sensing_matrix(random_schedule(9, seed=1), 6)
    rng = np.random.default_rng(1)
    for _ in range(25):
        x = rng.standard_normal(6)
        assert abs(eta(phi, x) - eta(phi, 5.0 * x)) < 1e-12
        assert eta(phi, x) >= -1.0


def test_eta_accepts_spectrum_and_rejects_zero():
    phi = sensing_matrix(random_schedule(9, seed=1), 4)
    x = ModalSpectrum.from_entries(4, {2: 1.0}, normalized=True)
    assert eta(phi, x) == eta(phi, np.array([0.0, 1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        eta(phi, np.zeros(4))


# -------------------------------------------------------------- eta ensembles


def test_eta_ensemble_histogram_layout_and_determinism():
    rep = eta_ensemble(10, 8, 2, 300, seed=4)
    assert rep.sample_count == 300
    assert int(rep.counts.sum()) == 300
    assert len(rep.bin_edges) == len(rep.counts) + 1
    assert rep.bin_edges[0] == -1.0 and rep.bin_edges[-1] == 1.0
    assert rep.max_abs_eta >= abs(rep.mean_eta)
    assert (rep.m, rep.n_modes, rep.s) == (10, 8, 2)

    again = eta_ensemble(10, 8, 2, 300, seed=4)
    np.testing.assert_array_equal(rep.counts, again.counts)
    assert rep.mean_eta == again.mean_eta
    assert rep.max_abs_eta == again.max_abs_eta


def test_eta_counts_match_edge_array_histogram():
    # eta_ensemble bins by bins=_HIST_BINS, range=(-1, 1), which must count
    # exactly as the edge array it reports, on and next to every edge too
    edges = diagnostics._HIST_EDGES
    values = np.concatenate([
        edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        [-1.0, 1.0], np.random.default_rng(3).uniform(-1.2, 1.2, 100_000)])
    want = np.histogram(np.clip(values, -1.0, 1.0), bins=edges)[0]
    np.testing.assert_array_equal(diagnostics._eta_counts(values), want)
    for value in values[:3 * len(edges) + 2]:
        want = np.histogram(np.clip([value], -1.0, 1.0), bins=edges)[0]
        np.testing.assert_array_equal(diagnostics._eta_counts(np.array([value])), want)


def _direct_draws(m, n, s, samples, seed, redraw_phi):
    """(supports, values, etas) row by row: Floyd's algorithm in plain Python
    on the draws of the stream (seed, "eta-block", b), and eta from `eta`."""
    block = diagnostics._ETA_BLOCK
    phi = sensing_matrix(random_schedule(m, derive_seed(seed, "eta-phi")), n)
    supports, values, etas = [], [], []
    for b in range(-(-samples // block)):
        rng = stream(seed, "eta-block", b)
        draws = [rng.integers(0, j + 1, size=block) for j in range(n - s, n)]
        block_values = rng.standard_normal((block, s))
        for row in range(block):
            i = b * block + row
            if i == samples:
                break
            support = []
            for j, t in zip(range(n - s, n), draws):
                support.append(j if t[row] in support else int(t[row]))
            if redraw_phi:
                phi = sensing_matrix(random_schedule(m, derive_seed(seed, "eta-phi", i)), n)
            x = np.zeros(n)
            x[support] = block_values[row]
            supports.append(support)
            values.append(block_values[row])
            etas.append(eta(phi, x))
    return np.array(supports), np.array(values), np.array(etas)


def _blocked_draws(m, n, s, samples, seed, redraw_phi):
    """The same three arrays as eta_ensemble computes them, block by block."""
    blocks = list(diagnostics._eta_blocks(m, n, s, samples, seed, redraw_phi))
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def test_eta_ensemble_matches_direct_reimplementation():
    # sample i is a pure function of (seed, i): one shared matrix from
    # (seed, "eta-phi"), supports and values from its block's stream
    m, n, samples, seed = 7, 5, 200, 9
    rep = eta_ensemble(m, n, 1, samples, seed=seed)
    etas = _direct_draws(m, n, 1, samples, seed, False)[2]
    counts, _ = np.histogram(np.clip(etas, -1.0, 1.0), bins=np.linspace(-1, 1, 102))
    np.testing.assert_array_equal(rep.counts, counts)
    assert rep.mean_eta == pytest.approx(float(etas.mean()), abs=1e-15)
    assert rep.max_abs_eta == pytest.approx(float(np.max(np.abs(etas))), abs=1e-15)


@pytest.mark.parametrize("redraw_phi, samples", [(False, 600), (True, 200)])
def test_eta_draws_match_direct_reimplementation_at_bench_shape(redraw_phi, samples):
    m, n, s, seed = 30, 64, 4, 12
    supports, values, etas = _blocked_draws(m, n, s, samples, seed, redraw_phi)
    want_supports, want_values, want_etas = _direct_draws(m, n, s, samples, seed, redraw_phi)
    np.testing.assert_array_equal(supports, want_supports)
    np.testing.assert_array_equal(values, want_values)
    assert np.max(np.abs(etas - want_etas)) <= 1e-14
    rep = eta_ensemble(m, n, s, samples, seed, redraw_phi=redraw_phi)
    clipped = np.clip(etas, -1.0, 1.0)
    np.testing.assert_array_equal(rep.counts, np.histogram(clipped, bins=rep.bin_edges)[0])
    assert rep.mean_eta == float(np.mean(etas))
    assert rep.max_abs_eta == float(np.max(np.abs(etas)))


def test_eta_samples_do_not_depend_on_block_boundaries():
    # a run of K samples is a prefix of any longer run, across a block edge,
    # and the rows at the edge are the direct reimplementation's
    m, n, s, seed = 30, 64, 4, 2
    block = diagnostics._ETA_BLOCK
    for redraw_phi in (False, True):
        runs = [_blocked_draws(m, n, s, count, seed, redraw_phi)
                for count in (block - 1, block, block + 1)]
        for shorter, longer in zip(runs, runs[1:]):
            for got, want in zip(longer, shorter):
                np.testing.assert_array_equal(got[:len(want)], want)
        edge = _direct_draws(m, n, s, block + 1, seed, redraw_phi)
        for got, want in zip(runs[-1], edge):
            np.testing.assert_allclose(got[block - 2:], want[block - 2:], rtol=0, atol=1e-14)


@pytest.mark.parametrize("n, s", [(6, 3), (64, 4), (5, 1), (5, 5)])
def test_eta_supports_are_distinct_indices(n, s):
    supports, *_ = _blocked_draws(4, n, s, 2 * diagnostics._ETA_BLOCK, 5, False)
    assert supports.min() >= 0 and supports.max() < n
    assert all(len(set(row)) == s for row in supports.tolist())


def test_eta_supports_uniform_over_subsets():
    # Floyd's algorithm makes every size-s subset equally likely: chi-square
    # over all C(6, 3) = 20 subsets of three blocks' rows
    supports, *_ = _blocked_draws(4, 6, 3, 3 * diagnostics._ETA_BLOCK, 21, False)
    subsets = list(itertools.combinations(range(6), 3))
    counts = Counter(tuple(sorted(row)) for row in supports.tolist())
    assert set(counts) == set(subsets)
    assert chisquare([counts[c] for c in subsets]).pvalue > 1e-3


def test_eta_ensemble_clamps_out_of_range_values():
    # a single-row matrix pushes eta well above 1 for aligned vectors
    rep = eta_ensemble(1, 2, 2, 500, seed=5)
    assert rep.clamped_high > 0
    assert rep.max_abs_eta > 1.0
    assert int(rep.counts.sum()) == 500


def test_eta_ensemble_redraw_changes_distribution():
    fixed = eta_ensemble(10, 8, 2, 300, seed=4, redraw_phi=False)
    redrawn = eta_ensemble(10, 8, 2, 300, seed=4, redraw_phi=True)
    assert not np.array_equal(fixed.counts, redrawn.counts)


def test_eta_ensemble_mean_matches_conditional_expectation():
    # For a fixed Phi the mean of eta over sparse Gaussian vectors tends to
    # E[eta | Phi] = (2/M) mean_n ||phi_n||^2 - 1, which is not 0 in general
    # (here it reaches 0.064); over redrawn Phi it tends to 0.
    m, n, s, samples = 30, 64, 4, 4000
    for seed in range(8):
        schedule = random_schedule(m, derive_seed(seed, "eta-phi"))
        columns = sensing_matrix(schedule, n).entries
        expect = (2.0 / m) * float(np.mean(np.sum(columns ** 2, axis=0))) - 1.0
        rep = eta_ensemble(m, n, s, samples, seed)
        assert abs(rep.mean_eta - expect) <= 0.02, (seed, expect)
    for seed in range(3):
        rep = eta_ensemble(m, n, s, samples, seed, redraw_phi=True)
        assert abs(rep.mean_eta) <= 0.02, seed


def test_eta_ensemble_validation():
    with pytest.raises(ValueError):
        eta_ensemble(10, 8, 0, 10, seed=0)
    with pytest.raises(ValueError):
        eta_ensemble(10, 8, 9, 10, seed=0)
    with pytest.raises(ValueError):
        eta_ensemble(10, 8, 2, 0, seed=0)
    with pytest.raises(ValueError):
        eta_ensemble(0, 8, 2, 10, seed=0)


def test_eta_report_validation():
    edges = np.linspace(-1.0, 1.0, 4)
    good = dict(bin_edges=edges, counts=np.array([1, 2, 3]), max_abs_eta=0.5,
                mean_eta=0.1, sample_count=6, s=1, m=4, n_modes=4,
                clamped_low=0, clamped_high=0)
    EtaEnsembleReport(**good)
    with pytest.raises(ValueError):
        EtaEnsembleReport(**{**good, "counts": np.array([1, 2])})
    with pytest.raises(ValueError):
        EtaEnsembleReport(**{**good, "sample_count": 7})
    with pytest.raises(ValueError):
        EtaEnsembleReport(**{**good, "mean_eta": 0.9})


# ---------------------------------------------------------------- incoherence


def test_incoherence_extremes():
    zero = DelaySchedule(np.array([0.0]), ScheduleKind.EXTERNAL)
    assert incoherence(sensing_matrix(zero, 4)) == 1.0
    quarter = DelaySchedule(np.array([np.pi / 2.0]), ScheduleKind.EXTERNAL)
    assert incoherence(sensing_matrix(quarter, 1)) < 1e-30


def test_incoherence_bound_over_random_schedules():
    for i in range(200):
        phi = sensing_matrix(random_schedule(30, seed=i), 64)
        assert incoherence(phi) <= 1.0


# ------------------------------------------------------------------- isotropy


def test_isotropy_exact_on_even_grid():
    # the even grid makes the cosine columns exactly orthogonal with square
    # norm K/2, so the row second moment is 0.5 I to rounding
    alphas = nyquist_schedule(1024).alphas
    est = isotropy_from_rows(alphas, 8)
    assert np.max(np.abs(est - 0.5 * np.eye(8))) < 1e-14
    assert np.array_equal(est, est.T)


@pytest.mark.parametrize("n_modes", [1, 8, 64, 256])
@pytest.mark.parametrize("rows", [1, 7, 70001])
def test_isotropy_matches_cosine_table_reference(n_modes, rows):
    # the harmonic-mean form against the explicit rows; both ends of [0, 2*pi]
    # are among the delays (a single row is 2*pi alone)
    alphas = stream(rows, "isotropy-oracle").uniform(0.0, 2.0 * np.pi, rows)
    alphas[0] = 0.0
    alphas[-1] = 2.0 * np.pi
    est = isotropy_from_rows(alphas, n_modes)
    assert np.array_equal(est, est.T)
    assert np.max(np.abs(est - isotropy_reference(alphas, n_modes))) <= 1e-13


_ISO_BLOCK = diagnostics._ISOTROPY_BLOCK


@pytest.mark.parametrize("n_modes", [1, 5, 64, 256])
@pytest.mark.parametrize("rows", [_ISO_BLOCK - 1, _ISO_BLOCK, _ISO_BLOCK + 1,
                                  3 * _ISO_BLOCK + 7])
def test_isotropy_blocks_match_cosine_table_reference(n_modes, rows):
    # row counts on either side of a block boundary, and a short last block
    alphas = stream(rows, "isotropy-blocks").uniform(0.0, 2.0 * np.pi, rows)
    est = isotropy_from_rows(alphas, n_modes)
    assert np.array_equal(est, est.T)
    assert np.max(np.abs(est - isotropy_reference(alphas, n_modes))) <= 1e-13


def test_isotropy_estimate_draws_rows_block_by_block():
    # drawing the delays a block at a time takes the same values from the
    # stream as one draw of all rows
    rows = 3 * _ISO_BLOCK + 7
    alphas = stream(5, "isotropy-rows").uniform(0.0, 2.0 * np.pi, rows)
    np.testing.assert_array_equal(isotropy_estimate(8, rows, 5).estimate,
                                  isotropy_from_rows(alphas, 8))


def test_isotropy_estimate_memory_does_not_grow_with_rows():
    # all of 10**6 delays at once would take 8 MB, and their powers 16 MB
    isotropy_estimate(64, 10, 0)
    tracemalloc.start()
    try:
        isotropy_estimate(64, 10**6, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_isotropy_single_row():
    est = isotropy_from_rows(np.array([0.0]), 3)
    np.testing.assert_array_equal(est, np.ones((3, 3)))


def test_isotropy_estimate_consistency_and_convergence():
    coarse = isotropy_estimate(8, 1000, seed=2)
    fine = isotropy_estimate(8, 10000, seed=2)
    assert coarse.rows_sampled == 1000
    off = fine.estimate - np.diag(np.diag(fine.estimate))
    assert float(np.max(np.abs(off))) == fine.max_offdiag_abs
    assert float(np.max(np.abs(np.diag(fine.estimate) - 0.5))) == fine.max_diag_dev
    err_coarse = max(coarse.max_diag_dev, coarse.max_offdiag_abs)
    err_fine = max(fine.max_diag_dev, fine.max_offdiag_abs)
    assert err_fine < err_coarse

    again = isotropy_estimate(8, 1000, seed=2)
    np.testing.assert_array_equal(coarse.estimate, again.estimate)


def test_isotropy_validation():
    with pytest.raises(ValueError):
        isotropy_estimate(8, 0, seed=0)
    with pytest.raises(ValueError):
        isotropy_estimate(0, 10, seed=0)
    with pytest.raises(ValueError):
        IsotropyReport(np.zeros((2, 3)), 0.0, 0.0, 1)
    asym = np.array([[0.5, 0.1], [0.2, 0.5]])
    with pytest.raises(ValueError):
        IsotropyReport(asym, 0.2, 0.0, 1)

import numpy as np
import pytest

from compint.sensing import (
    DelaySchedule,
    MeasurementVector,
    ModalSpectrum,
    SensingMatrix,
    analytic_interferogram,
    even_alphas,
    nyquist_schedule,
    random_schedule,
    sample_interferogram,
    sensing_matrix,
)


# ----------------------------------------------------------------- schedules


def test_nyquist_schedule_values():
    np.testing.assert_allclose(nyquist_schedule(4).alphas,
                               [0.0, np.pi / 2, np.pi, 3 * np.pi / 2],
                               atol=1e-15)
    np.testing.assert_allclose(nyquist_schedule(2).alphas, [0.0, np.pi],
                               atol=1e-15)
    sched = nyquist_schedule(128)
    assert sched.m == 128
    np.testing.assert_array_equal(sched.alphas, even_alphas(128))
    assert abs(sched.alphas[-1] - 2.0 * np.pi * 127 / 128) < 1e-15
    with pytest.raises(ValueError):
        nyquist_schedule(0)


def test_random_schedule_moments_and_range():
    sched = random_schedule(100000, seed=0)
    a = sched.alphas
    assert np.all(a >= 0.0) and np.all(a <= 2.0 * np.pi)
    assert abs(a.mean() - np.pi) < 0.02
    assert abs(a.var() - np.pi ** 2 / 3.0) < 0.05


def test_random_schedule_deterministic():
    a = random_schedule(16, seed=7).alphas
    b = random_schedule(16, seed=7).alphas
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, random_schedule(16, seed=8).alphas)


def test_schedule_validation():
    with pytest.raises(ValueError):
        DelaySchedule(np.array([0.0, 7.0]))
    with pytest.raises(ValueError):
        DelaySchedule(np.array([-0.1]))
    with pytest.raises(ValueError):
        DelaySchedule(np.array([np.nan]))
    with pytest.raises(ValueError):
        DelaySchedule(np.array([]))
    # a schedule is its delays: the even grid and any other set are alike
    assert DelaySchedule(even_alphas(5)) == nyquist_schedule(5)
    DelaySchedule(np.array([0.0, 1.0]))


# ------------------------------------------------------------- sensing matrix


def test_sensing_matrix_rows():
    sched = DelaySchedule(np.array([0.0, np.pi, np.pi / 2.0]))
    phi = sensing_matrix(sched, 3)
    assert phi.shape == (3, 3)
    np.testing.assert_allclose(phi.entries[0], [1.0, 1.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(phi.entries[1], [-1.0, 1.0, -1.0], atol=1e-15)
    np.testing.assert_allclose(phi.entries[2], [0.0, -1.0, 0.0], atol=1e-15)


def test_sensing_matrix_column_order():
    # column n-1 oscillates at harmonic n along the even grid
    sched = nyquist_schedule(64)
    phi = sensing_matrix(sched, 4)
    for n in range(1, 5):
        np.testing.assert_allclose(phi.entries[:, n - 1],
                                   np.cos(n * sched.alphas), atol=1e-15)
    with pytest.raises(ValueError):
        sensing_matrix(sched, 0)


def test_sensing_matrix_reads_its_mode_count_from_the_entries():
    sched = DelaySchedule(np.array([0.0, 1.0]))
    phi = SensingMatrix(np.ones((2, 5)), sched)
    assert phi.n_modes == 5 and phi.shape == (2, 5)
    assert sensing_matrix(sched, 3).n_modes == 3
    # one row per delay, in two dimensions
    for bad in (np.ones((3, 5)), np.ones(2), np.ones((2, 5, 1))):
        with pytest.raises(ValueError, match="entries shape"):
            SensingMatrix(bad, sched)


def test_entries_are_bounded_and_readonly():
    phi = sensing_matrix(random_schedule(50, seed=1), 8)
    assert np.max(np.abs(phi.entries)) <= 1.0
    with pytest.raises(ValueError):
        phi.entries[0, 0] = 2.0


# ------------------------------------------------------------------ spectrum


def test_spectrum_validation_and_properties():
    x = ModalSpectrum(np.array([0.5, 0.0, 0.5]), normalized=True)
    assert x.n_modes == 3
    assert x.sparsity == 2
    with pytest.raises(ValueError):
        ModalSpectrum(np.array([-0.1, 1.1]))
    with pytest.raises(ValueError):
        ModalSpectrum(np.array([0.5, 0.4]), normalized=True)
    with pytest.raises(ValueError):
        ModalSpectrum(np.array([np.inf]))
    with pytest.raises(ValueError):
        ModalSpectrum(np.array([]))


def test_spectrum_from_entries():
    x = ModalSpectrum.from_entries(4, {1: 0.5, 3: 0.5}, normalized=True)
    np.testing.assert_array_equal(x.weights, [0.5, 0.0, 0.5, 0.0])
    with pytest.raises(ValueError):
        ModalSpectrum.from_entries(4, {5: 1.0})
    with pytest.raises(ValueError):
        ModalSpectrum.from_entries(4, {0: 1.0})


# ------------------------------------------------------------- interferogram


def test_analytic_interferogram_points():
    e2 = ModalSpectrum.from_entries(4, {2: 1.0}, normalized=True)
    assert abs(analytic_interferogram(e2, np.pi / 2.0) - 0.0) < 1e-12
    norm = ModalSpectrum(np.full(4, 0.25), normalized=True)
    assert analytic_interferogram(norm, 0.0) == 2.0
    mix = ModalSpectrum.from_entries(4, {1: 0.5, 2: 0.5}, normalized=True)
    assert abs(analytic_interferogram(mix, np.pi) - 1.0) < 1e-12


def test_analytic_interferogram_vectorized():
    x = ModalSpectrum.from_entries(8, {3: 1.0}, normalized=True)
    alphas = nyquist_schedule(32).alphas
    out = analytic_interferogram(x, alphas)
    np.testing.assert_allclose(out, 1.0 + np.cos(3.0 * alphas), atol=1e-12)
    assert isinstance(analytic_interferogram(x, 0.3), float)


def test_sampling_consistent_with_matrix():
    rng = np.random.default_rng(2)
    for i in range(100):
        n = int(rng.integers(1, 12))
        m = int(rng.integers(1, 20))
        x = ModalSpectrum(rng.uniform(0.0, 1.0, n))
        sched = random_schedule(m, seed=i)
        y = sample_interferogram(x, sched)
        direct = sensing_matrix(sched, n).entries @ x.weights
        np.testing.assert_allclose(y.values, direct, atol=1e-12)
        pointwise = analytic_interferogram(x, sched.alphas) - 1.0
        np.testing.assert_allclose(y.values, pointwise, atol=1e-12)


def test_normalized_measurements_bounded():
    x = ModalSpectrum(np.full(8, 0.125), normalized=True)
    y = sample_interferogram(x, random_schedule(1000, seed=3))
    assert np.max(np.abs(y.values)) <= 1.0 + 1e-12


def test_noise_statistics_and_determinism():
    x = ModalSpectrum.from_entries(4, {1: 1.0}, normalized=True)
    sched = nyquist_schedule(100000)
    sigma = 0.05
    y = sample_interferogram(x, sched, noise_sigma=sigma, seed=4)
    clean = np.cos(sched.alphas)
    resid = y.values - clean
    assert abs(resid.std() - sigma) < 0.05 * sigma

    again = sample_interferogram(x, sched, noise_sigma=sigma, seed=4)
    np.testing.assert_array_equal(y.values, again.values)
    other = sample_interferogram(x, sched, noise_sigma=sigma, seed=5)
    assert not np.array_equal(y.values, other.values)

    noiseless = sample_interferogram(x, sched, noise_sigma=0.0, seed=4)
    np.testing.assert_allclose(noiseless.values, clean, atol=1e-12)
    with pytest.raises(ValueError):
        sample_interferogram(x, sched, noise_sigma=-0.1)


def test_nan_noise_sigma_is_rejected():
    # NaN fails every comparison, so it must not pass for "no noise"
    x = ModalSpectrum.from_entries(4, {1: 1.0})
    with pytest.raises(ValueError, match="noise_sigma must be >= 0, got nan"):
        sample_interferogram(x, nyquist_schedule(8), noise_sigma=np.nan)


def test_overflowing_noisy_samples_raise_one_value_error():
    # samples pushed past the float range by the noise reach the finite
    # check without a numpy RuntimeWarning
    x = ModalSpectrum.from_entries(2, {1: 1.7e308})
    with pytest.raises(ValueError, match="values must be finite"):
        sample_interferogram(x, nyquist_schedule(8), noise_sigma=1e308, seed=1)


def test_measurement_vector_validation():
    v = MeasurementVector(np.array([0.1, -0.2]))
    assert len(v) == 2
    with pytest.raises(ValueError):
        MeasurementVector(np.array([[0.1]]))
    with pytest.raises(ValueError):
        MeasurementVector(np.array([np.nan]))

"""Delay schedules, the interferometric sensing matrix, and measurement synthesis.

A schedule is its list of delay values alpha_j in [0, 2*pi] and nothing more:
whether they form the Nyquist grid is read from the values themselves.  The
sensing matrix has entries cos(n * alpha_j) for harmonic index n = 1..N, and
the baseline-subtracted interferogram samples y_j = P(alpha_j) - 1 satisfy
y = Phi @ x for the modal weight vector x = {|c_n|^2}.
"""
from __future__ import annotations

import numpy as np

from ._rng import stream
from .modes import _TWO_PI, _frozen_value, _own, _own_vector


@_frozen_value
class ModalSpectrum:
    """Nonnegative modal weights x_n = |c_n|^2, n = 1..N."""

    weights: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        w = _own_vector(self, "weights")
        if (w < 0).any():
            raise ValueError("weights must be nonnegative")
        if self.normalized and abs(w.sum() - 1.0) > 1e-9:
            raise ValueError(
                f"normalized spectrum must sum to 1, got {w.sum()}")

    @property
    def n_modes(self) -> int:
        return len(self.weights)

    @property
    def sparsity(self) -> int:
        """Support size s: number of strictly positive weights."""
        return int(np.count_nonzero(self.weights))

    @classmethod
    def from_entries(cls, n_modes: int, entries: dict[int, float],
                     normalized: bool = False) -> "ModalSpectrum":
        """Spectrum of length n_modes from {harmonic index n: weight}."""
        w = np.zeros(n_modes)
        for n, value in entries.items():
            if not 1 <= n <= n_modes:
                raise ValueError(f"mode index {n} outside 1..{n_modes}")
            w[n - 1] = value
        return cls(w, normalized=normalized)


def _as_vector(x) -> np.ndarray:
    """The weights of a ModalSpectrum, or any other vector as floats."""
    if isinstance(x, ModalSpectrum):
        return x.weights
    return np.asarray(x, dtype=float)


def even_alphas(m: int) -> np.ndarray:
    """The half-open Nyquist grid alpha_j = 2*pi*j/m, j = 0..m-1."""
    return np.arange(m) * (_TWO_PI / m)


@_frozen_value
class DelaySchedule:
    """Ordered delay values alpha_j in [0, 2*pi]."""

    alphas: np.ndarray

    def __post_init__(self):
        a = _own_vector(self, "alphas")
        if a.min() < 0 or a.max() > _TWO_PI:
            raise ValueError("delay values must lie in [0, 2*pi]")

    @property
    def m(self) -> int:
        return len(self.alphas)


@_frozen_value
class SensingMatrix:
    """M x N matrix with entries cos(n * alpha_j), n = 1..N."""

    entries: np.ndarray
    schedule: DelaySchedule

    def __post_init__(self):
        e = _own(self, "entries")
        if e.ndim != 2 or len(e) != self.schedule.m:
            raise ValueError(
                f"entries shape {e.shape} is not ({self.schedule.m}, N)")

    @property
    def n_modes(self) -> int:
        return self.entries.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape


@_frozen_value
class MeasurementVector:
    """Baseline-subtracted interferogram samples y_j = P(alpha_j) - 1."""

    values: np.ndarray

    def __post_init__(self):
        _own_vector(self, "values")

    def __len__(self) -> int:
        return len(self.values)


def nyquist_schedule(m: int) -> DelaySchedule:
    """M evenly spaced delays 2*pi*j/M, j = 0..M-1 (endpoint 2*pi excluded)."""
    if m < 1:
        raise ValueError(f"schedule length must be >= 1, got {m}")
    return DelaySchedule(even_alphas(m))


def random_schedule(m: int, seed: int) -> DelaySchedule:
    """M delays drawn i.i.d. uniform on [0, 2*pi], reproducible from seed."""
    if m < 1:
        raise ValueError(f"schedule length must be >= 1, got {m}")
    return DelaySchedule(_random_delays(m, seed))


def _random_delays(m: int, seed: int) -> np.ndarray:
    """The delays of random_schedule(m, seed), without the schedule's checks."""
    return stream(seed, "delay-schedule").uniform(0.0, _TWO_PI, m)


def sensing_matrix(schedule: DelaySchedule, n_modes: int) -> SensingMatrix:
    """Build Phi with Phi[j, n-1] = cos(n * alpha_j)."""
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    harmonics = np.arange(1, n_modes + 1)
    entries = np.cos(np.outer(schedule.alphas, harmonics))
    return SensingMatrix(entries, schedule)


def analytic_interferogram(x: ModalSpectrum, alpha):
    """P(alpha) = 1 + sum_n x_n cos(n*alpha); alpha may be scalar or array."""
    harmonics = np.arange(1, x.n_modes + 1)
    a = np.asarray(alpha, dtype=float)
    out = 1.0 + np.cos(np.multiply.outer(a, harmonics)) @ x.weights
    return float(out) if a.ndim == 0 else out


def sample_interferogram(x: ModalSpectrum, schedule: DelaySchedule,
                         noise_sigma: float = 0.0, seed: int = 0) -> MeasurementVector:
    """Measurements y_j = P(alpha_j) - 1 + eps_j with i.i.d. Gaussian noise.

    eps_j is 0 when noise_sigma = 0; otherwise drawn from the stream keyed by
    (seed, "measurement-noise"), so identical (x, schedule, sigma, seed) give
    bit-identical vectors.
    """
    return _measure(sensing_matrix(schedule, x.n_modes), x, noise_sigma, seed)


def _measure(phi: SensingMatrix, x: ModalSpectrum, noise_sigma: float = 0.0,
             seed: int = 0) -> MeasurementVector:
    """sample_interferogram(x, phi.schedule, noise_sigma, seed), for a caller
    that has already built phi = sensing_matrix(phi.schedule, x.n_modes).

    The returned vector holds the samples only; the noise level is not kept."""
    if not noise_sigma >= 0:
        raise ValueError(f"noise_sigma must be >= 0, got {noise_sigma}")
    # Overflow is left to MeasurementVector's finite check, which names it.
    with np.errstate(over="ignore", invalid="ignore"):
        y = phi.entries @ x.weights
        if noise_sigma > 0:
            y = y + stream(seed, "measurement-noise").normal(0.0, noise_sigma, phi.schedule.m)
    return MeasurementVector(y)

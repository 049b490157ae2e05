"""End-to-end reconstruction studies.

Two reproducible experiments: named beam scenarios recovered side by side with
harmonic inversion (Nyquist-rate even sampling) and Basis Pursuit (random
sub-Nyquist sampling), and a reconstruction-error-versus-M sweep over random
sparse spectra that locates the measurement count where recovery becomes
reliable.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rng import derive_seed, stream
from .modes import BasisKind, ComplexModalField, ModeBasis, _own_vector
from .recovery import (BPOptions, RecoveryResult, _ft_invert, basis_pursuit,
                       reconstruction_error)
from .sensing import (ModalSpectrum, _measure, nyquist_schedule, random_schedule,
                      sensing_matrix)

_FIELD_WEIGHT_TOL = 1e-9


@dataclass(frozen=True)
class ScenarioSpec:
    """A named beam plus the sampling parameters used to reconstruct it.

    `spectrum` is the ground-truth weight vector (length = basis.max_order).
    `amplitudes` optionally carries the complex coefficients behind it, for
    field-level checks; weight vectors cannot see coefficient phases.
    """

    name: str
    basis: ModeBasis
    spectrum: ModalSpectrum
    amplitudes: ComplexModalField | None = None
    nyquist_m: int = 128
    cs_m: int = 30
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.spectrum.n_modes != self.basis.max_order:
            raise ValueError(
                f"spectrum length {self.spectrum.n_modes} != basis order "
                f"{self.basis.max_order}")
        if self.nyquist_m < 1 or self.cs_m < 1:
            raise ValueError("sample counts must be >= 1")
        if self.cs_m > self.nyquist_m:
            raise ValueError(
                f"cs_m {self.cs_m} exceeds nyquist_m {self.nyquist_m}")
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.amplitudes is not None:
            if self.amplitudes.basis != self.basis:
                raise ValueError("amplitudes basis must match scenario basis")
            dev = np.max(np.abs(self.amplitudes.mode_weights() - self.spectrum.weights))
            if dev > _FIELD_WEIGHT_TOL:
                raise ValueError(
                    f"amplitudes disagree with spectrum (max dev {dev:.3g})")

    @property
    def n_modes(self) -> int:
        return self.spectrum.n_modes


@dataclass(frozen=True)
class ScenarioResult:
    """Paired reconstructions of one scenario.

    bp_vs_ft_error is the scaled metric ||x_FT - x_BP||^2 / ||x_FT||^2 with
    the harmonic-inversion result as reference; the *_truth_* errors score
    each method against the known simulated spectrum.  All three use the raw
    (unclipped) solver outputs.
    """

    spec: ScenarioSpec
    ft: RecoveryResult
    bp: RecoveryResult
    bp_vs_ft_error: float
    ft_truth_error: float
    bp_truth_error: float

    def __post_init__(self):
        for label in ("bp_vs_ft_error", "ft_truth_error", "bp_truth_error"):
            if getattr(self, label) < 0:
                raise ValueError(f"{label} must be >= 0")


@dataclass(frozen=True)
class SweepResult:
    """Mean/spread of BP reconstruction error at each measurement count."""

    m_values: np.ndarray
    mean_error: np.ndarray
    std_error: np.ndarray
    runs_per_point: int
    m_star: int | None
    threshold: float
    unconverged: int = 0   # BP solves, over all (M, run) pairs, that did not converge

    def __post_init__(self):
        mv = _own_vector(self, "m_values", int)
        mean = _own_vector(self, "mean_error")
        std = _own_vector(self, "std_error")
        if not (len(mv) == len(mean) == len(std)):
            raise ValueError("sweep arrays must have equal length")
        if (mean < 0).any() or (std < 0).any():
            raise ValueError("error statistics must be nonnegative")
        if self.runs_per_point < 1:
            raise ValueError("runs_per_point must be >= 1")
        if self.unconverged < 0:
            raise ValueError("unconverged must be >= 0")


def _unit_coeffs(basis: ModeBasis, entries: dict[int, complex]) -> ComplexModalField:
    c = np.zeros(basis.max_order, dtype=complex)
    for n, amp in entries.items():
        c[n - 1] = amp
    return ComplexModalField(basis, c, normalized=True)


def builtin_scenarios() -> tuple[ScenarioSpec, ...]:
    """The six stock beams: single modes, and two-mode superpositions.

    All use N=64 potential modes, a 128-point even grid for harmonic
    inversion, and 30 random delays for Basis Pursuit.  hg1+ihg2 differs from
    a plain hg1+hg2 beam only in a relative coefficient phase, which weight
    vectors cannot see; its spectrum equals the unphased superposition's.
    """
    n = 64
    hg = ModeBasis(BasisKind.HERMITE_GAUSS_1D, n)
    lg = ModeBasis(BasisKind.LAGUERRE_GAUSS_RADIAL, n)
    r = 1.0 / np.sqrt(2.0)

    def spec(name, basis, weight_entries, coeff_entries):
        return ScenarioSpec(
            name=name,
            basis=basis,
            spectrum=ModalSpectrum.from_entries(n, weight_entries, normalized=True),
            amplitudes=_unit_coeffs(basis, coeff_entries),
        )

    return (
        spec("hg0", hg, {1: 1.0}, {1: 1.0}),
        spec("hg1", hg, {2: 1.0}, {2: 1.0}),
        spec("lg0", lg, {1: 1.0}, {1: 1.0}),
        spec("lg1", lg, {2: 1.0}, {2: 1.0}),
        spec("hg0+hg1", hg, {1: 0.5, 2: 0.5}, {1: r, 2: r}),
        spec("hg1+ihg2", hg, {2: 0.5, 3: 0.5}, {2: r, 3: 1j * r}),
    )


def scenario_by_name(name: str) -> ScenarioSpec:
    for s in builtin_scenarios():
        if s.name == name:
            return s
    known = ", ".join(s.name for s in builtin_scenarios())
    raise KeyError(f"unknown scenario {name!r}; available: {known}")


def run_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Reconstruct one scenario with both methods and score the results.

    Harmonic inversion sees the full even grid; Basis Pursuit sees cs_m
    delays drawn uniformly from [0, 2*pi].  Noise (if any) is drawn
    independently for the two measurement sets, both keyed by spec.seed.
    """
    truth = spec.spectrum
    nyq = nyquist_schedule(spec.nyquist_m)
    phi_nyq = sensing_matrix(nyq, truth.n_modes)
    y_nyq = _measure(phi_nyq, truth, spec.noise_sigma,
                     derive_seed(spec.seed, "scenario-nyquist"))
    ft = _ft_invert(y_nyq, phi_nyq)

    cs = random_schedule(spec.cs_m, derive_seed(spec.seed, "scenario-schedule"))
    phi = sensing_matrix(cs, truth.n_modes)
    y_cs = _measure(phi, truth, spec.noise_sigma,
                    derive_seed(spec.seed, "scenario-measure"))
    bp = basis_pursuit(phi, y_cs)

    return ScenarioResult(
        spec=spec,
        ft=ft,
        bp=bp,
        bp_vs_ft_error=reconstruction_error(ft.raw, bp.raw),
        ft_truth_error=reconstruction_error(truth, ft.raw),
        bp_truth_error=reconstruction_error(truth, bp.raw),
    )


def _draw_support_values(rng: np.random.Generator, n_modes: int,
                         support_size: int) -> np.ndarray:
    """Weight vector with the given support size, entries summing to 1."""
    support = rng.choice(n_modes, size=support_size, replace=False)
    values = rng.uniform(0.0, 1.0, support_size)
    total = values.sum()
    while total == 0.0:
        values = rng.uniform(0.0, 1.0, support_size)
        total = values.sum()
    weights = np.zeros(n_modes)
    weights[support] = values / total
    return weights


def random_sparse_spectrum(n_modes: int, support_size: int, seed: int) -> ModalSpectrum:
    """A random spectrum with exactly `support_size` positive weights."""
    if not 1 <= support_size <= n_modes:
        raise ValueError(f"support_size {support_size} outside 1..{n_modes}")
    rng = stream(seed, "sparse-spectrum")
    return ModalSpectrum(_draw_support_values(rng, n_modes, support_size))


def error_vs_m_sweep(n_modes: int, s_max: int, m_values, runs: int,
                     vectors: int | None = None, seed: int = 0,
                     threshold: float = 0.01,
                     opts: BPOptions = BPOptions()) -> SweepResult:
    """BP reconstruction error versus measurement count M.

    Draws a pool of `vectors` ground-truth spectra (support size uniform on
    1..s_max, positive values summing to 1); defaults to one per run.  Each
    (M, run) pair gets an independent random schedule, so a run is a fresh
    (schedule, spectrum) draw.  Errors are scored against the known ground
    truth.  m_star is the smallest M whose mean error falls below
    `threshold`, or None if none does; `unconverged` counts the solves that
    did not converge, whose errors are averaged in all the same.
    Deterministic in (arguments, seed).
    """
    m_values = np.asarray(list(m_values), dtype=int)
    if len(m_values) == 0:
        raise ValueError("m_values must be non-empty")
    if np.any(m_values < 1):
        raise ValueError("all m_values must be >= 1")
    if not 1 <= s_max <= n_modes:
        raise ValueError(f"s_max {s_max} outside 1..{n_modes}")
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    if vectors is None:
        vectors = runs
    if vectors < 1:
        raise ValueError(f"vectors must be >= 1, got {vectors}")

    pool = []
    for i in range(vectors):
        rng = stream(seed, "sweep-vector", i)
        s = int(rng.integers(1, s_max + 1))
        pool.append(ModalSpectrum(_draw_support_values(rng, n_modes, s)))

    mean_error = np.empty(len(m_values))
    std_error = np.empty(len(m_values))
    unconverged = 0
    for j, m in enumerate(m_values):
        errors = np.empty(runs)
        for r in range(runs):
            truth = pool[r % vectors]
            schedule = random_schedule(
                int(m), derive_seed(seed, "sweep-schedule", int(m), r))
            phi = sensing_matrix(schedule, n_modes)
            y = _measure(phi, truth)
            result = basis_pursuit(phi, y, opts)
            errors[r] = reconstruction_error(truth, result.raw)
            unconverged += not result.converged
        mean_error[j] = errors.mean()
        std_error[j] = errors.std()

    passing = m_values[mean_error < threshold]
    m_star = int(passing.min()) if len(passing) else None
    return SweepResult(
        m_values=m_values,
        mean_error=mean_error,
        std_error=std_error,
        runs_per_point=runs,
        m_star=m_star,
        threshold=threshold,
        unconverged=unconverged,
    )

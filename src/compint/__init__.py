"""Compressive interferometry of sparse modal spectra.

Simulates generalized interferograms P(alpha) = 1 + sum_n x_n cos(n alpha)
for beams expanded in Hermite-Gauss or radial Laguerre-Gauss modes, samples
them on Nyquist-rate even grids or random sub-Nyquist delay schedules, and
recovers the modal weights x by harmonic inversion or Basis Pursuit.  The
diagnostics module certifies the sensing ensemble (isometry statistic,
incoherence, isotropy); the experiments module packages reproducible studies.
"""

__version__ = "0.1.0"

from .modes import (BasisKind, ComplexModalField, GridResolutionWarning,
                    ModeBasis, SampledGrid, default_grid, delay_kernel,
                    field_interferogram, generalized_delay, mode_function,
                    mode_table, synthesize)
from .sensing import (DelaySchedule, MeasurementVector, ModalSpectrum,
                      SensingMatrix, analytic_interferogram, even_alphas,
                      nyquist_schedule, random_schedule, sample_interferogram,
                      sensing_matrix)
from .recovery import (BPOptions, InsufficientSamplingError, RecoveryResult,
                       basis_pursuit, ft_recover, reconstruction_error)
from .diagnostics import (EtaEnsembleReport, IsotropyReport, eta,
                          eta_ensemble, incoherence, isotropy_estimate,
                          isotropy_from_rows)
from .experiments import (ScenarioResult, ScenarioSpec, SweepResult,
                          builtin_scenarios, error_vs_m_sweep,
                          random_sparse_spectrum, run_scenario,
                          scenario_by_name)

__all__ = [
    "__version__",
    "BasisKind", "ComplexModalField", "GridResolutionWarning", "ModeBasis",
    "SampledGrid", "default_grid", "delay_kernel", "field_interferogram",
    "generalized_delay", "mode_function", "mode_table", "synthesize",
    "DelaySchedule", "MeasurementVector", "ModalSpectrum", "SensingMatrix",
    "analytic_interferogram", "even_alphas",
    "nyquist_schedule", "random_schedule", "sample_interferogram",
    "sensing_matrix",
    "BPOptions", "InsufficientSamplingError", "RecoveryResult",
    "basis_pursuit", "ft_recover", "reconstruction_error",
    "EtaEnsembleReport", "IsotropyReport", "eta", "eta_ensemble",
    "incoherence", "isotropy_estimate", "isotropy_from_rows",
    "ScenarioResult", "ScenarioSpec", "SweepResult", "builtin_scenarios",
    "error_vs_m_sweep", "random_sparse_spectrum", "run_scenario",
    "scenario_by_name",
]

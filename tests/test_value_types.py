"""Every frozen value type owns read-only copies of its array fields."""
import numpy as np
import pytest

from compint.diagnostics import EtaEnsembleReport, IsotropyReport
from compint.experiments import SweepResult
from compint.modes import BasisKind, ComplexModalField, ModeBasis, SampledGrid
from compint.recovery import Method, RecoveryResult
from compint.sensing import (DelaySchedule, MeasurementVector, ModalSpectrum,
                             ScheduleKind, SensingMatrix)

_SCHEDULE = DelaySchedule(np.array([0.0, 1.0]), ScheduleKind.EXTERNAL)

# (type, array fields, other fields): each array field is a fresh input array.
_CASES = [
    (SampledGrid, {"points": [0.0, 1.0], "weights": [0.5, 0.5]}, {}),
    (ComplexModalField, {"coeffs": np.array([1.0, 0.5j])},
     {"basis": ModeBasis(BasisKind.HERMITE_GAUSS_1D, 2)}),
    (ModalSpectrum, {"weights": [0.25, 0.75]}, {}),
    (DelaySchedule, {"alphas": [0.0, 1.0]}, {"kind": ScheduleKind.EXTERNAL}),
    (SensingMatrix, {"entries": [[1.0, 1.0], [0.5, -0.4]]},
     {"schedule": _SCHEDULE, "n_modes": 2}),
    (MeasurementVector, {"values": [0.1, -0.2]}, {}),
    (RecoveryResult, {"raw": [0.0, 1.0]},
     {"spectrum": ModalSpectrum([0.0, 1.0]), "iterations": 0,
      "final_residual": 0.0, "converged": True, "method": Method.FT}),
    (SweepResult,
     {"m_values": np.array([5, 10]), "mean_error": [0.1, 0.01],
      "std_error": [0.05, 0.0]},
     {"runs_per_point": 2, "m_star": 10, "threshold": 0.05}),
    (EtaEnsembleReport,
     {"bin_edges": [-1.0, 0.0, 1.0], "counts": np.array([1, 1])},
     {"max_abs_eta": 0.5, "mean_eta": 0.0, "sample_count": 2, "s": 1, "m": 2,
      "n_modes": 2, "clamped_low": 0, "clamped_high": 0}),
    (IsotropyReport, {"estimate": [[0.5, 0.0], [0.0, 0.5]]},
     {"max_offdiag_abs": 0.0, "max_diag_dev": 0.0, "rows_sampled": 1}),
]


@pytest.mark.parametrize("cls, arrays, others", _CASES,
                         ids=[case[0].__name__ for case in _CASES])
def test_array_fields_are_owned_and_read_only(cls, arrays, others):
    inputs = {name: np.array(value) for name, value in arrays.items()}
    obj = cls(**inputs, **others)
    for name, given in inputs.items():
        before = given.copy()
        given += 1
        stored = getattr(obj, name)
        np.testing.assert_array_equal(stored, before)
        with pytest.raises(ValueError):
            stored.flat[0] = 0


# (type, vector field, other fields): the other fields are valid and sized to
# match a 2-element vector, so the rejection comes from the vector field.
_VECTOR_CASES = [
    (SampledGrid, "points", {"weights": [0.5, 0.5]}),
    (SampledGrid, "weights", {"points": [0.0, 1.0]}),
    (ComplexModalField, "coeffs",
     {"basis": ModeBasis(BasisKind.HERMITE_GAUSS_1D, 2)}),
    (ModalSpectrum, "weights", {}),
    (DelaySchedule, "alphas", {"kind": ScheduleKind.EXTERNAL}),
    (MeasurementVector, "values", {}),
    (SweepResult, "m_values",
     {"mean_error": [0.1, 0.01], "std_error": [0.05, 0.0],
      "runs_per_point": 2, "m_star": 10, "threshold": 0.05}),
    (SweepResult, "mean_error",
     {"m_values": [5, 10], "std_error": [0.05, 0.0],
      "runs_per_point": 2, "m_star": 10, "threshold": 0.05}),
    (SweepResult, "std_error",
     {"m_values": [5, 10], "mean_error": [0.1, 0.01],
      "runs_per_point": 2, "m_star": 10, "threshold": 0.05}),
]

_BAD_VECTORS = {
    "2-D": np.ones((2, 2)),
    "empty": np.array([]),
    "non-finite": np.array([np.nan, 1.0]),
}


_VECTOR_PARAMS = [
    pytest.param(cls, name, others, bad, id=f"{cls.__name__}.{name}-{bad}")
    for cls, name, others in _VECTOR_CASES for bad in _BAD_VECTORS
    # an integer array cannot hold a non-finite value
    if not (name == "m_values" and bad == "non-finite")
]


@pytest.mark.parametrize("cls, name, others, bad", _VECTOR_PARAMS)
def test_vector_fields_must_be_nonempty_finite_1d(cls, name, others, bad):
    with pytest.raises(ValueError, match=name):
        cls(**{name: _BAD_VECTORS[bad]}, **others)

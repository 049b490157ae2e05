"""Every frozen value type owns read-only copies of its array fields and
rejects bad values with a fixed message."""
import re

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


_FIELD_ARGS = {"basis": ModeBasis(BasisKind.HERMITE_GAUSS_1D, 2)}
_SWEEP_ARGS = {"m_values": [5, 10], "mean_error": [0.1, 0.01],
               "std_error": [0.05, 0.0], "runs_per_point": 2, "m_star": 10,
               "threshold": 0.05}

# (type, valid arguments, vector field checked for shape and finiteness)
_CHECKED = [
    (ComplexModalField, {**_FIELD_ARGS, "coeffs": [0.6, 0.8j],
                         "normalized": True}, "coeffs"),
    (ModalSpectrum, {"weights": [0.25, 0.75]}, "weights"),
    (DelaySchedule, {"alphas": [0.0, 1.0], "kind": ScheduleKind.EXTERNAL},
     "alphas"),
    (SweepResult, _SWEEP_ARGS, "mean_error"),
]

_SHAPE_AND_VALUE = {
    "nan": ([np.nan, 0.5], "{} must be finite"),
    "inf": ([np.inf, 0.5], "{} must be finite"),
    "-inf": ([-np.inf, 0.5], "{} must be finite"),
    "empty": ([], "{} must be a non-empty 1-D sequence"),
    "2-D": ([[0.5, 0.5], [0.5, 0.5]], "{} must be a non-empty 1-D sequence"),
}

_MESSAGE_PARAMS = [
    pytest.param(cls, {**valid, name: bad}, message.format(name),
                 id=f"{cls.__name__}-{case}")
    for cls, valid, name in _CHECKED
    for case, (bad, message) in _SHAPE_AND_VALUE.items()
] + [
    pytest.param(ModalSpectrum, {"weights": [0.5, -0.5]},
                 "weights must be nonnegative", id="ModalSpectrum-negative"),
    pytest.param(SweepResult, {**_SWEEP_ARGS, "mean_error": [0.1, -0.01]},
                 "error statistics must be nonnegative",
                 id="SweepResult-negative-mean"),
    pytest.param(SweepResult, {**_SWEEP_ARGS, "std_error": [-0.05, 0.0]},
                 "error statistics must be nonnegative",
                 id="SweepResult-negative-std"),
    pytest.param(DelaySchedule,
                 {"alphas": [-1e-12, 1.0], "kind": ScheduleKind.EXTERNAL},
                 "delay values must lie in [0, 2*pi]", id="DelaySchedule-below"),
    pytest.param(DelaySchedule,
                 {"alphas": [0.0, 2.0 * np.pi + 1e-12],
                  "kind": ScheduleKind.EXTERNAL},
                 "delay values must lie in [0, 2*pi]", id="DelaySchedule-above"),
    pytest.param(ComplexModalField,
                 {**_FIELD_ARGS, "coeffs": [1.0, 1.0j], "normalized": True},
                 "normalized field must have unit power, got 2.0",
                 id="ComplexModalField-power"),
]


@pytest.mark.parametrize("cls, kwargs, message", _MESSAGE_PARAMS)
def test_constructor_error_messages(cls, kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cls(**kwargs)

"""Command-line front end.

Five subcommands map one-to-one onto library operations: `simulate` writes
interferogram samples for a chosen beam and delay schedule, `recover` runs
harmonic inversion or Basis Pursuit on an interferogram file, `diagnose`
checks sensing-ensemble properties (eta statistic, incoherence, isotropy),
`sweep` traces reconstruction error versus measurement count, and `scenario`
reconstructs builtin beams with both methods side by side.

Configuration comes from defaults, then an optional JSON config file, then
command-line flags, in increasing priority.  All randomness is keyed by the
single `seed` value; outputs are byte-stable for fixed inputs and written
atomically.

Exit codes: 0 success, 2 configuration error, 3 ingestion error, 4 output
I/O error, 5 non-converged solve under --strict.
"""
from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from . import __version__
from ._rng import derive_seed
from .diagnostics import eta_ensemble, incoherence, isotropy_estimate
from .experiments import (ScenarioSpec, builtin_scenarios, error_vs_m_sweep,
                          run_scenario, scenario_by_name)
from .modes import _TWO_PI
from .recovery import BPOptions, basis_pursuit, ft_recover
from .sensing import (DelaySchedule, MeasurementVector, ModalSpectrum,
                      ScheduleKind, nyquist_schedule, random_schedule,
                      sample_interferogram, sensing_matrix)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INGEST = 3
EXIT_IO = 4
EXIT_NOT_CONVERGED = 5


class ConfigError(Exception):
    """Bad configuration: unknown key, type mismatch, constraint violation."""


class IngestError(Exception):
    """Malformed interferogram file; message carries the line number."""


class EmitError(Exception):
    """Output file could not be written."""


# ---------------------------------------------------------------------------
# interferogram file ingestion

def ingest_interferogram(path: str, baseline: float = 1.0,
                         wrap: bool = False) -> tuple[DelaySchedule, MeasurementVector]:
    """Read a delay schedule and measurements from an `alpha,power` CSV.

    Lines starting with '#' and blank lines are ignored.  The first content
    line must be the header.  Delays outside [0, 2*pi] are an error unless
    wrap is set, in which case they are reduced mod 2*pi.  Measurement values
    are power minus baseline.  Errors carry 1-based physical line numbers.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc.strerror}")

    alphas = []
    powers = []
    saw_header = False
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if not saw_header:
            if [p.strip() for p in stripped.split(",")] != ["alpha", "power"]:
                raise IngestError(
                    f"{path}:{lineno}: expected header 'alpha,power', "
                    f"got {stripped!r}")
            saw_header = True
            continue
        parts = stripped.split(",")
        if len(parts) != 2:
            raise IngestError(
                f"{path}:{lineno}: expected 2 comma-separated fields, "
                f"got {len(parts)}")
        try:
            alpha = float(parts[0])
            power = float(parts[1])
        except ValueError:
            raise IngestError(f"{path}:{lineno}: non-numeric field in {stripped!r}")
        if not (math.isfinite(alpha) and math.isfinite(power)):
            raise IngestError(f"{path}:{lineno}: non-finite value in {stripped!r}")
        if wrap:
            alpha = alpha % _TWO_PI
        elif not 0.0 <= alpha <= _TWO_PI:
            raise IngestError(
                f"{path}:{lineno}: alpha {alpha!r} outside [0, 2*pi] "
                "(pass wrap to reduce mod 2*pi)")
        alphas.append(alpha)
        powers.append(power)

    if not saw_header:
        raise IngestError(f"{path}: empty file, expected header 'alpha,power'")
    if not alphas:
        raise IngestError(f"{path}: no data rows after the header")

    schedule = DelaySchedule(np.array(alphas), ScheduleKind.EXTERNAL)
    values = np.array(powers) - baseline
    return schedule, MeasurementVector(values)


# ---------------------------------------------------------------------------
# parameter schemas

@dataclass(frozen=True)
class _Param:
    """One config key: its default, its validator and its flag's help line.

    The validator also carries the argparse keywords of the key's flag (see
    `_flag`), so `_build_parser` reads everything from the tables below.
    """

    default: object
    convert: object  # callable(key, raw) -> validated value
    help: str

    def validate(self, key, raw):
        """None leaves a key whose default is None unset."""
        if raw is None and self.default is None:
            return None
        return self.convert(key, raw)


def _flag(**keywords):
    """Attach to a validator the argparse keywords of its flag."""
    def mark(convert):
        convert.flag = keywords
        return convert
    return mark


def _default(owner, name):
    """A library default (function or dataclass field), so none is restated."""
    return inspect.signature(owner).parameters[name].default


def _reject(key, constraint, raw):
    raise ConfigError(f"key '{key}': expected {constraint}, got {raw!r}")


def _coerce(key, constraint, raw, item, kind=float):
    """kind(item) for one value of `raw`, or a ConfigError naming `key`.

    OverflowError counts too: float() of a JSON integer past 1e308 and int()
    of a JSON Infinity raise it.
    """
    try:
        return kind(item)
    except (TypeError, ValueError, OverflowError):
        _reject(key, constraint, raw)


# Counts size numpy arrays, which cannot hold more than np.intp elements.
_MAX_COUNT = int(np.iinfo(np.intp).max)
# The sweep's m_min..m_max range is expanded into a list while parsing; every
# value costs `runs` solves, so a range past a million values would never
# finish, and bounding it keeps the list below about 40 MB.
_MAX_SWEEP_POINTS = 10 ** 6


def _at_most(key, high, value, raw):
    """`value`, or a ConfigError naming `key` if it exceeds `high`."""
    if value > high:
        _reject(key, f"at most {high}", raw)
    return value


def _integer(constraint, in_range, high=math.inf):
    @_flag(type=int)
    def convert(key, raw):
        if isinstance(raw, bool) or not isinstance(raw, int) or not in_range(raw):
            _reject(key, constraint, raw)
        return _at_most(key, high, raw, raw)
    return convert


def _number(constraint, in_range=lambda value: True):
    """A finite float from an int or float that `in_range` accepts."""
    @_flag(type=float)
    def convert(key, raw):
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            _reject(key, constraint, raw)
        value = _coerce(key, constraint, raw, raw)
        if not math.isfinite(value) or not in_range(value):
            _reject(key, constraint, raw)
        return value
    return convert


_COUNT = _integer("an integer >= 1", lambda value: value >= 1, _MAX_COUNT)
_FINITE = _number("a finite number")
_NONNEGATIVE = _number("a number >= 0.0", lambda value: value >= 0)
_POSITIVE = _number("a number > 0", lambda value: value > 0)


@_flag(action="store_true")
def _bool(key, raw):
    if not isinstance(raw, bool):
        _reject(key, "a boolean", raw)
    return raw


@_flag()
def _string(key, raw):
    if not isinstance(raw, str):
        _reject(key, "a string", raw)
    return raw


def _choice(*options):
    @_flag(choices=options)
    def convert(key, raw):
        if raw not in options:
            _reject(key, "one of " + "/".join(options), raw)
        return raw
    return convert


def _weight(key, item, raw, not_numeric):
    """One nonnegative finite weight of the list or map `raw`."""
    value = _coerce(key, not_numeric, raw, item)
    if isinstance(item, bool) or not math.isfinite(value) or value < 0:
        _reject(key, "nonnegative finite weights", raw)
    return value


@_flag()
def _weight_list(key, raw):
    """Nonnegative weights, as a JSON list or a comma-separated string."""
    if isinstance(raw, str):
        raw = [part.strip() for part in raw.split(",")]
    if not isinstance(raw, list) or len(raw) == 0:
        _reject(key, "a non-empty list of numbers", raw)
    return [_weight(key, item, raw, "a non-empty list of numbers")
            for item in raw]


@_flag()
def _mode_map(key, raw):
    """{harmonic index: weight}, as a JSON object or 'n=w,n=w' string."""
    if isinstance(raw, str):
        # A list, not a dict, so that a repeated index reaches the check below.
        pairs = []
        for part in raw.split(","):
            if "=" not in part:
                _reject(key, "entries of the form n=weight", raw)
            left, right = part.split("=", 1)
            pairs.append((left.strip(), right.strip()))
    elif isinstance(raw, dict) and len(raw) > 0:
        pairs = raw.items()
    else:
        _reject(key, "a non-empty map of mode index to weight", raw)
    out = {}
    for index_raw, weight_raw in pairs:
        index = _coerce(key, "integer mode indices >= 1", raw, index_raw, int)
        if index < 1 or index in out:
            _reject(key, "distinct integer mode indices >= 1", raw)
        out[index] = _weight(key, weight_raw, raw, "numeric weights")
    return out


@_flag()
def _int_list(key, raw):
    if isinstance(raw, str):
        raw = [part.strip() for part in raw.split(",")]
    if not isinstance(raw, list) or len(raw) == 0:
        _reject(key, "a non-empty list of integers >= 1", raw)
    out = []
    for item in raw:
        value = _coerce(key, "integers >= 1", raw, item, int)
        if (isinstance(item, bool) or value < 1
                or isinstance(item, float) and item != value):
            _reject(key, "integers >= 1", raw)
        out.append(_at_most(key, _MAX_COUNT, value, raw))
    return out


# One entry per config key: every flag, default and help line comes from here.
# A help line gets " (default X)" appended unless the default is None.
_SCHEMAS = {
    "simulate": {
        "n": _Param(64, _COUNT, "number of potential modes"),
        "schedule": _Param("even", _choice("even", "random"),
                           "delay schedule kind"),
        "m": _Param(None, _COUNT,
                    "number of samples (default "
                    f"{_default(ScenarioSpec, 'nyquist_m')} even, "
                    f"{_default(ScenarioSpec, 'cs_m')} random)"),
        "noise_sigma": _Param(_default(sample_interferogram, "noise_sigma"),
                              _NONNEGATIVE, "additive Gaussian noise level"),
        "scenario": _Param(None, _string, "builtin beam name to simulate"),
        "weights": _Param(None, _weight_list,
                          "comma-separated weight vector (sets n)"),
        "modes": _Param(None, _mode_map, "sparse weights as n=w,n=w pairs"),
    },
    "recover": {
        "input": _Param(None, _string,
                        "interferogram CSV with header alpha,power"),
        "method": _Param("bp", _choice("ft", "bp"),
                         "harmonic inversion (ft) or Basis Pursuit (bp)"),
        "baseline": _Param(_default(ingest_interferogram, "baseline"), _FINITE,
                           "baseline subtracted from power"),
        "wrap": _Param(_default(ingest_interferogram, "wrap"), _bool,
                       "reduce out-of-range delays mod 2*pi"),
        "n": _Param(64, _COUNT, "number of potential modes"),
        "epsilon": _Param(_default(BPOptions, "residual_epsilon"), _NONNEGATIVE,
                          "BP residual radius"),
        "max_iters": _Param(_default(BPOptions, "max_iters"), _COUNT,
                            "cap on BP solver steps"),
        "nonnegative": _Param(_default(BPOptions, "nonnegative"), _bool,
                              "restrict BP to nonnegative weights"),
        "zero_threshold": _Param(_default(BPOptions, "zero_threshold"),
                                 _NONNEGATIVE, "snap smaller weights to zero"),
    },
    "diagnose": {
        "check": _Param("eta", _choice("eta", "incoherence", "isotropy"),
                        "which property"),
        "m": _Param(30, _COUNT, "measurements per schedule"),
        "n": _Param(64, _COUNT, "number of potential modes"),
        "s": _Param(4, _COUNT, "sparsity of test vectors"),
        "samples": _Param(100000, _COUNT, "eta sample count"),
        "schedules": _Param(1000, _COUNT, "schedules for incoherence"),
        "rows": _Param(100000, _COUNT, "rows for isotropy"),
        "redraw_phi": _Param(_default(eta_ensemble, "redraw_phi"), _bool,
                             "fresh sensing matrix per eta sample"),
    },
    "sweep": {
        "n": _Param(64, _COUNT, "number of potential modes"),
        "s_max": _Param(4, _COUNT, "largest support size drawn"),
        "m_values": _Param(None, _int_list,
                           "comma-separated M values (overrides the range)"),
        "m_min": _Param(5, _COUNT, "range start"),
        "m_max": _Param(50, _COUNT, "range stop, inclusive"),
        "m_step": _Param(5, _COUNT, "range step"),
        "runs": _Param(100, _COUNT, "draws per M"),
        "vectors": _Param(None, _COUNT, "ground-truth pool size (default: runs)"),
        "threshold": _Param(_default(error_vs_m_sweep, "threshold"), _POSITIVE,
                            "mean-error threshold for m_star"),
        "max_iters": _Param(_default(error_vs_m_sweep, "opts").max_iters,
                            _COUNT, "cap on BP solver steps per solve"),
    },
    "scenario": {
        "name": _Param("hg0", _string, "builtin beam name"),
        "all": _Param(False, _bool, "run every builtin beam"),
        "nyquist_m": _Param(_default(ScenarioSpec, "nyquist_m"), _COUNT,
                            "even-grid sample count"),
        "cs_m": _Param(_default(ScenarioSpec, "cs_m"), _COUNT,
                       "random sample count"),
        "noise_sigma": _Param(_default(ScenarioSpec, "noise_sigma"),
                              _NONNEGATIVE, "additive Gaussian noise level"),
    },
}

# Keys every command takes; they fill RunConfig's own fields, not params.
_GLOBALS = {
    "seed": _Param(0, _integer("an unsigned 64-bit integer",
                               lambda value: 0 <= value < 2 ** 64),
                   "seed for all randomness"),
    "out": _Param(None, _string, "output file (default: stdout)"),
    "format": _Param("json", _choice("json", "csv"), "output format"),
    "strict": _Param(False, _bool, "exit 5 if a reported solve did not converge"),
}


def _check_simulate(params, explicit):
    sources = [k for k in ("scenario", "weights", "modes") if params[k] is not None]
    if len(sources) > 1:
        raise ConfigError(
            "keys 'scenario', 'weights', 'modes' are mutually exclusive; "
            f"got {', '.join(sources)}")
    if params["weights"] is not None:
        if "n" in explicit and len(params["weights"]) != params["n"]:
            raise ConfigError(
                f"key 'weights': length {len(params['weights'])} conflicts "
                f"with n={params['n']}")
        params["n"] = len(params["weights"])
    if params["scenario"] is not None:
        try:
            preset = scenario_by_name(params["scenario"])
        except KeyError as exc:
            raise ConfigError(f"key 'scenario': {exc.args[0]}") from None
        if "n" in explicit and params["n"] != preset.n_modes:
            raise ConfigError(
                f"key 'n': {params['n']} conflicts with scenario "
                f"'{preset.name}' (N={preset.n_modes})")
        params["n"] = preset.n_modes
    if params["modes"] is not None:
        top = max(params["modes"])
        if top > params["n"]:
            raise ConfigError(
                f"key 'modes': index {top} exceeds n={params['n']}")
    if params["m"] is None:
        count = "nyquist_m" if params["schedule"] == "even" else "cs_m"
        params["m"] = _default(ScenarioSpec, count)


def _check_recover(params, explicit):
    if params["input"] is None:
        raise ConfigError("key 'input': an interferogram file path is required")


def _check_diagnose(params, explicit):
    if params["check"] == "eta" and params["s"] > params["n"]:
        raise ConfigError(
            f"key 's': sparsity {params['s']} exceeds n={params['n']}")


def _check_sweep(params, explicit):
    if params["s_max"] > params["n"]:
        raise ConfigError(
            f"key 's_max': {params['s_max']} exceeds n={params['n']}")
    range_keys = {"m_min", "m_max", "m_step"} & explicit
    if params["m_values"] is not None and range_keys:
        raise ConfigError(
            "key 'm_values': mutually exclusive with "
            + ", ".join(sorted(range_keys)))
    if params["m_values"] is None:
        if params["m_min"] > params["m_max"]:
            raise ConfigError(
                f"key 'm_min': {params['m_min']} exceeds m_max={params['m_max']}")
        count = (params["m_max"] - params["m_min"]) // params["m_step"] + 1
        if count > _MAX_SWEEP_POINTS:
            raise ConfigError(
                f"key 'm_max': m_min..m_max in steps of m_step holds {count} "
                f"values, at most {_MAX_SWEEP_POINTS}")
        params["m_values"] = list(
            range(params["m_min"], params["m_max"] + 1, params["m_step"]))


def _check_scenario(params, explicit):
    try:
        scenario_by_name(params["name"])
    except KeyError as exc:
        raise ConfigError(f"key 'name': {exc.args[0]}") from None
    if params["all"] and "name" in explicit:
        raise ConfigError("key 'name': mutually exclusive with all")
    if params["cs_m"] > params["nyquist_m"]:
        raise ConfigError(
            f"key 'cs_m': {params['cs_m']} exceeds nyquist_m="
            f"{params['nyquist_m']}")


@dataclass(frozen=True)
class RunConfig:
    """A fully validated, fully defaulted invocation."""

    command: str
    params: dict
    seed: int
    output_path: str | None
    output_format: str
    strict: bool


def _load_config_file(path: str) -> dict:
    def no_duplicates(pairs):
        seen = {}
        for key, value in pairs:
            if key in seen:
                raise ConfigError(f"duplicate key '{key}' in config file")
            seen[key] = value
        return seen

    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}")
    try:
        loaded = json.loads(text, object_pairs_hook=no_duplicates)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(loaded, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return loaded


def parse_config(command: str, config_path: str | None = None,
                 overrides: dict | None = None) -> RunConfig:
    """Merge defaults, config file, and flag overrides into a RunConfig.

    Raises ConfigError on unknown keys, type mismatches, or constraint
    violations; messages name the offending key.
    """
    if command not in _SCHEMAS:
        raise ConfigError(f"unknown command '{command}'")
    schema = _SCHEMAS[command]

    keys = {**schema, **_GLOBALS}
    values = {key: spec.default for key, spec in keys.items()}
    explicit = set()

    loaded = {} if config_path is None else _load_config_file(config_path)
    for source in (loaded, overrides or {}):
        for key, raw in source.items():
            if key not in keys:
                raise ConfigError(f"unknown key '{key}' for command '{command}'")
            values[key] = keys[key].validate(key, raw)
            explicit.add(key)

    params = {key: values[key] for key in schema}
    _COMMANDS[command].check(params, explicit)
    return RunConfig(
        command=command,
        params=params,
        seed=values["seed"],
        output_path=values["out"],
        output_format=values["format"],
        strict=values["strict"],
    )


# ---------------------------------------------------------------------------
# result emission

@dataclass
class CommandOutput:
    """One command's payload in both serializable shapes."""

    data: dict
    csv_header: str
    csv_rows: list
    csv_comments: list
    strict_violation: bool = False


def _jsonable(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % float(value)
    return str(value)


def render_text(meta: dict, output: CommandOutput, fmt: str) -> str:
    if fmt == "json":
        body = {"meta": _jsonable(meta), "data": _jsonable(output.data)}
        return json.dumps(body, sort_keys=True, indent=2) + "\n"
    lines = [f"# {comment}" for comment in output.csv_comments]
    lines.append(output.csv_header)
    for row in output.csv_rows:
        lines.append(",".join(_csv_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def emit_result(meta: dict, output: CommandOutput, fmt: str,
                path: str | None) -> str:
    """Render and write a result; returns the rendered text.

    path None writes to stdout.  File writes are atomic (temp file plus
    rename) and byte-stable for identical inputs.
    """
    text = render_text(meta, output, fmt)
    if path is None:
        sys.stdout.write(text)
        return text
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, temp_path = tempfile.mkstemp(dir=directory, prefix=".partial-")
        try:
            # mkstemp makes the file 0600; give it the mode open() would.
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
            os.replace(temp_path, path)
        except BaseException:
            os.unlink(temp_path)
            raise
    except OSError as exc:
        raise EmitError(f"cannot write {path}: {exc.strerror}")
    return text


# ---------------------------------------------------------------------------
# command handlers

def _simulate_spectrum(params) -> ModalSpectrum:
    if params["scenario"] is not None:
        return scenario_by_name(params["scenario"]).spectrum
    if params["weights"] is not None:
        return ModalSpectrum(np.array(params["weights"]))
    modes = params["modes"] if params["modes"] is not None else {1: 1.0}
    return ModalSpectrum.from_entries(params["n"], modes)


def _run_simulate(cfg: RunConfig) -> CommandOutput:
    p = cfg.params
    spectrum = _simulate_spectrum(p)
    if p["schedule"] == "even":
        schedule = nyquist_schedule(p["m"])
    else:
        schedule = random_schedule(p["m"], derive_seed(cfg.seed, "cli-schedule"))
    y = sample_interferogram(spectrum, schedule, p["noise_sigma"],
                             derive_seed(cfg.seed, "cli-measure"))
    powers = 1.0 + y.values
    data = {
        "alphas": schedule.alphas,
        "powers": powers,
        "schedule": p["schedule"],
        "m": p["m"],
        "n": p["n"],
        "noise_sigma": p["noise_sigma"],
        "true_weights": spectrum.weights,
    }
    rows = list(zip(schedule.alphas.tolist(), powers.tolist()))
    return CommandOutput(data, "alpha,power", rows, [])


def _run_recover(cfg: RunConfig) -> CommandOutput:
    p = cfg.params
    schedule, y = ingest_interferogram(p["input"], p["baseline"], p["wrap"])
    if p["method"] == "ft":
        result = ft_recover(y, schedule, p["n"])
    else:
        opts = BPOptions(
            residual_epsilon=p["epsilon"],
            max_iters=p["max_iters"],
            nonnegative=p["nonnegative"],
            zero_threshold=p["zero_threshold"],
        )
        result = basis_pursuit(sensing_matrix(schedule, p["n"]), y, opts)
    data = {
        "method": p["method"],
        "weights": result.spectrum.weights,
        "raw": result.raw,
        "iterations": result.iterations,
        "converged": result.converged,
        "final_residual": result.final_residual,
        "m": schedule.m,
        "n": p["n"],
    }
    rows = [(i + 1, w) for i, w in enumerate(result.spectrum.weights.tolist())]
    comments = [
        f"method = {p['method']}",
        f"converged = {str(result.converged).lower()}",
        f"final_residual = {_csv_cell(result.final_residual)}",
    ]
    return CommandOutput(data, "n,weight", rows, comments,
                         strict_violation=not result.converged)


def _run_diagnose(cfg: RunConfig) -> CommandOutput:
    p = cfg.params
    if p["check"] == "eta":
        report = eta_ensemble(p["m"], p["n"], p["s"], p["samples"], cfg.seed,
                              redraw_phi=p["redraw_phi"])
        data = {
            "check": "eta",
            "bin_edges": report.bin_edges,
            "counts": report.counts,
            "mean_eta": report.mean_eta,
            "max_abs_eta": report.max_abs_eta,
            "sample_count": report.sample_count,
            "clamped_low": report.clamped_low,
            "clamped_high": report.clamped_high,
            "s": report.s,
            "m": report.m,
            "n": report.n_modes,
        }
        edges = report.bin_edges.tolist()
        rows = [(edges[i], edges[i + 1], int(c))
                for i, c in enumerate(report.counts.tolist())]
        comments = [
            f"mean_eta = {_csv_cell(report.mean_eta)}",
            f"max_abs_eta = {_csv_cell(report.max_abs_eta)}",
            f"samples = {report.sample_count}",
        ]
        return CommandOutput(data, "bin_left,bin_right,count", rows, comments)
    if p["check"] == "incoherence":
        values = np.empty(p["schedules"])
        for i in range(p["schedules"]):
            schedule = random_schedule(
                p["m"], derive_seed(cfg.seed, "cli-incoherence", i))
            values[i] = incoherence(sensing_matrix(schedule, p["n"]))
        data = {
            "check": "incoherence",
            "values": values,
            "max_incoherence": float(values.max()),
            "schedules": p["schedules"],
            "m": p["m"],
            "n": p["n"],
        }
        rows = [(i, v) for i, v in enumerate(values.tolist())]
        comments = [f"max_incoherence = {_csv_cell(values.max())}"]
        return CommandOutput(data, "schedule_index,incoherence", rows, comments)
    report = isotropy_estimate(p["n"], p["rows"], cfg.seed)
    data = {
        "check": "isotropy",
        "estimate": report.estimate,
        "max_offdiag_abs": report.max_offdiag_abs,
        "max_diag_dev": report.max_diag_dev,
        "rows": report.rows_sampled,
        "n": p["n"],
    }
    rows = [
        ("max_offdiag_abs", report.max_offdiag_abs),
        ("max_diag_dev", report.max_diag_dev),
        ("rows_sampled", report.rows_sampled),
    ]
    return CommandOutput(data, "quantity,value", rows, [])


def _run_sweep(cfg: RunConfig) -> CommandOutput:
    p = cfg.params
    result = error_vs_m_sweep(
        p["n"], p["s_max"], p["m_values"], p["runs"],
        vectors=p["vectors"], seed=cfg.seed, threshold=p["threshold"],
        opts=BPOptions(max_iters=p["max_iters"]),
    )
    data = {
        "m_values": result.m_values,
        "mean_error": result.mean_error,
        "std_error": result.std_error,
        "m_star": result.m_star,
        "runs": result.runs_per_point,
        "unconverged": result.unconverged,
        "threshold": result.threshold,
        "n": p["n"],
        "s_max": p["s_max"],
    }
    rows = list(zip(result.m_values.tolist(), result.mean_error.tolist(),
                    result.std_error.tolist()))
    star = "none" if result.m_star is None else str(result.m_star)
    comments = [f"m_star = {star}", f"runs = {result.runs_per_point}",
                f"unconverged = {result.unconverged}"]
    return CommandOutput(data, "M,mean_error,std_error", rows, comments,
                         strict_violation=result.unconverged > 0)


def _scenario_payload(result) -> dict:
    return {
        "name": result.spec.name,
        "n": result.spec.n_modes,
        "nyquist_m": result.spec.nyquist_m,
        "cs_m": result.spec.cs_m,
        "truth": result.spec.spectrum.weights,
        "ft_spectrum": result.ft.spectrum.weights,
        "bp_spectrum": result.bp.spectrum.weights,
        "bp_vs_ft_error": result.bp_vs_ft_error,
        "ft_truth_error": result.ft_truth_error,
        "bp_truth_error": result.bp_truth_error,
        "bp_converged": result.bp.converged,
        "bp_iterations": result.bp.iterations,
    }


def _run_scenario_cmd(cfg: RunConfig) -> CommandOutput:
    p = cfg.params
    specs = builtin_scenarios() if p["all"] else [scenario_by_name(p["name"])]
    results = []
    for preset in specs:
        spec = dataclasses.replace(
            preset,
            nyquist_m=p["nyquist_m"],
            cs_m=p["cs_m"],
            noise_sigma=p["noise_sigma"],
            seed=cfg.seed,
        )
        results.append(run_scenario(spec))

    payloads = [_scenario_payload(r) for r in results]
    data = payloads[0] if len(payloads) == 1 else {"scenarios": payloads}
    rows = []
    for result in results:
        truth = result.spec.spectrum.weights.tolist()
        ft_w = result.ft.spectrum.weights.tolist()
        bp_w = result.bp.spectrum.weights.tolist()
        for i in range(result.spec.n_modes):
            rows.append((result.spec.name, i + 1, truth[i], ft_w[i], bp_w[i]))
    comments = [
        f"{r.spec.name}: bp_vs_ft_error = {_csv_cell(r.bp_vs_ft_error)}, "
        f"bp_converged = {str(r.bp.converged).lower()}"
        for r in results
    ]
    return CommandOutput(data, "scenario,n,truth,ft_weight,bp_weight", rows,
                         comments,
                         strict_violation=any(not r.bp.converged for r in results))


@dataclass(frozen=True)
class _Command:
    help: str
    check: object  # callable(params, explicit): cross-key checks and derived keys
    run: object  # callable(RunConfig) -> CommandOutput


_COMMANDS = {
    "simulate": _Command("write interferogram samples for a chosen beam",
                         _check_simulate, _run_simulate),
    "recover": _Command("recover modal weights from an interferogram file",
                        _check_recover, _run_recover),
    "diagnose": _Command("check sensing-ensemble properties",
                         _check_diagnose, _run_diagnose),
    "sweep": _Command("trace reconstruction error versus measurement count",
                      _check_sweep, _run_sweep),
    "scenario": _Command("reconstruct builtin beams with both methods",
                         _check_scenario, _run_scenario_cmd),
}


# ---------------------------------------------------------------------------
# argument parsing and entry point

def _build_parser() -> argparse.ArgumentParser:
    """One flag per key of `_SCHEMAS` and `_GLOBALS`, named with `_` -> `-`.

    Absent flags leave no attribute (argparse.SUPPRESS), so the parsed
    namespace holds exactly the overrides plus `command` and `config`.
    """
    parser = argparse.ArgumentParser(
        prog="compint",
        description="Simulate, sample, and recover sparse modal spectra "
                    "from optical interferograms.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for command, schema in _SCHEMAS.items():
        sub = subs.add_parser(command, help=_COMMANDS[command].help,
                              argument_default=argparse.SUPPRESS)
        sub.add_argument("--config", metavar="PATH",
                         help="JSON config file; flags override its keys")
        for key, param in {**schema, **_GLOBALS}.items():
            help_line = param.help
            if param.default is not None:
                help_line += f" (default {param.default})"
            if key == "input":  # recover's interferogram file, the one positional
                sub.add_argument(key, nargs="?", help=help_line)
            else:
                sub.add_argument("--" + key.replace("_", "-"), help=help_line,
                                 **param.convert.flag)
    return parser


def main(argv=None) -> int:
    overrides = vars(_build_parser().parse_args(argv))
    command = overrides.pop("command")
    config_path = overrides.pop("config", None)
    try:
        cfg = parse_config(command, config_path=config_path, overrides=overrides)
        output = _COMMANDS[cfg.command].run(cfg)
    except IngestError as exc:
        print(f"ingest error: {exc}", file=sys.stderr)
        return EXIT_INGEST
    except (ConfigError, ValueError) as exc:
        # Domain-layer precondition failures (for example requesting ft on an
        # uneven schedule) are configuration problems from the CLI's view.
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        # So is a count too large to allocate for, say --samples 10**12.
        print(f"config error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    meta = {
        "command": cfg.command,
        "parameters": cfg.params,
        "seed": cfg.seed,
        "version": __version__,
    }
    try:
        emit_result(meta, output, cfg.output_format, cfg.output_path)
    except EmitError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_IO

    if cfg.strict and output.strict_violation:
        return EXIT_NOT_CONVERGED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

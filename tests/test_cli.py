import argparse
import json
import math
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

from compint.cli import (
    _GLOBALS,
    _SCHEMAS,
    EXIT_CONFIG,
    EXIT_INGEST,
    EXIT_IO,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    CommandOutput,
    ConfigError,
    IngestError,
    _build_parser,
    emit_result,
    ingest_interferogram,
    main,
    parse_config,
    render_text,
)
from compint.recovery import BPOptions

TWO_PI = 2.0 * math.pi


# -------------------------------------------------------------- parse_config


def test_defaults_per_command():
    cfg = parse_config("simulate")
    assert cfg.command == "simulate"
    assert cfg.params["n"] == 64
    assert cfg.params["schedule"] == "even"
    assert cfg.params["m"] == 128
    assert cfg.params["noise_sigma"] == 0.0
    assert cfg.seed == 0
    assert cfg.output_path is None
    assert cfg.output_format == "json"
    assert cfg.strict is False

    sweep = parse_config("sweep")
    assert sweep.params["m_values"] == list(range(5, 51, 5))
    assert sweep.params["runs"] == 100
    # a list default is the schema's, copied: mutating it changes no later parse
    sweep.params["m_values"].append(55)
    assert _SCHEMAS["sweep"]["m_values"].default == list(range(5, 51, 5))
    assert parse_config("sweep").params["m_values"] == list(range(5, 51, 5))

    diag = parse_config("diagnose")
    assert diag.params["check"] == "eta"
    assert (diag.params["m"], diag.params["n"], diag.params["s"]) == (30, 64, 4)


def test_random_schedule_default_m():
    cfg = parse_config("simulate", overrides={"schedule": "random"})
    assert cfg.params["m"] == 30


def test_unknown_and_invalid_keys():
    with pytest.raises(ConfigError, match="bogus"):
        parse_config("simulate", overrides={"bogus": 1})
    with pytest.raises(ConfigError, match="'n'"):
        parse_config("simulate", overrides={"n": "sixty-four"})
    with pytest.raises(ConfigError, match="'n'"):
        parse_config("simulate", overrides={"n": 0})
    with pytest.raises(ConfigError, match="'n'"):
        parse_config("simulate", overrides={"n": True})
    with pytest.raises(ConfigError, match="'format'"):
        parse_config("simulate", overrides={"format": "xml"})
    with pytest.raises(ConfigError):
        parse_config("teleport")


def test_seed_bounds():
    assert parse_config("simulate", overrides={"seed": 2 ** 64 - 1}).seed == 2 ** 64 - 1
    with pytest.raises(ConfigError, match="'seed'"):
        parse_config("simulate", overrides={"seed": -1})
    with pytest.raises(ConfigError, match="'seed'"):
        parse_config("simulate", overrides={"seed": 2 ** 64})
    with pytest.raises(ConfigError, match="'seed'"):
        parse_config("simulate", overrides={"seed": True})


def test_simulate_source_exclusivity_and_n_inference():
    with pytest.raises(ConfigError, match="mutually exclusive"):
        parse_config("simulate",
                     overrides={"scenario": "hg0", "modes": {"1": 1.0}})
    cfg = parse_config("simulate", overrides={"scenario": "hg1"})
    assert cfg.params["n"] == 64
    with pytest.raises(ConfigError, match="'n'"):
        parse_config("simulate", overrides={"scenario": "hg1", "n": 8})
    with pytest.raises(ConfigError, match="'scenario'"):
        parse_config("simulate", overrides={"scenario": "nope"})


def test_mode_map_shapes():
    cfg = parse_config("simulate", overrides={"modes": "2=0.7,5=0.3", "n": 8})
    assert cfg.params["modes"] == {2: 0.7, 5: 0.3}
    cfg = parse_config("simulate", overrides={"modes": {"3": 1.0}, "n": 4})
    assert cfg.params["modes"] == {3: 1.0}
    with pytest.raises(ConfigError, match="'modes'"):
        parse_config("simulate", overrides={"modes": {"9": 1.0}, "n": 8})
    with pytest.raises(ConfigError, match="'modes'"):
        parse_config("simulate", overrides={"modes": "2:0.7"})
    with pytest.raises(ConfigError, match="'modes'"):
        parse_config("simulate", overrides={"modes": {"0": 1.0}})


def test_mode_map_rejects_repeated_index_in_string(capsys):
    with pytest.raises(ConfigError, match="'modes'"):
        parse_config("simulate", overrides={"modes": "2=0.5,2=0.3", "n": 4})
    assert main(["simulate", "--modes", "2=0.5,2=0.3", "--n", "4"]) == EXIT_CONFIG
    assert "key 'modes'" in capsys.readouterr().err


_HUGE = "1" + "0" * 400  # a JSON integer past the float range


@pytest.mark.parametrize("command, config, key", [
    ("recover", '{"epsilon": %s}' % _HUGE, "epsilon"),
    ("simulate", '{"modes": {"1": %s}}' % _HUGE, "modes"),
    ("sweep", '{"m_values": [Infinity]}', "m_values"),
    # past np.intp, where numpy can neither convert nor allocate
    ("sweep", '{"m_values": [1e300]}', "m_values"),
    ("simulate", '{"m": %s}' % 10 ** 30, "m"),
    ("diagnose", '{"samples": %s}' % 10 ** 30, "samples"),
], ids=["number", "mode-weight", "int-list", "int-list-intp",
        "count-intp", "samples-intp"])
def test_out_of_range_json_numbers_exit_config(tmp_path, capsys, command,
                                               config, key):
    # float() of the integer and int() of Infinity raise OverflowError
    path = tmp_path / "cfg.json"
    path.write_text(config)
    argv = [command, "--config", str(path)]
    if command == "recover":
        argv.insert(1, str(tmp_path / "in.csv"))
    assert main(argv) == EXIT_CONFIG
    assert f"config error: key '{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("command, config, key", [
    ("simulate", '{"noise_sigma": "loud"}', "noise_sigma"),
    ("recover", '{"input": "in.csv", "epsilon": -1}', "epsilon"),
    ("recover", '{"input": "in.csv", "wrap": "yes"}', "wrap"),
    ("simulate", '{"scenario": 5}', "scenario"),
    ("simulate", '{"n": null}', "n"),
    ("simulate", '{"modes": {"1": 0.5, "2": -0.5}}', "modes"),
    ("simulate", '{"modes": {}}', "modes"),
    ("sweep", '{"m_values": []}', "m_values"),
    ("sweep", '{"m_values": [2.5]}', "m_values"),
], ids=["number-type", "number-range", "bool-type", "string-type",
        "null-with-default", "negative-weight", "empty-modes",
        "empty-m-values", "fractional-m-value"])
def test_rejected_json_values_exit_config(tmp_path, capsys, command, config,
                                          key):
    path = tmp_path / "cfg.json"
    path.write_text(config)
    assert main([command, "--config", str(path)]) == EXIT_CONFIG
    assert f"config error: key '{key}'" in capsys.readouterr().err


def test_rho_is_rejected_as_flag_and_key(tmp_path, capsys):
    # no solver penalty is left to set, under either spelling
    sim = str(tmp_path / "in.csv")
    with pytest.raises(SystemExit) as info:
        main(["recover", sim, "--rho", "1"])
    assert info.value.code == EXIT_CONFIG
    path = tmp_path / "cfg.json"
    path.write_text('{"rho": 1}')
    capsys.readouterr()
    assert main(["recover", sim, "--config", str(path)]) == EXIT_CONFIG
    assert "unknown key 'rho'" in capsys.readouterr().err


def test_solver_constants_are_rejected_as_flags_and_keys(tmp_path, capsys):
    # the step cap and the report threshold are constants of BPOptions
    sim = str(tmp_path / "in.csv")
    for argv in (["recover", sim, "--max-iters", "5"],
                 ["recover", sim, "--zero-threshold", "0"],
                 ["sweep", "--max-iters", "5"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == EXIT_CONFIG
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err
    path = tmp_path / "cfg.json"
    path.write_text('{"max_iters": 10}')
    for command in (["recover", sim], ["sweep"]):
        assert main(command + ["--config", str(path)]) == EXIT_CONFIG
        assert "unknown key 'max_iters'" in capsys.readouterr().err


def test_weights_is_rejected_as_flag_and_key(tmp_path, capsys):
    # a spectrum comes one way only: --modes n=w pairs with --n
    with pytest.raises(SystemExit) as info:
        main(["simulate", "--weights", "0.5,0.5"])
    assert info.value.code == EXIT_CONFIG
    assert "unrecognized arguments: --weights" in capsys.readouterr().err
    path = tmp_path / "cfg.json"
    path.write_text('{"weights": [1.0]}')
    assert main(["simulate", "--config", str(path)]) == EXIT_CONFIG
    assert "unknown key 'weights'" in capsys.readouterr().err


def test_json_null_leaves_none_default_unset(tmp_path):
    # null for a key whose default is None is the same as leaving it out
    path = tmp_path / "cfg.json"
    path.write_text('{"m": null, "modes": null, "scenario": null}')
    assert (parse_config("simulate", config_path=str(path)).params
            == parse_config("simulate").params)


def test_recover_requires_input():
    with pytest.raises(ConfigError, match="'input'"):
        parse_config("recover")


def test_diagnose_sparsity_check():
    with pytest.raises(ConfigError, match="'s'"):
        parse_config("diagnose", overrides={"s": 65})
    cfg = parse_config("diagnose", overrides={"s": 8, "n": 8})
    assert cfg.params["s"] == 8


def test_sweep_takes_m_values_only(tmp_path, capsys):
    cfg = parse_config("sweep", overrides={"m_values": "10,20"})
    assert cfg.params["m_values"] == [10, 20]
    with pytest.raises(ConfigError, match="'s_max'"):
        parse_config("sweep", overrides={"s_max": 9, "n": 8})
    # M comes as a list only, and each run has its own truth: no range keys
    # and no pool size, as a flag or as a config key
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--m-min", "5"])
    assert info.value.code == EXIT_CONFIG
    assert "unrecognized arguments: --m-min" in capsys.readouterr().err
    path = tmp_path / "cfg.json"
    for key, value in (("vectors", 3), ("m_min", 5)):
        path.write_text(json.dumps({key: value}))
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config("sweep", config_path=str(path))


def test_unallocatable_count_exits_config(monkeypatch, capsys):
    # numpy raises MemoryError for an array too large to allocate, say
    # --samples 10**12; the library call is patched so that nothing real is
    # allocated on a host that overcommits memory
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr("compint.cli.eta_ensemble", too_large)
    assert main(["diagnose", "--samples", str(10 ** 12)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("config error: ")
    assert "7.28 TiB" in captured.err


def test_scenario_checks():
    with pytest.raises(ConfigError, match="'name'"):
        parse_config("scenario", overrides={"name": "nope"})
    with pytest.raises(ConfigError, match="'cs_m'"):
        parse_config("scenario", overrides={"cs_m": 200})
    cfg = parse_config("scenario", overrides={"all": True})
    assert cfg.params["all"] is True


def test_scenario_all_rejects_explicit_name(tmp_path, capsys):
    # --all runs every beam, so a name given with it would be dropped
    with pytest.raises(ConfigError, match="'name'"):
        parse_config("scenario", overrides={"all": True, "name": "lg1"})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"all": True}))
    with pytest.raises(ConfigError, match="'name'"):
        parse_config("scenario", config_path=str(path),
                     overrides={"name": "hg0"})
    cfg = parse_config("scenario", overrides={"all": False, "name": "lg1"})
    assert cfg.params["name"] == "lg1"
    assert main(["scenario", "--all", "--name", "lg1"]) == EXIT_CONFIG
    assert "'name'" in capsys.readouterr().err


def test_config_file_merging_and_errors(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 8, "seed": 5}))
    cfg = parse_config("simulate", config_path=str(path))
    assert cfg.params["n"] == 8
    assert cfg.seed == 5

    # flags override file values
    cfg = parse_config("simulate", config_path=str(path), overrides={"n": 16})
    assert cfg.params["n"] == 16

    dup = tmp_path / "dup.json"
    dup.write_text('{"n": 4, "n": 5}')
    with pytest.raises(ConfigError, match="duplicate key 'n'"):
        parse_config("simulate", config_path=str(dup))

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config("simulate", config_path=str(bad))

    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        parse_config("simulate", config_path=str(arr))

    with pytest.raises(ConfigError, match="cannot read"):
        parse_config("simulate", config_path=str(tmp_path / "missing.json"))


def _subparsers(parser):
    return next(action for action in parser._actions
                if isinstance(action, argparse._SubParsersAction)).choices


def test_parser_matches_schema(capsys):
    parser = _build_parser()
    for command, sub in _subparsers(parser).items():
        keys = {**_SCHEMAS[command], **_GLOBALS}
        actions = [a for a in sub._actions if a.dest not in ("help", "config")]
        # exactly one flag per key, named after it
        assert sorted(a.dest for a in actions) == sorted(keys)
        for action in actions:
            key = action.dest
            if key == "input":
                assert action.option_strings == []
                argv, expected = ["file.csv"], "file.csv"
            else:
                flag = "--" + key.replace("_", "-")
                assert action.option_strings == [flag]
                if action.nargs == 0:
                    argv, expected = [flag], True
                elif action.choices:
                    argv, expected = [flag, action.choices[-1]], action.choices[-1]
                elif action.type is not None:
                    argv, expected = [flag, "3"], action.type("3")
                else:
                    argv, expected = [flag, "text"], "text"
            # absent flags leave nothing behind: the namespace is the overrides
            parsed = vars(parser.parse_args([command, *argv]))
            assert parsed == {"command": command, key: expected}, (command, key)

        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        for key, param in keys.items():
            if param.default is not None:
                assert f"(default {param.default})" in text, (command, key)


# ------------------------------------------------------------------ ingestion


def write_interferogram(path, rows, header="alpha,power", comments=()):
    lines = [f"# {c}" for c in comments]
    if header is not None:
        lines.append(header)
    lines.extend(rows)
    path.write_text("\n".join(lines) + "\n")


def test_ingest_basic(tmp_path):
    path = tmp_path / "data.csv"
    write_interferogram(path, ["0,2.0", f"{math.pi},0.0"],
                        comments=["simulated"])
    schedule, y = ingest_interferogram(str(path))
    np.testing.assert_array_equal(schedule.alphas, [0.0, math.pi])
    np.testing.assert_array_equal(y.values, [1.0, -1.0])


def test_ingest_baseline_and_boundary(tmp_path):
    path = tmp_path / "data.csv"
    write_interferogram(path, [f"{TWO_PI},1.5"])
    schedule, y = ingest_interferogram(str(path), baseline=0.5)
    assert schedule.alphas[0] == TWO_PI
    assert y.values[0] == 1.0


def test_ingest_wrap(tmp_path):
    path = tmp_path / "data.csv"
    write_interferogram(path, ["7.0,1.0"])
    with pytest.raises(IngestError, match=r"data\.csv:2"):
        ingest_interferogram(str(path))
    schedule, _ = ingest_interferogram(str(path), wrap=True)
    assert abs(schedule.alphas[0] - (7.0 - TWO_PI)) < 1e-15


def test_ingest_error_cases(tmp_path):
    path = tmp_path / "data.csv"

    write_interferogram(path, ["0,1.0"], header="delay,power")
    with pytest.raises(IngestError, match="header"):
        ingest_interferogram(str(path))

    write_interferogram(path, ["0,1.0,9"])
    with pytest.raises(IngestError, match="2 comma-separated fields"):
        ingest_interferogram(str(path))

    write_interferogram(path, ["0,abc"])
    with pytest.raises(IngestError, match="non-numeric"):
        ingest_interferogram(str(path))

    write_interferogram(path, ["0,nan"])
    with pytest.raises(IngestError, match="non-finite"):
        ingest_interferogram(str(path))

    path.write_text("")
    with pytest.raises(IngestError, match="empty file"):
        ingest_interferogram(str(path))

    write_interferogram(path, [])
    with pytest.raises(IngestError, match="no data rows"):
        ingest_interferogram(str(path))

    with pytest.raises(IngestError, match="cannot read"):
        ingest_interferogram(str(tmp_path / "missing.csv"))


def test_ingest_reports_physical_line_numbers(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("# one\n\nalpha,power\n0,1.0\nbad line\n")
    with pytest.raises(IngestError, match=r"data\.csv:5"):
        ingest_interferogram(str(path))


# ------------------------------------------------------------------ rendering


def test_render_json_shape():
    out = CommandOutput({"b": 2, "a": np.array([1.0])}, "x,y", [], [])
    text = render_text({"command": "t"}, out, "json")
    assert text.endswith("\n")
    body = json.loads(text)
    assert body["data"]["a"] == [1.0]
    assert list(body.keys()) == ["data", "meta"]
    assert text.index('"a"') < text.index('"b"')


def test_render_csv_round_trips_floats():
    value = 0.1 + 0.2
    out = CommandOutput({}, "alpha,power", [(value, 1), (True, False)],
                        ["note"])
    text = render_text({}, out, "csv")
    lines = text.splitlines()
    assert lines[0] == "# note"
    assert lines[1] == "alpha,power"
    assert float(lines[2].split(",")[0]) == value
    assert lines[3] == "true,false"


def test_emit_to_file_and_stdout(tmp_path, capsys):
    out = CommandOutput({"k": 1}, "a", [], [])
    returned = emit_result({"command": "t"}, out, "json", None)
    assert capsys.readouterr().out == returned

    path = tmp_path / "res.json"
    returned = emit_result({"command": "t"}, out, "json", str(path))
    assert path.read_text() == returned
    assert capsys.readouterr().out == ""


def test_failed_rename_removes_partial_file(tmp_path, capsys):
    # --out naming a directory lets the temp file be written but not renamed
    target = tmp_path / "target"
    target.mkdir()
    assert main(["simulate", "--n", "2", "--m", "4",
                 "--out", str(target)]) == EXIT_IO
    assert "output error:" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["target"]
    assert list(target.iterdir()) == []


def test_out_file_mode_follows_umask(tmp_path):
    # the file gets the mode a plain open() would give it, not mkstemp's 0600
    old = os.umask(0o022)
    try:
        for umask, mode in ((0o022, 0o644), (0o002, 0o664)):
            os.umask(umask)
            path = tmp_path / f"res-{umask:o}.json"
            assert main(["simulate", "--n", "2", "--m", "4",
                         "--out", str(path)]) == EXIT_OK
            assert stat.S_IMODE(path.stat().st_mode) == mode
    finally:
        os.umask(old)


# ---------------------------------------------------------------- end to end


def run_json(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == EXIT_OK, captured.err
    return json.loads(captured.out)


def test_simulate_defaults_payload(capsys):
    body = run_json(["simulate", "--n", "4", "--m", "8"], capsys)
    assert body["meta"]["command"] == "simulate"
    assert body["meta"]["seed"] == 0
    assert body["data"]["m"] == 8
    assert body["data"]["n"] == 4
    # the default beam carries everything in harmonic 1: P(0) = 2 exactly
    assert body["data"]["powers"][0] == 2.0
    assert body["data"]["true_weights"] == [1.0, 0.0, 0.0, 0.0]
    assert len(body["data"]["alphas"]) == 8


def test_simulate_weights_payload(capsys):
    body = run_json(["simulate", "--modes", "1=0.25,2=0.75", "--n", "2",
                     "--m", "8"], capsys)
    assert body["meta"]["parameters"]["n"] == 2
    assert "weights" not in body["meta"]["parameters"]
    assert body["data"]["n"] == 2
    assert body["data"]["true_weights"] == [0.25, 0.75]
    # P(0) = 1 + sum of the weights
    assert body["data"]["powers"][0] == 2.0


def test_simulate_then_recover_ft(tmp_path, capsys):
    sim = tmp_path / "sim.csv"
    rc = main(["simulate", "--modes", "1=0.5,2=0.5", "--n", "8", "--m", "16",
               "--format", "csv", "--out", str(sim)])
    assert rc == EXIT_OK
    lines = sim.read_text().splitlines()
    assert lines[0] == "alpha,power"
    assert len(lines) == 17

    body = run_json(["recover", str(sim), "--method", "ft", "--n", "8"], capsys)
    weights = np.array(body["data"]["weights"])
    np.testing.assert_allclose(weights, [0.5, 0.5, 0, 0, 0, 0, 0, 0],
                               atol=1e-12)
    assert body["data"]["converged"] is True
    assert body["data"]["method"] == "ft"
    assert body["data"]["m"] == 16


def test_simulate_then_recover_bp(tmp_path, capsys):
    sim = tmp_path / "sim.csv"
    rc = main(["simulate", "--modes", "5=1", "--n", "8", "--schedule",
               "random", "--m", "6", "--format", "csv", "--out", str(sim)])
    assert rc == EXIT_OK
    body = run_json(["recover", str(sim), "--method", "bp", "--n", "8"],
                    capsys)
    weights = np.array(body["data"]["weights"])
    assert abs(weights[4] - 1.0) < 1e-3
    assert body["data"]["converged"] is True
    deleted = np.delete(weights, 4)
    assert np.max(deleted) < 1e-3


def test_noisy_simulate_then_recover_at_matched_epsilon(tmp_path):
    # epsilon = sigma sqrt(M + 2 sqrt(2M)), the usual bound on the noise norm
    sigma, m = 0.01, 30
    eps = sigma * math.sqrt(m + 2 * math.sqrt(2 * m))
    sim = tmp_path / "sim.csv"
    assert main(["simulate", "--scenario", "hg0+hg1", "--schedule", "random",
                 "--m", str(m), "--noise-sigma", str(sigma), "--format", "csv",
                 "--out", str(sim)]) == EXIT_OK
    argv = ["recover", str(sim), "--epsilon", repr(eps), "--strict"]
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(argv + ["--out", str(a)]) == EXIT_OK
    assert main(argv + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    data = json.loads(a.read_text())["data"]
    assert data["converged"] is True
    assert data["final_residual"] <= eps + BPOptions().abs_tol


def test_recover_csv_output(tmp_path, capsys):
    sim = tmp_path / "sim.csv"
    main(["simulate", "--modes", "2=1", "--n", "4", "--m", "8",
          "--format", "csv", "--out", str(sim)])
    rc = main(["recover", str(sim), "--method", "ft", "--n", "4",
               "--format", "csv"])
    captured = capsys.readouterr()
    assert rc == EXIT_OK
    lines = captured.out.splitlines()
    assert "# method = ft" in lines
    assert "# converged = true" in lines
    header_at = lines.index("n,weight")
    rows = [line.split(",") for line in lines[header_at + 1:]]
    assert [r[0] for r in rows] == ["1", "2", "3", "4"]
    assert abs(float(rows[1][1]) - 1.0) < 1e-12


def test_diagnose_commands_small(capsys):
    body = run_json(["diagnose", "--check", "eta", "--m", "5", "--n", "8",
                     "--s", "2", "--samples", "200"], capsys)
    assert body["data"]["sample_count"] == 200
    assert sum(body["data"]["counts"]) == 200
    assert len(body["data"]["bin_edges"]) == len(body["data"]["counts"]) + 1

    body = run_json(["diagnose", "--check", "incoherence", "--m", "5",
                     "--n", "8", "--schedules", "20"], capsys)
    assert len(body["data"]["values"]) == 20
    assert body["data"]["max_incoherence"] <= 1.0

    body = run_json(["diagnose", "--check", "isotropy", "--n", "4",
                     "--rows", "2000"], capsys)
    est = np.array(body["data"]["estimate"])
    assert est.shape == (4, 4)
    assert abs(est[0, 0] - 0.5) < 0.1


def test_diagnose_isotropy_and_incoherence_ignore_sparsity(capsys):
    # only the eta check draws s-sparse supports, so only it bounds s by n:
    # the default s = 4 exceeds n = 2 but does not stop the other two checks
    body = run_json(["diagnose", "--check", "isotropy", "--n", "2",
                     "--rows", "100"], capsys)
    assert np.array(body["data"]["estimate"]).shape == (2, 2)
    body = run_json(["diagnose", "--check", "incoherence", "--n", "2",
                     "--m", "5", "--schedules", "3"], capsys)
    assert len(body["data"]["values"]) == 3
    with pytest.raises(ConfigError, match="'s'"):
        parse_config("diagnose", overrides={"check": "eta", "n": 2})


def test_sweep_command_small(capsys):
    rc = main(["sweep", "--n", "8", "--s-max", "1", "--m-values", "20",
               "--runs", "3", "--format", "csv"])
    captured = capsys.readouterr()
    assert rc == EXIT_OK
    lines = captured.out.splitlines()
    assert "# m_star = 20" in lines
    assert "# runs = 3" in lines
    assert lines[-2] == "M,mean_error,std_error"
    assert lines[-1].startswith("20,")


def test_sweep_strict_exits_on_unconverged_solves(monkeypatch, capsys):
    monkeypatch.setattr(BPOptions, "max_iters", 1)
    rc = main(["sweep", "--runs", "5", "--strict"])
    body = json.loads(capsys.readouterr().out)
    assert rc == EXIT_NOT_CONVERGED
    assert body["data"]["unconverged"] == 30   # of 10 M values x 5 runs


def test_sweep_strict_passes_when_every_solve_converges(capsys):
    rc = main(["sweep", "--n", "8", "--s-max", "1", "--m-values", "20",
               "--runs", "3", "--strict", "--format", "csv"])
    assert rc == EXIT_OK
    assert "# unconverged = 0" in capsys.readouterr().out.splitlines()


def test_scenario_single_and_all(capsys):
    body = run_json(["scenario", "--name", "hg1"], capsys)
    assert body["data"]["name"] == "hg1"
    assert len(body["data"]["ft_spectrum"]) == 64
    assert len(body["data"]["bp_spectrum"]) == 64
    assert body["data"]["bp_vs_ft_error"] < 1e-3
    assert body["data"]["bp_converged"] is True

    body = run_json(["scenario", "--all"], capsys)
    names = [s["name"] for s in body["data"]["scenarios"]]
    assert names == ["hg0", "hg1", "lg0", "lg1", "hg0+hg1", "hg1+ihg2"]
    for payload in body["data"]["scenarios"]:
        assert payload["bp_vs_ft_error"] < 1e-3


def test_repeated_runs_are_byte_identical(tmp_path):
    pairs = [
        ["simulate", "--n", "6", "--schedule", "random", "--m", "9",
         "--noise-sigma", "0.01", "--format", "csv"],
        ["diagnose", "--check", "eta", "--m", "5", "--n", "8", "--s", "2",
         "--samples", "100"],
        ["sweep", "--n", "8", "--s-max", "1", "--m-values", "16",
         "--runs", "2"],
        ["scenario", "--name", "hg0+hg1"],
    ]
    for argv in pairs:
        a = tmp_path / "a.out"
        b = tmp_path / "b.out"
        assert main(argv + ["--out", str(a)]) == EXIT_OK
        assert main(argv + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()


def test_seed_changes_random_output(tmp_path):
    argv = ["simulate", "--n", "6", "--schedule", "random", "--m", "9"]
    a = tmp_path / "a.out"
    b = tmp_path / "b.out"
    assert main(argv + ["--seed", "1", "--out", str(a)]) == EXIT_OK
    assert main(argv + ["--seed", "2", "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() != b.read_bytes()


# ----------------------------------------------------------------- exit codes


def test_exit_config_error(capsys):
    rc = main(["simulate", "--n", "0"])
    assert rc == EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err

    rc = main(["diagnose", "--s", "65"])
    assert rc == EXIT_CONFIG
    assert "'s'" in capsys.readouterr().err


def test_exit_ingest_error(tmp_path, capsys):
    rc = main(["recover", str(tmp_path / "missing.csv")])
    assert rc == EXIT_INGEST
    assert "ingest error:" in capsys.readouterr().err


def test_exit_config_on_domain_precondition(tmp_path, capsys):
    sim = tmp_path / "sim.csv"
    main(["simulate", "--schedule", "random", "--m", "8", "--n", "4",
          "--format", "csv", "--out", str(sim)])
    capsys.readouterr()
    rc = main(["recover", str(sim), "--method", "ft", "--n", "4"])
    assert rc == EXIT_CONFIG
    assert "evenly spaced" in capsys.readouterr().err


def test_exit_io_error(tmp_path, capsys):
    rc = main(["simulate", "--n", "2", "--m", "4",
               "--out", str(tmp_path / "no-such-dir" / "x.json")])
    assert rc == EXIT_IO
    assert "output error:" in capsys.readouterr().err


def test_exit_io_on_a_result_json_cannot_hold(tmp_path, capsys):
    # noise of 1e300 makes both truth errors about 1e600, which is inf; JSON
    # has no Infinity, so nothing is written.  CSV holds no truth error.
    out = tmp_path / "f.json"
    argv = ["scenario", "--name", "hg0", "--noise-sigma", "1e300"]
    assert main(argv + ["--out", str(out)]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []
    assert main(argv + ["--format", "csv"]) == EXIT_OK


def test_exit_strict_on_nonconvergence(tmp_path, capsys):
    sim = tmp_path / "noisy.csv"
    main(["simulate", "--n", "4", "--m", "16", "--noise-sigma", "0.05",
          "--format", "csv", "--out", str(sim)])
    base = ["recover", str(sim), "--method", "bp", "--n", "4"]
    rc = main(base + ["--strict"])
    capsys.readouterr()
    assert rc == EXIT_NOT_CONVERGED

    rc = main(base)
    body = json.loads(capsys.readouterr().out)
    assert rc == EXIT_OK
    assert body["data"]["converged"] is False


def test_argparse_surface():
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "compint", "simulate", "--m", "4", "--n", "2",
         "--modes", "1=1"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    body = json.loads(proc.stdout)
    assert body["data"]["powers"][0] == 2.0


def test_recover_at_the_float_limit(tmp_path, capsys):
    # One power of 1.7e308.  BP's solution on four close delays lies past
    # the float range: one error line.  Harmonic inversion projects the
    # data onto the harmonics, so its answer stays finite.
    big = tmp_path / "big.csv"
    big.write_text("alpha,power\n0.1,1.7e308\n0.2,1\n0.3,1\n0.4,1\n")
    assert main(["recover", str(big), "--method", "bp", "--n", "4"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("config error: Basis Pursuit solution overflows "
                            "the float range\n")
    even = tmp_path / "even.csv"
    main(["simulate", "--n", "4", "--m", "8", "--format", "csv",
          "--out", str(even)])
    lines = even.read_text().splitlines()
    lines[3] = lines[3].split(",")[0] + ",1.7e308"
    even.write_text("\n".join(lines) + "\n")
    body = run_json(["recover", str(even), "--method", "ft", "--n", "4"], capsys)
    assert np.isfinite(body["data"]["raw"]).all()
    assert math.isfinite(body["data"]["final_residual"])


def test_overflowing_weights_give_one_error_line():
    # the overflowing product must reach the finite check without a numpy
    # RuntimeWarning; a fresh process shows whatever reaches stderr
    proc = subprocess.run(
        [sys.executable, "-m", "compint", "simulate", "--modes",
         "1=1e308,2=1e308", "--n", "2", "--m", "4"],
        capture_output=True, text=True)
    assert proc.returncode == EXIT_CONFIG
    assert proc.stdout == ""
    assert proc.stderr == "config error: values must be finite\n"


def test_overflowing_baseline_gives_one_error_line(tmp_path, capsys):
    # power - baseline past the float range reaches the finite check
    # without a numpy RuntimeWarning
    path = tmp_path / "in.csv"
    write_interferogram(path, ["0,-1.7e308", "3,1.0"])
    assert main(["recover", str(path), "--baseline", "1e307"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: values must be finite\n"


def test_import_does_not_load_scipy():
    # numpy is the only runtime dependency; scipy would slow every cold start
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, compint, compint.cli; "
         "print(sorted(k for k in sys.modules "
         "if k == 'scipy' or k.startswith('scipy.')))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

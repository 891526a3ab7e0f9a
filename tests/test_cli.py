import copy
import dataclasses
import filecmp
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dephasim.cli import (
    _load_document, _parse_sweep_section, build_experiment, main, read_visibility_csv,
    write_visibility_csv,
)
from dephasim.errors import ConfigError, DataFormatError, DomainError
from dephasim.fit import FitResult
from dephasim.montecarlo import FringeDataset, VisibilityPoint


def write_config(path, doc):
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    return str(path)


def ramsey_doc(seed=19):
    return {
        "sequence": {"kind": "ramsey", "n": 0,
                     "delta": {"value": 8600.0, "angular": False}},
        "inhomogeneous": {"t2_star_s": 0.0014},
        "cycles_per_point": 200,
        "noise_draws": 20000,
        "time_grid_s": {"start_s": 5e-05, "stop_s": 0.003, "points": 120},
        "rng_seed": seed,
        "contrast": 0.9,
    }


def sweep_doc(seed=7, rows=None, sigma_sig=None):
    doc = {
        "sequence": {"kind": "cpmg", "n": 1, "tau_s": 1e-3,
                     "delta": {"value": 1500.0, "angular": False}},
        "cycles_per_point": 200,
        "noise_draws": 4000,
        "rng_seed": seed,
        "sweep": {"tau_points": 10, "span_t2_prime": [0.15, 1.1],
                  "points_per_fringe": 31},
    }
    if rows is not None:
        doc["sweep"]["rows"] = rows
    if sigma_sig is not None:
        doc["homogeneous"] = {"sigma_sig": {"value": sigma_sig, "angular": True}}
    return doc


@pytest.fixture(scope="module")
def ramsey_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("ramsey_run")
    config = write_config(root / "cfg.json", ramsey_doc())
    assert main(["simulate", "--config", config, "--output", str(root / "run")]) == 0
    return root


def test_simulate_outputs_and_manifest(ramsey_run):
    csv_text = (ramsey_run / "run.csv").read_text(encoding="utf-8")
    assert csv_text.startswith("time_s,fraction,trials,successes\n")
    assert csv_text.count("\n") == 121
    doc = json.loads((ramsey_run / "run.json").read_text(encoding="utf-8"))
    assert len(doc["rows"]) == 120
    manifest = json.loads((ramsey_run / "run.manifest.json").read_text(encoding="utf-8"))
    assert manifest["rng_seed"] == 19
    assert manifest["command"] == "simulate"
    assert len(manifest["config_sha256"]) == 64
    raw = (ramsey_run / "cfg.json").read_bytes()
    assert manifest["config_sha256"] == hashlib.sha256(raw).hexdigest()


def test_simulate_reruns_are_byte_identical(ramsey_run, tmp_path):
    config = write_config(tmp_path / "cfg.json", ramsey_doc())
    assert main(["simulate", "--config", config, "--output", str(tmp_path / "again"),
                 "--workers", "3"]) == 0
    assert filecmp.cmp(ramsey_run / "run.csv", tmp_path / "again.csv", shallow=False)
    assert filecmp.cmp(ramsey_run / "run.json", tmp_path / "again.json", shallow=False)


def test_simulate_then_fit_recovers_set_frequency(ramsey_run, tmp_path):
    out = tmp_path / "fit.json"
    rc = main(["fit", "--data", str(ramsey_run / "run.csv"), "--model", "ramsey",
               "--fit-t2-star", "--output", str(out), "--strict"])
    assert rc == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    fitted_hz = doc["params"]["delta_prime"]["value"] / (2 * math.pi)
    assert abs(fitted_hz - 8600.0) / 8600.0 < 0.01
    assert doc["params"]["delta_prime"]["unit"] == "rad/s"
    assert abs(doc["params"]["t2_star"]["value"] - 0.0014) / 0.0014 < 0.15


def test_fit_unknown_model_exits_2_and_lists_names(ramsey_run, capsys):
    rc = main(["fit", "--data", str(ramsey_run / "run.csv"), "--model", "sinusoid"])
    assert rc == 2
    err = capsys.readouterr().err
    for name in ("rabi", "t1", "ramsey", "echo_fringe", "cpmg_fringe", "visibility"):
        assert name in err


def test_fit_malformed_row_exits_2_with_row_number(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("time_s,fraction,trials,successes\n"
                   "0.001,0.5,100,50\n"
                   "0.002,0.9,100,120\n", encoding="utf-8")
    rc = main(["fit", "--data", str(bad), "--model", "ramsey"])
    assert rc == 2
    assert "row 2" in capsys.readouterr().err


@pytest.mark.parametrize("row", [
    "0.002,0.0,0,0",
    "nan,0.5,100,50",
    "inf,0.5,100,50",
    "0.002,nan,100,50",
])
def test_fit_empty_or_non_finite_row_exits_2(tmp_path, capsys, row):
    bad = tmp_path / "bad.csv"
    bad.write_text("time_s,fraction,trials,successes\n"
                   + "".join(f"{1e-3 * k},0.5,100,50\n" for k in range(1, 17))
                   + row + "\n", encoding="utf-8")
    assert main(["fit", "--data", str(bad), "--model", "ramsey"]) == 2
    err = capsys.readouterr().err
    assert "row 17" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("row", ["nan,0.5,0.01", "0.2,nan,0.01", "0.2,0.4,inf"])
def test_fit_visibility_non_finite_row_exits_2(tmp_path, capsys, row):
    bad = tmp_path / "vis.csv"
    bad.write_text("total_time_s,visibility,visibility_err\n"
                   f"0.1,0.5,0.01\n{row}\n0.3,0.3,0.01\n", encoding="utf-8")
    assert main(["fit", "--data", str(bad), "--model", "visibility", "--n", "1"]) == 2
    err = capsys.readouterr().err
    assert "row 2" in err
    assert "Traceback" not in err


def test_fit_visibility_error_whose_weight_overflows_exits_2(tmp_path, capsys):
    # 1/(1e-200)**2 is inf: the row is named instead of fitted with an infinite weight.
    bad = tmp_path / "vis.csv"
    bad.write_text("total_time_s,visibility,visibility_err\n0.1,0.6,0.01\n0.2,0.5,1e-200\n"
                   "0.3,0.4,0.01\n0.4,0.3,0.01\n", encoding="utf-8")
    assert main(["fit", "--data", str(bad), "--model", "visibility", "--n", "2"]) == 2
    err = capsys.readouterr().err
    assert "row 2" in err
    assert "Traceback" not in err


def test_fit_missing_sequence_options_exit_2(ramsey_run, capsys):
    data = str(ramsey_run / "run.csv")
    assert main(["fit", "--data", data, "--model", "echo_fringe"]) == 2
    assert "tau" in capsys.readouterr().err
    assert main(["fit", "--data", data, "--model", "cpmg_fringe", "--tau-s", "0.001"]) == 2
    assert "--n" in capsys.readouterr().err


def test_strict_flag_turns_nonconvergence_into_exit_4(ramsey_run, monkeypatch):
    import dephasim.cli as cli

    original = cli.FITTERS["ramsey"]

    def stalled(points, **kwargs):
        result = original(points, **kwargs)
        return FitResult(
            model=result.model, params=result.params, errors=result.errors,
            units=result.units, rss=result.rss, iterations=result.iterations,
            converged=False, n_points=result.n_points,
            gradient_norm=result.gradient_norm, cost_history=result.cost_history)

    monkeypatch.setitem(cli.FITTERS, "ramsey", stalled)
    data = str(ramsey_run / "run.csv")
    assert main(["fit", "--data", data, "--model", "ramsey"]) == 0
    assert main(["fit", "--data", data, "--model", "ramsey", "--strict"]) == 4


def test_unknown_config_key_exits_2_with_dotted_path(tmp_path, capsys):
    doc = ramsey_doc()
    doc["sequence"]["detuning"] = {"value": 1.0, "angular": False}
    config = write_config(tmp_path / "cfg.json", doc)
    rc = main(["simulate", "--config", config, "--output", str(tmp_path / "x")])
    assert rc == 2
    assert "sequence.detuning" in capsys.readouterr().err


def _every_level_doc(grid):
    doc = sweep_doc(rows={"6": {"sigma_sig": {"value": 55.7, "angular": True}}})
    doc["inhomogeneous"] = {"t2_star_s": 0.0014}
    doc["homogeneous"] = {"sigmas": [{"value": 27.6, "angular": True}]}
    doc["time_grid_s"] = grid
    return doc


HALF_SPAN = {"half_span_s": 1e-4, "points": 5}
START_STOP = {"start_s": 1.9e-3, "stop_s": 2.1e-3, "points": 5}


@pytest.mark.parametrize("grid, path, required", [
    (HALF_SPAN, "", "sequence"),
    (HALF_SPAN, "sequence", "kind"),
    (HALF_SPAN, "sequence.delta", "angular"),
    (HALF_SPAN, "inhomogeneous", None),
    (HALF_SPAN, "homogeneous", None),
    (HALF_SPAN, "time_grid_s", "points"),
    (START_STOP, "time_grid_s", "stop_s"),
    (HALF_SPAN, "sweep", None),
    (HALF_SPAN, "sweep.rows.6", "sigma_sig"),
], ids=["top", "sequence", "delta", "inhomogeneous", "homogeneous", "half-span-grid",
        "start-stop-grid", "sweep", "sweep-row"])
def test_every_config_level_names_unknown_and_missing_keys(tmp_path, capsys, monkeypatch,
                                                           grid, path, required):
    import dephasim.cli as cli
    monkeypatch.setattr(cli, "scan_visibility", None)  # must fail before any scan
    argv = ["sweep-n", "--config", str(tmp_path / "cfg.json"), "--n", "6",
            "--outdir", str(tmp_path)]
    prefix = f"{path}." if path else ""
    doc = _every_level_doc(dict(grid))
    build_experiment(doc), _parse_sweep_section(doc)  # the document itself is valid
    _entry(doc, path.split(".") if path else [])["bogus"] = 1
    write_config(tmp_path / "cfg.json", doc)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: {prefix}bogus: unknown key" in err
    assert "Traceback" not in err
    if required is not None:
        doc = _every_level_doc(dict(grid))
        del _entry(doc, path.split(".") if path else [])[required]
        write_config(tmp_path / "cfg.json", doc)
        assert main(argv) == 2
        assert f"error: {prefix}{required}: required key is missing" in capsys.readouterr().err


def test_bare_number_frequency_exits_2(tmp_path, capsys):
    doc = ramsey_doc()
    doc["sequence"]["delta"] = 8600.0
    config = write_config(tmp_path / "cfg.json", doc)
    rc = main(["simulate", "--config", config, "--output", str(tmp_path / "x")])
    assert rc == 2
    assert "angular" in capsys.readouterr().err


def test_readout_before_last_pulse_exits_3(tmp_path, capsys):
    doc = {
        "sequence": {"kind": "spin_echo", "n": 1, "tau_s": 0.005},
        "time_grid_s": [0.002],
        "cycles_per_point": 10,
    }
    config = write_config(tmp_path / "cfg.json", doc)
    rc = main(["simulate", "--config", config, "--output", str(tmp_path / "x")])
    assert rc == 3
    assert "(2n-1)*tau" in capsys.readouterr().err


def test_simulate_without_time_grid_exits_2(tmp_path):
    doc = ramsey_doc()
    del doc["time_grid_s"]
    config = write_config(tmp_path / "cfg.json", doc)
    assert main(["simulate", "--config", config, "--output", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("key, value", [
    ("time_grid_s.points", -1),
    ("time_grid_s.points", 0),
    ("cycles_per_point", 0),
    ("noise_draws", -5),
])
def test_simulate_non_positive_count_exits_2_naming_key(tmp_path, capsys, key, value):
    doc = ramsey_doc()
    section, _, name = key.rpartition(".")
    (doc[section] if section else doc)[name] = value
    config = write_config(tmp_path / "cfg.json", doc)
    assert main(["simulate", "--config", config, "--output", str(tmp_path / "x")]) == 2
    assert f"error: {key}: must be >= 1, got {value}" in capsys.readouterr().err


def _set(doc, dotted_key, value):
    *parents, name = dotted_key.split(".")
    for key in parents:
        doc = doc[key]
    doc[name] = value


@pytest.mark.parametrize("key, value, message", [
    ("time_grid_s", [0.001, math.nan], "time_grid_s[1]: expected a finite number"),
    ("sequence.delta.value", math.inf, "sequence.delta.value: expected a finite number"),
    ("sequence.delta.value", 1e308, "sequence.delta.value: 1e+308 Hz overflows"),
    ("rng_seed", -5, "rng_seed: must be >= 0, got -5"),
    ("time_grid_s", {"start_s": -1e308, "stop_s": 1e308, "points": 3}, "time_grid_s.stop_s: "),
    ("time_grid_s", {"half_span_s": 1e308, "points": 3}, "time_grid_s.half_span_s: "),
    ("contrast", "x", "contrast: expected a number"),
    ("contrast", 10**400, "contrast: expected a finite number"),
], ids=["nan-grid-time", "infinite-delta", "overflowing-hz", "negative-seed",
        "overflowing-span", "overflowing-half-span", "not-a-number", "huge-integer"])
def test_simulate_config_value_exits_2_naming_key(tmp_path, capsys, key, value, message):
    doc = ramsey_doc()
    _set(doc, key, value)
    config = write_config(tmp_path / "cfg.json", doc)  # NaN/Infinity literals, as json.load reads
    assert main(["simulate", "--config", config, "--output", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    assert "Traceback" not in err


def test_sweep_negative_seed_exits_2_naming_key(tmp_path, capsys, monkeypatch):
    import dephasim.cli as cli
    monkeypatch.setattr(cli, "scan_visibility", None)  # must fail before any scan
    config = write_config(tmp_path / "cfg.json", sweep_doc(seed=-5, sigma_sig=40.0))
    assert main(["sweep-n", "--config", config, "--n", "1", "--outdir", str(tmp_path)]) == 2
    assert "error: rng_seed: must be >= 0, got -5" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("tau_points", -2),
    ("points_per_fringe", 0),
    ("span_t2_prime", [0.0, 1.1]),
    ("span_t2_prime", [0.15, -1.0]),
    ("span_t2_prime", [0.15, math.inf]),
])
def test_sweep_non_positive_size_or_span_exits_2_naming_key(tmp_path, capsys, monkeypatch,
                                                          key, value):
    import dephasim.cli as cli
    monkeypatch.setattr(cli, "scan_visibility", None)  # must fail before any scan
    doc = sweep_doc(sigma_sig=40.0)
    doc["sweep"][key] = value
    config = write_config(tmp_path / "cfg.json", doc)
    rc = main(["sweep-n", "--config", config, "--n", "1", "--outdir", str(tmp_path)])
    assert rc == 2
    assert f"error: sweep.{key}: " in capsys.readouterr().err


def test_usage_errors_exit_2():
    assert main([]) == 2
    assert main(["fit"]) == 2
    assert main(["sweep-n", "--config", "x.json", "--n", "a,b",
                 "--outdir", "."]) == 2


def test_sweep_empty_n_list_exits_2(tmp_path, capsys):
    config = write_config(tmp_path / "cfg.json", sweep_doc(sigma_sig=40.0))
    rc = main(["sweep-n", "--config", config, "--n", ",", "--outdir", str(tmp_path)])
    assert rc == 2
    assert "non-empty" in capsys.readouterr().err


def test_sigmas_with_an_overflowing_quadrature_sum_exit_3(tmp_path, capsys, monkeypatch):
    import dephasim.cli as cli
    monkeypatch.setattr(cli, "scan_visibility", None)  # must fail before any scan
    doc = sweep_doc()
    doc["homogeneous"] = {"sigmas": [{"value": 1e200, "angular": True}]}
    config = write_config(tmp_path / "cfg.json", doc)
    assert main(["sweep-n", "--config", config, "--n", "1", "--outdir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "error: sigmas [1e+200]: the quadrature sum is not finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["fit", "--data", "{tmp}/missing.csv", "--model", "ramsey"],
    ["fit", "--data", "{tmp}/missing.csv", "--model", "visibility", "--n", "1"],
    ["fit", "--data", "{run}/run.csv", "--model", "ramsey", "--output", "{tmp}/nodir/fit.json"],
    ["simulate", "--config", "{run}/cfg.json", "--output", "{tmp}/nodir/run"],
])
def test_unusable_data_or_output_path_exits_2_naming_it(ramsey_run, tmp_path, capsys, command):
    argv = [arg.format(tmp=tmp_path, run=ramsey_run) for arg in command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(tmp_path) in err
    assert "Traceback" not in err


def test_an_output_onto_the_config_exits_2_and_the_manifest_hashes_the_config(
        tmp_path, capsys, monkeypatch):
    doc = ramsey_doc()
    doc["time_grid_s"]["points"] = 5
    config = write_config(tmp_path / "run.json", doc)
    raw = (tmp_path / "run.json").read_bytes()
    assert main(["simulate", "--config", config, "--output", str(tmp_path / "run")]) == 2
    assert str(tmp_path / "run.json") in capsys.readouterr().err
    assert (tmp_path / "run.json").read_bytes() == raw
    assert not (tmp_path / "run.csv").exists()

    monkeypatch.setattr("dephasim.cli.scan_visibility", None)  # never reached
    sweep = write_config(tmp_path / "summary.json", sweep_doc(sigma_sig=40.0))
    sweep_raw = (tmp_path / "summary.json").read_bytes()
    assert main(["sweep-n", "--config", sweep, "--n", "1", "--outdir", str(tmp_path)]) == 2
    assert "summary.json" in capsys.readouterr().err
    assert (tmp_path / "summary.json").read_bytes() == sweep_raw

    assert main(["simulate", "--config", config, "--output", str(tmp_path / "other")]) == 0
    manifest = json.loads((tmp_path / "other.manifest.json").read_text(encoding="utf-8"))
    assert manifest["config_sha256"] == hashlib.sha256(raw).hexdigest()


DATASET_HEADER = b"time_s,fraction,trials,successes\n"
VISIBILITY_HEADER = b"total_time_s,visibility,visibility_err\n"
SIMULATE = ["simulate", "--config", "{path}", "--output", "{tmp}/x"]
FIT_DATASET = ["fit", "--data", "{path}", "--model", "ramsey"]
FIT_VISIBILITY = ["fit", "--data", "{path}", "--model", "visibility", "--n", "1"]


@pytest.mark.parametrize("command, content", [
    (SIMULATE, b'{"sequence": {"kind": "ramsey\xff"}}'),
    (SIMULATE, b"[" * 100_000),
    (FIT_DATASET, DATASET_HEADER + b"0.001,0.5,100,50\n0.002,0.5,100,5\xe9\n"),
    (FIT_DATASET, DATASET_HEADER + b"0.001,0.5,100," + b"5" * 131_073 + b"\n"),
    (FIT_VISIBILITY, VISIBILITY_HEADER + b"0.1,0.5,0.01\n\x80\n"),
    (FIT_VISIBILITY, VISIBILITY_HEADER + b"0.1,0.5," + b"1" * 131_073 + b"\n"),
], ids=["config-not-utf8", "config-nested-1e5-deep", "dataset-not-utf8",
        "dataset-long-field", "visibility-not-utf8", "visibility-long-field"])
def test_malformed_input_file_exits_2_naming_it(tmp_path, capsys, command, content):
    path = tmp_path / "input"
    path.write_bytes(content)
    assert main([arg.format(path=path, tmp=tmp_path) for arg in command]) == 2
    err = capsys.readouterr().err
    assert str(path) in err
    assert "Traceback" not in err


def test_sweep_missing_outdir_exits_2_before_scanning(tmp_path, capsys, monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("the scan ran before --outdir was checked")

    monkeypatch.setattr("dephasim.cli.scan_visibility", no_scan)
    config = write_config(tmp_path / "cfg.json", sweep_doc(sigma_sig=40.0))
    missing = tmp_path / "missing"
    assert main(["sweep-n", "--config", config, "--n", "1", "--outdir", str(missing)]) == 2
    assert str(missing) in capsys.readouterr().err


@pytest.fixture(scope="module")
def table_sweep(tmp_path_factory):
    root = tmp_path_factory.mktemp("table_sweep")
    rows = {"1": {"sigma_sig": {"value": 27.6, "angular": True}, "contrast": 0.687},
            "6": {"sigma_sig": {"value": 55.7, "angular": True}, "contrast": 0.602}}
    config = write_config(root / "cfg.json", sweep_doc(seed=7, rows=rows))
    rc = main(["sweep-n", "--config", config, "--n", "1,6",
               "--outdir", str(root), "--workers", "2"])
    assert rc == 0
    return root


def test_sweep_sixfold_coherence_gain_is_about_three(table_sweep):
    rows = json.loads((table_sweep / "summary.json").read_text(encoding="utf-8"))["rows"]
    by_n = {row["n"]: row for row in rows}
    ratio = by_n[6]["t2_prime_s"] / by_n[1]["t2_prime_s"]
    assert 2.7 < ratio < 3.3
    assert abs(by_n[1]["sigma_sig"] - 27.6) / 27.6 < 0.10
    assert abs(by_n[6]["sigma_sig"] - 55.7) / 55.7 < 0.10
    assert abs(by_n[1]["c0"] - 0.687) < 0.05
    assert abs(by_n[6]["c0"] - 0.602) < 0.05


def test_sweep_visibility_tables_parse_and_decay(table_sweep):
    for n in (1, 6):
        data = read_visibility_csv(table_sweep / f"visibility_n{n}.csv")
        assert data.x.size == 10
        times = list(data.x)
        assert times == sorted(times)
        values = data.y
        assert values[0] > values[-1]   # visibility decays over the scan


def test_sweep_summary_printed_with_table_columns(table_sweep, tmp_path, capsys):
    rows = {"1": {"sigma_sig": {"value": 27.6, "angular": True}, "contrast": 0.687}}
    config = write_config(tmp_path / "cfg.json", sweep_doc(seed=13, rows=rows))
    rc = main(["sweep-n", "--config", config, "--n", "1", "--outdir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "C_0 (%)" in out
    assert "sigma_sig (1/s)" in out
    assert "T2_prime (ms)" in out


def test_sweep_coherence_time_scales_linearly_in_n(tmp_path):
    sigma = 40.0
    config = write_config(tmp_path / "cfg.json", sweep_doc(seed=11, sigma_sig=sigma))
    rc = main(["sweep-n", "--config", config, "--n", "1,2,3",
               "--outdir", str(tmp_path), "--workers", "2"])
    assert rc == 0
    rows = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))["rows"]
    ns = np.array([row["n"] for row in rows], dtype=float)
    t2p = np.array([row["t2_prime_s"] for row in rows])
    slope = float(np.sum(ns * t2p) / np.sum(ns * ns))   # least squares through origin
    assert abs(slope - 2.0 * math.sqrt(2.0) / sigma) / (2.0 * math.sqrt(2.0) / sigma) < 0.10
    residual = t2p - slope * ns
    assert np.max(np.abs(residual)) / np.max(t2p) < 0.05


def test_sweep_reruns_are_byte_identical(table_sweep, tmp_path):
    rows = {"1": {"sigma_sig": {"value": 27.6, "angular": True}, "contrast": 0.687},
            "6": {"sigma_sig": {"value": 55.7, "angular": True}, "contrast": 0.602}}
    config = write_config(tmp_path / "cfg.json", sweep_doc(seed=7, rows=rows))
    rc = main(["sweep-n", "--config", config, "--n", "1,6",
               "--outdir", str(tmp_path), "--workers", "4"])
    assert rc == 0
    for name in ("visibility_n1.csv", "visibility_n6.csv", "summary.json"):
        assert filecmp.cmp(table_sweep / name, tmp_path / name, shallow=False)


def test_inverted_readout_sweep_gives_the_same_visibilities(table_sweep, tmp_path):
    # (1 + c*w)/2 = 1 - (1 - c*w)/2: the flipped readout is the same fringe, counted
    # from the other state, so the scan fits identical visibilities at the same seed.
    rows = {"1": {"sigma_sig": {"value": 27.6, "angular": True}, "contrast": 0.687},
            "6": {"sigma_sig": {"value": 55.7, "angular": True}, "contrast": 0.602}}
    doc = sweep_doc(seed=7, rows=rows)
    doc["invert_fraction"] = True
    config = write_config(tmp_path / "cfg.json", doc)
    assert main(["sweep-n", "--config", config, "--n", "1,6", "--outdir", str(tmp_path)]) == 0
    for name in ("visibility_n1.csv", "visibility_n6.csv", "summary.json"):
        assert filecmp.cmp(table_sweep / name, tmp_path / name, shallow=False)


def test_visibility_csv_rejects_bad_header_and_rows(tmp_path):
    path = tmp_path / "vis.csv"
    path.write_text("time,vis,err\n0.1,0.5,0.01\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="header"):
        read_visibility_csv(path)
    path.write_text("total_time_s,visibility,visibility_err\n"
                    "0.1,0.5,0.01\n0.2,0.4,0.0\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="row 2"):
        read_visibility_csv(path)


def test_build_experiment_rejects_conflicting_noise_forms():
    doc = ramsey_doc()
    doc["inhomogeneous"] = {"t2_star_s": 0.0014, "eta_s": 0.0014}
    with pytest.raises(ConfigError, match="exactly one"):
        build_experiment(doc)
    doc = sweep_doc(sigma_sig=40.0)
    doc["homogeneous"]["sigmas"] = [{"value": 40.0, "angular": True}]
    with pytest.raises(ConfigError, match="exactly one"):
        build_experiment(doc)


def test_build_experiment_converts_plain_hertz_once():
    doc = ramsey_doc()
    config = build_experiment(doc)
    assert config.sequence.delta == pytest.approx(2 * math.pi * 8600.0, rel=1e-12)
    doc["sequence"]["delta"] = {"value": 54035.0, "angular": True}
    config = build_experiment(doc)
    assert config.sequence.delta == 54035.0


def test_version_flag_exits_cleanly(capsys):
    assert main(["--version"]) == 0
    assert "dephasim" in capsys.readouterr().out


# ------------------------------------------------------------------ config property


def _valid_documents():
    echo = sweep_doc(rows={"6": {"sigma_sig": {"value": 55.7, "angular": True},
                                 "contrast": 0.602}})
    echo["sequence"] = {"kind": "spin_echo", "n": 1, "tau_s": 2e-3,
                        "delta": {"value": 1500.0, "angular": False}}
    echo["homogeneous"] = {"sigmas": [{"value": 27.6, "angular": True}]}
    echo["time_grid_s"] = {"half_span_s": 1e-3, "points": 21}
    echo["zeeman_shift"] = {"value": 12.0, "angular": False}
    echo["invert_fraction"] = True
    echo["metadata"] = {"trap_depth_mK": 1.0}
    cpmg = sweep_doc(sigma_sig=55.7)
    cpmg["sequence"]["n"] = 6
    cpmg["inhomogeneous"] = {"delta0": {"value": 200.0, "angular": False}, "eta_s": 1.4e-3}
    cpmg["time_grid_s"] = [0.0115, 0.012, 0.0125]
    return [ramsey_doc(), echo, cpmg]


VALID_DOCUMENTS = _valid_documents()

# Any JSON value json.load can return (NaN and +-Infinity included); integers
# stay small so that no grid or draw count is large.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10_000, 10_000) | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=8,
)
# The numbers that break a parser most often, drawn in place of a number half the time.
EDGE_NUMBERS = st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, -5])


def _locations(node, prefix=()):
    """Every (container path, key) of a document, list entries included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix, key
        if isinstance(value, (dict, list)):
            yield from _locations(value, prefix + (key,))


@st.composite
def mutated_documents(draw):
    """A valid document with one to three entries set to other JSON values.

    Half the time a number entry is set to an edge number; otherwise any
    entry, or a new unknown key beside it, is set to any JSON value.
    """
    doc = copy.deepcopy(draw(st.sampled_from(VALID_DOCUMENTS)))
    for _ in range(draw(st.sampled_from([1, 1, 2, 3]))):
        locations = list(_locations(doc))
        numbers = [(path, key) for path, key in locations
                   if type(_entry(doc, path)[key]) in (int, float)]
        edge = bool(numbers) and draw(st.booleans())
        path, key = draw(st.sampled_from(numbers if edge else locations))
        parent = _entry(doc, path)
        if not edge and isinstance(parent, dict) and draw(st.booleans()):
            key = draw(st.text(max_size=6))  # an unknown key (or, rarely, a known one)
        parent[key] = draw(EDGE_NUMBERS if edge else JSON_VALUES)
    return doc


def _entry(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def _numbers(value):
    """Every number held by a parsed config; metadata is passed through uninterpreted."""
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            if f.name != "metadata":
                yield from _numbers(getattr(value, f.name))
    elif isinstance(value, dict):
        for item in value.values():
            yield from _numbers(item)
    elif isinstance(value, (list, tuple, np.ndarray)):
        for item in value:
            yield from _numbers(item)
    elif isinstance(value, (int, float, np.number)) and not isinstance(value, bool):
        yield float(value)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(mutated_documents())
def test_any_config_value_is_rejected_by_name_or_parsed_finite(doc):
    # Under filterwarnings = error, a failure here is reported as INTERNALERROR
    # (Hypothesis's patch writer imports a deprecated module); rerun with
    # -W ignore::DeprecationWarning to see the falsifying document.
    for parse in (build_experiment, _parse_sweep_section):
        try:
            parsed = parse(doc)
        except ConfigError as exc:
            assert not exc.path.startswith(".")
            continue
        except DomainError:
            continue
        assert all(math.isfinite(x) for x in _numbers(parsed))
        if parse is build_experiment:
            assert parsed.rng_seed >= 0


@pytest.fixture(scope="module")
def input_file(tmp_path_factory):
    return tmp_path_factory.mktemp("arbitrary_bytes") / "input"


READERS = [
    (FringeDataset.read_csv, DATASET_HEADER),
    (read_visibility_csv, VISIBILITY_HEADER),
    (_load_document, b'{"rng_seed": 7,\n'),
]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(READERS), st.booleans(), st.binary(max_size=200))
def test_any_input_bytes_are_read_or_rejected_as_malformed(input_file, reader, prefixed, body):
    read, header = reader
    input_file.write_bytes(header + body if prefixed else body)
    try:
        read(input_file)
    except (DataFormatError, ConfigError):
        pass


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def count_rows(draw):
    trials = draw(st.integers(1, 10**12))
    return draw(FINITE), draw(st.integers(0, trials)), trials


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.lists(count_rows(), min_size=1, max_size=20))
def test_dataset_csv_round_trip_is_bit_exact(input_file, rows):
    times, successes, trials = (np.array(column) for column in zip(*rows))
    FringeDataset(times, successes, trials).write_csv(input_file)
    back = FringeDataset.read_csv(input_file)
    assert back.times.tobytes() == times.astype(float).tobytes()
    assert np.array_equal(back.successes, successes)
    assert np.array_equal(back.trials, trials)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.lists(st.tuples(FINITE, FINITE, st.floats(1e-150, 1e150)), min_size=1, max_size=20))
def test_visibility_csv_round_trip_is_bit_exact(input_file, rows):
    write_visibility_csv(input_file, [VisibilityPoint(t, v, e, ok=True) for t, v, e in rows])
    data = read_visibility_csv(input_file)
    times, values, errs = (np.array(column) for column in zip(*rows))
    assert data.x.tobytes() == times.tobytes()
    assert data.y.tobytes() == values.tobytes()
    assert data.weight.tobytes() == (1 / errs**2).tobytes()

import contextlib
import copy
import csv
import dataclasses
import filecmp
import hashlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dephasim.cli import (
    _load_document, _parse_sweep_section, build_experiment, main, read_visibility_csv,
    write_visibility_csv,
)
from dephasim.bloch import SEQUENCE_KINDS
from dephasim.errors import ConfigError, DataFormatError, DomainError
from dephasim.fit import FitResult, weighted_points
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


def test_fit_data_without_a_starting_guess_exits_2(tmp_path, capsys):
    # no positive total time to scale the decay, and times 5e-324 s apart,
    # whose frequency grid would reach beyond the largest float
    vis = tmp_path / "vis.csv"
    vis.write_text("total_time_s,visibility,visibility_err\n0.0,0.6,0.01\n0.0,0.5,0.01\n",
                   encoding="utf-8")
    assert main(["fit", "--data", str(vis), "--model", "visibility", "--n", "2"]) == 2
    assert "positive total time" in capsys.readouterr().err
    fine = tmp_path / "fine.csv"
    fine.write_text("time_s,fraction,trials,successes\n0.0,0.5,100,50\n5e-324,0.25,100,25\n"
                    "0.001,0.75,100,75\n", encoding="utf-8")
    assert main(["fit", "--data", str(fine), "--model", "ramsey"]) == 2
    err = capsys.readouterr().err
    assert "too fine" in err
    assert "Traceback" not in err


def test_fit_missing_sequence_options_exit_2(ramsey_run, capsys):
    data = str(ramsey_run / "run.csv")
    assert main(["fit", "--data", data, "--model", "echo_fringe"]) == 2
    assert "tau" in capsys.readouterr().err
    assert main(["fit", "--data", data, "--model", "cpmg_fringe", "--tau-s", "0.001"]) == 2
    assert "--n" in capsys.readouterr().err


@pytest.mark.parametrize("model, flags, named", [
    ("echo_fringe", ["--tau-s", "1e-3", "--n", "3"], "n: echo_fringe fits take no --n"),
    ("ramsey", ["--tau-s", "1e-3"], "tau_s: ramsey fits take no --tau-s"),
    ("rabi", ["--n", "2"], "n: rabi fits take no --n"),
    ("rabi", ["--tau-s", "1e-3"], "tau_s: rabi fits take no --tau-s"),
    ("rabi", ["--t2-star-s", "0.002"], "t2_star_s: rabi fits take no --t2-star-s"),
    ("t1", ["--fit-t2-star"], "fit_t2_star: t1 fits take no --fit-t2-star"),
    ("ramsey", ["--t2-star-s", "0.002", "--fit-t2-star"],
     "argument --fit-t2-star: not allowed with argument --t2-star-s"),
], ids=["fixed-n", "ramsey-tau", "rabi-n", "rabi-tau", "rabi-t2-star", "t1-fit-t2-star",
        "both-t2-star-flags"])
def test_fit_flag_the_model_does_not_take_exits_2_naming_it(ramsey_run, tmp_path, capsys,
                                                            model, flags, named):
    # A flag the fitter lacks, or fixes (echo_fringe has n = 1), would be dropped
    # silently, and --fit-t2-star would win over --t2-star-s: each is refused.
    out = tmp_path / "fit.json"
    argv = ["fit", "--data", str(ramsey_run / "run.csv"), "--model", model, *flags,
            "--output", str(out)]
    assert main(argv) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_fit_held_t2_star_that_is_not_positive_exits_3(ramsey_run, capsys):
    argv = ["fit", "--data", str(ramsey_run / "run.csv"), "--model", "ramsey",
            "--t2-star-s", "-1"]
    assert main(argv) == 3
    assert "error: t2_star must be positive, got -1.0" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--model", "cpmg_fringe", "--n", "-1", "--tau-s", "1e-3"],
     "pulse count n must be >= 0, got -1"),
    (["--model", "echo_fringe", "--tau-s", "0"], "tau must be positive for n >= 1, got 0.0"),
    (["--model", "echo_fringe", "--tau-s", "0.01"],
     "readout time violates t >= (2n-1)*tau = 0.01 "),
    (["--model", "echo_fringe", "--tau-s", "inf"], "readout time violates t >= (2n-1)*tau = inf "),
    (["--model", "echo_fringe", "--tau-s", "1e300"],
     "readout time violates t >= (2n-1)*tau = 1e+300 "),
], ids=["negative-n", "zero-tau", "readout-before-tau", "infinite-tau", "huge-tau"])
def test_fit_geometry_the_timing_rule_refuses_exits_2_with_its_message(
        ramsey_run, tmp_path, capsys, flags, message):
    # The Ramsey record is read out from 5e-5 s on: no pulse geometry above fits it.
    out = tmp_path / "fit.json"
    assert main(["fit", "--data", str(ramsey_run / "run.csv"), *flags, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not out.exists()


def stalled(fitter):
    """``fitter`` with every result reported as not converged."""
    def fit(points, **kwargs):
        result = fitter(points, **kwargs)
        return FitResult(
            model=result.model, params=result.params, errors=result.errors,
            units=result.units, rss=result.rss, iterations=result.iterations,
            converged=False, n_points=result.n_points,
            gradient_norm=result.gradient_norm, cost_history=result.cost_history)
    return fit


def test_strict_flag_turns_nonconvergence_into_exit_4(ramsey_run, monkeypatch):
    import dephasim.cli as cli

    monkeypatch.setitem(cli.FITTERS, "ramsey", stalled(cli.FITTERS["ramsey"]))
    data = str(ramsey_run / "run.csv")
    assert main(["fit", "--data", data, "--model", "ramsey"]) == 0
    assert main(["fit", "--data", data, "--model", "ramsey", "--strict"]) == 4


def test_main_calls_share_no_state(ramsey_run, monkeypatch, capsys):
    # The parser is built once per process; nothing one call parsed reaches the next.
    import dephasim.cli as cli

    monkeypatch.setitem(cli.FITTERS, "ramsey", stalled(cli.FITTERS["ramsey"]))
    data = str(ramsey_run / "run.csv")
    assert main(["fit", "--data", data, "--model", "ramsey", "--strict"]) == 4
    assert main(["fit", "--data", data, "--model", "ramsey"]) == 0
    assert main(["fit", "--data", data, "--strict"]) == 2    # usage: --model is missing
    assert "--model" in capsys.readouterr().err
    assert main(["fit", "--data", data, "--model", "ramsey"]) == 0
    assert cli._build_parser() is cli._build_parser()


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


@pytest.mark.parametrize("command, key, value, message", [
    ("simulate", "cycles_per_point", 2**70, "cycles_per_point: must be <= 2**63 - 1, got "),
    ("sweep-n", "cycles_per_point", 2**70, "cycles_per_point: must be <= 2**63 - 1, got "),
    # 10**15 values are petabytes: numpy refuses each array before allocating any of it.
    ("simulate", "noise_draws", 10**15, "out of memory: "),
    ("simulate", "time_grid_s.points", 10**15, "out of memory: "),
    ("sweep-n", "noise_draws", 10**15, "out of memory: "),
    ("sweep-n", "sweep.points_per_fringe", 10**15, "out of memory: "),
    ("sweep-n", "sweep.tau_points", 10**15, "out of memory: "),
])
def test_oversized_count_exits_2_with_one_error_line(tmp_path, capsys, command, key, value,
                                                      message):
    if command == "simulate":
        doc, args = ramsey_doc(), ["--output", str(tmp_path / "out" / "run")]
    else:
        doc, args = sweep_doc(sigma_sig=27.6), ["--n", "1", "--outdir", str(tmp_path / "out")]
        doc["inhomogeneous"] = {"t2_star_s": 0.0014}
    _set(doc, key, value)
    config = write_config(tmp_path / "cfg.json", doc)
    (tmp_path / "out").mkdir()
    assert main([command, "--config", config, *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert "Traceback" not in err
    assert list((tmp_path / "out").iterdir()) == []


# 2**62 of each is an array of more than 2**63 - 1 bytes, which numpy refuses
# before allocating any of it ("array is too big").
@pytest.mark.parametrize("command, key", [
    ("simulate", "noise_draws"),
    ("simulate", "time_grid_s.points"),
    ("sweep-n", "noise_draws"),
    ("sweep-n", "sweep.points_per_fringe"),
    ("sweep-n", "sweep.tau_points"),
])
def test_count_whose_array_numpy_refuses_exits_2_naming_the_key(tmp_path, capsys, command, key):
    if command == "simulate":
        doc, args = ramsey_doc(), ["--output", str(tmp_path / "out" / "run")]
    else:
        doc, args = sweep_doc(sigma_sig=27.6), ["--n", "1", "--outdir", str(tmp_path / "out")]
        doc["inhomogeneous"] = {"t2_star_s": 0.0014}
    _set(doc, key, 2**62)
    config = write_config(tmp_path / "cfg.json", doc)
    (tmp_path / "out").mkdir()
    assert main([command, "--config", config, *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: must be <= ") and err.count("\n") == 1
    assert err.rstrip().endswith(f"got {2**62}")
    assert list((tmp_path / "out").iterdir()) == []


def test_largest_count_numpy_allows_is_read():
    # noise_draws sizes 3 float32 uniforms per draw, 12 bytes; the config
    # stage allocates none of them
    largest = (2**63 - 1) // 12
    doc = ramsey_doc()
    doc["noise_draws"] = largest
    assert build_experiment(doc).noise_draws == largest
    doc["noise_draws"] = largest + 1
    with pytest.raises(ConfigError, match=f"noise_draws: must be <= {largest} "):
        build_experiment(doc)


def test_scan_grid_numpy_refuses_is_named():
    # each count alone sizes a small array; together they size one scan's grid
    sweep = {"tau_points": 2**32, "points_per_fringe": 2**32}
    with pytest.raises(ConfigError, match="sweep.points_per_fringe: with tau_points 4294967296"):
        _parse_sweep_section({"sweep": sweep})


def test_simulate_at_a_vanishing_t2_star_exits_0_without_warnings(tmp_path, capsys):
    # At T2* = 1e-300 s, x/eta reaches 2e297: L*x/eta overflows float32, so the
    # kernel takes theta in float64.  Any warning is an error here.
    doc = ramsey_doc()
    doc["inhomogeneous"] = {"t2_star_s": 1e-300}
    config = write_config(tmp_path / "cfg.json", doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", config, "--output", str(tmp_path / "run")]) == 0
    assert capsys.readouterr().err == ""
    fractions = FringeDataset.read_csv(tmp_path / "run.csv").fractions
    assert fractions.size == 120 and np.all((fractions >= 0) & (fractions <= 1))


@pytest.mark.parametrize("key, value, message", [
    ("time_grid_s", [0.001, math.nan], "time_grid_s[1]: expected a finite number"),
    ("sequence.delta.value", math.inf, "sequence.delta.value: expected a finite number"),
    ("sequence.delta.value", 1e308, "sequence.delta.value: 1e+308 Hz overflows"),
    ("rng_seed", -5, "rng_seed: must be >= 0, got -5"),
    ("time_grid_s", {"start_s": -1e308, "stop_s": 1e308, "points": 3}, "time_grid_s.stop_s: "),
    ("time_grid_s", {"half_span_s": 1e308, "points": 3}, "time_grid_s.half_span_s: "),
    ("contrast", "x", "contrast: expected a number"),
    ("contrast", 10**400, "contrast: expected a finite number"),
    ("contrast", 1.5, "contrast: contrast must lie in [0, 1], got 1.5"),
    ("contrast", -0.25, "contrast: contrast must lie in [0, 1], got -0.25"),
    ("homogeneous", {"sigmas": [{"value": -5.0, "angular": True}]},
     "homogeneous.sigmas[0]: sigmas[0] must be >= 0, got -5.0 rad/s"),
    ("inhomogeneous", {"eta_s": -1.0}, "inhomogeneous.eta_s: eta must be positive, got -1.0"),
    ("inhomogeneous", {"t2_star_s": 0.0},
     "inhomogeneous.t2_star_s: T2* must be positive, got 0.0"),
    ("sequence", {"kind": "cpmg", "n": 2, "tau_s": 0.0},
     "sequence: tau must be positive for n >= 1, got 0.0"),
    ("sequence", {"kind": "cpmg", "n": -1, "tau_s": 1e-3},
     "sequence: pulse count n must be >= 0, got -1"),
    ("sequence", {"kind": "ramsey", "n": 2, "tau_s": 1e-3},
     "sequence: ramsey sequence requires n = 0, got n = 2"),
    ("sequence", {"kind": "spin_echo", "n": 2, "tau_s": 1e-3},
     "sequence: spin_echo sequence requires n = 1, got n = 2"),
    ("sequence.kind", "hahn", "sequence.kind: expected one of"),
    ("homogeneous", {"sigmas": []}, "homogeneous.sigmas: expected a non-empty list"),
    ("time_grid_s", "0.001", "time_grid_s: expected a list of seconds or a grid object"),
], ids=["nan-grid-time", "infinite-delta", "overflowing-hz", "negative-seed",
        "overflowing-span", "overflowing-half-span", "not-a-number", "huge-integer",
        "contrast-above-one", "negative-contrast", "negative-sigmas-entry", "negative-eta",
        "zero-t2-star", "zero-tau", "negative-n", "ramsey-n", "spin-echo-n", "unknown-kind",
        "no-sigmas", "grid-not-a-list"])
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


def test_sigmas_with_an_overflowing_quadrature_sum_exit_2_naming_the_key(tmp_path, capsys,
                                                                         monkeypatch):
    import dephasim.cli as cli
    monkeypatch.setattr(cli, "scan_visibility", None)  # must fail before any scan
    doc = sweep_doc()
    doc["homogeneous"] = {"sigmas": [{"value": 1e200, "angular": True}]}
    config = write_config(tmp_path / "cfg.json", doc)
    assert main(["sweep-n", "--config", config, "--n", "1", "--outdir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: homogeneous.sigmas: sigmas [1e+200]: the quadrature sum is not finite\n"


def _cpmg_with_one_sigma(doc):
    doc["sequence"] = {"kind": "cpmg", "n": 2, "tau_s": 1e-3}
    doc["homogeneous"] = {"sigmas": [{"value": 1.0, "angular": True}]}
    doc["time_grid_s"] = [0.004, 0.005]


def _decreasing_grid(doc):
    doc["time_grid_s"] = [0.002, 0.001]


def _zero_carrier(doc):
    doc["sequence"]["delta"] = {"value": 0.0, "angular": False}


@pytest.mark.parametrize("command, make_doc, line", [
    ("simulate", _cpmg_with_one_sigma, "homogeneous.sigmas: homogeneous noise describes 1 "
                                       "intervals but the sequence has n = 2"),
    ("simulate", _decreasing_grid, "time_grid_s: time grid must be strictly increasing"),
    ("sweep-n", _zero_carrier, "sequence.delta: visibility scan needs a nonzero effective "
                               "carrier detuning to produce fringes"),
], ids=["sigmas-length", "decreasing-grid", "zero-carrier"])
def test_a_value_its_type_refuses_exits_2_naming_its_key(tmp_path, capsys, monkeypatch,
                                                        command, make_doc, line):
    monkeypatch.setattr("dephasim.cli.scan_visibility", None)  # must fail before any scan
    doc = ramsey_doc() if command == "simulate" else sweep_doc(sigma_sig=40.0)
    make_doc(doc)
    config = write_config(tmp_path / "cfg.json", doc)
    flags = (["--output", str(tmp_path / "run")] if command == "simulate"
             else ["--n", "1", "--outdir", str(tmp_path)])
    assert main([command, "--config", config, *flags]) == 2
    assert capsys.readouterr().err == f"error: {line}\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["cfg.json"]


#: One example per row of the README exit-code table, in its order: (argv, a change to
#: the Ramsey config written to {tmp}/cfg.json, exit code, start of stderr).
EXIT_CODE_EXAMPLES = [
    (["simulate", "--config", "{tmp}/cfg.json", "--output", "{tmp}/run"], {}, 0, ""),
    (["simulate", "--config", "{tmp}/cfg.json"], {}, 2, "usage: "),
    (["simulate", "--config", "{tmp}/cfg.json", "--output", "{tmp}/run"], {"contrast": "x"}, 2,
     "error: contrast: expected a number, got 'x'\n"),
    (["simulate", "--config", "{tmp}/cfg.json", "--output", "{tmp}/run"],
     {"time_grid_s": [0.002, 0.001]}, 2,
     "error: time_grid_s: time grid must be strictly increasing\n"),
    (["simulate", "--config", "{tmp}/cfg.json", "--output", "{tmp}/run"],
     {"noise_draws": 2**62}, 2, "error: noise_draws: must be <= 768614336404564650 "),
    (["simulate", "--config", "{tmp}/cfg.json", "--output", "{tmp}/run"],
     {"noise_draws": 10**15}, 2, "error: out of memory: "),
    (["fit", "--data", "{tmp}/bad.csv", "--model", "ramsey"], {}, 2, "error: row 2: "),
    (["simulate", "--config", "{tmp}/cfg.json", "--output", "{tmp}/cfg"], {}, 2,
     "error: {tmp}/cfg.json: this output path is the input file; nothing was written\n"),
    (["fit", "--data", "{run}/run.csv", "--model", "rabi", "--n", "2"], {}, 2,
     "error: n: rabi fits take no --n\n"),
    (["fit", "--data", "{tmp}/empty.csv", "--model", "ramsey"], {}, 2,
     "error: {tmp}/empty.csv: the table has no data rows to fit\n"),
    (["fit", "--data", "{run}/run.csv", "--model", "cpmg_fringe", "--n", "-1", "--tau-s", "1e-3"],
     {}, 2, "error: pulse count n must be >= 0, got -1\n"),
    (["sweep-n", "--config", "{tmp}/cfg.json", "--n", "0", "--outdir", "{tmp}"],
     {"sequence": {"kind": "cpmg", "n": 1, "tau_s": 1e-3},
      "homogeneous": {"sigma_sig": {"value": 27.6, "angular": True}}}, 2,
     "error: n: pulse numbers must be >= 1, got 0\n"),
    (["simulate", "--config", "{tmp}/cfg.json", "--output", "{tmp}/run"],
     {"sequence": {"kind": "spin_echo", "n": 1, "tau_s": 0.005}}, 3,
     "error: readout time violates t >= (2n-1)*tau = 0.005 "),
    (["fit", "--data", "{run}/run.csv", "--model", "ramsey", "--strict"], {}, 4,
     "fit did not converge (--strict)\n"),
]


def _exit_code_table():
    """The codes of the README exit-code table, one per row."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    return [int(line.split("|")[1]) for line in section.splitlines()
            if line.startswith("| ") and line.split("|")[1].strip().isdigit()]


def test_the_exit_code_table_has_one_example_per_row():
    assert _exit_code_table() == [code for *_, code, _ in EXIT_CODE_EXAMPLES]


@pytest.mark.parametrize("argv, change, code, err", EXIT_CODE_EXAMPLES,
                         ids=[f"row-{i}" for i in range(len(EXIT_CODE_EXAMPLES))])
def test_each_row_of_the_exit_code_table(ramsey_run, tmp_path, capsys, monkeypatch,
                                         argv, change, code, err):
    import dephasim.cli as cli
    if code == 4:
        monkeypatch.setitem(cli.FITTERS, "ramsey", stalled(cli.FITTERS["ramsey"]))
    doc = ramsey_doc()
    doc["time_grid_s"]["points"] = 5
    doc.update(change)
    write_config(tmp_path / "cfg.json", doc)
    header = "time_s,fraction,trials,successes\n"
    (tmp_path / "empty.csv").write_text(header, encoding="utf-8")
    (tmp_path / "bad.csv").write_text(header + "0.001,0.5,100,50\n0.002,0.9,100,120\n",
                                      encoding="utf-8")
    assert main([arg.format(tmp=tmp_path, run=ramsey_run) for arg in argv]) == code
    assert capsys.readouterr().err.startswith(err.format(tmp=tmp_path))


@pytest.mark.parametrize("command", [
    ["fit", "--data", "{tmp}/missing.csv", "--model", "ramsey"],
    ["fit", "--data", "{tmp}/missing.csv", "--model", "visibility", "--n", "1"],
    ["fit", "--data", "{run}/run.csv", "--model", "ramsey", "--output", "{tmp}/nodir/fit.json"],
    ["simulate", "--config", "{run}/cfg.json", "--output", "{tmp}/nodir/run"],
    ["simulate", "--config", "{tmp}/missing.json", "--output", "{tmp}/run"],
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


@pytest.mark.parametrize("model", ["ramsey", "visibility"])
def test_fit_output_onto_its_data_exits_2_and_leaves_the_data(
        ramsey_run, table_sweep, tmp_path, capsys, model):
    source = ramsey_run / "run.csv" if model == "ramsey" else table_sweep / "visibility_n1.csv"
    data = tmp_path / "data.csv"
    data.write_bytes(source.read_bytes())
    argv = ["fit", "--data", str(data), "--model", model, "--n", "1", "--output", str(data)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: {data}: this output path is the input file" in err
    assert data.read_bytes() == source.read_bytes()


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
    (SIMULATE, b"[1, 2]"),
], ids=["config-not-utf8", "config-nested-1e5-deep", "dataset-not-utf8",
        "dataset-long-field", "visibility-not-utf8", "visibility-long-field",
        "config-not-an-object"])
def test_malformed_input_file_exits_2_naming_it(tmp_path, capsys, command, content):
    path = tmp_path / "input"
    path.write_bytes(content)
    assert main([arg.format(path=path, tmp=tmp_path) for arg in command]) == 2
    err = capsys.readouterr().err
    assert str(path) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("header, flags", [
    (DATASET_HEADER, ["--model", "ramsey"]),
    (DATASET_HEADER, ["--model", "echo_fringe", "--tau-s", "1e-3"]),
    (DATASET_HEADER, ["--model", "cpmg_fringe", "--n", "2", "--tau-s", "1e-3"]),
    (DATASET_HEADER, ["--model", "rabi"]),
    (DATASET_HEADER, ["--model", "t1"]),
    (VISIBILITY_HEADER, ["--model", "visibility", "--n", "1"]),
], ids=["ramsey", "echo_fringe", "cpmg_fringe", "rabi", "t1", "visibility"])
def test_a_table_without_data_rows_exits_2_naming_it(tmp_path, capsys, header, flags):
    path = tmp_path / "table.csv"
    path.write_bytes(header)
    out = tmp_path / "fit.json"
    assert main(["fit", "--data", str(path), *flags, "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {path}: the table has no data rows to fit\n"
    assert not out.exists()


def test_sweep_missing_outdir_exits_2_before_scanning(tmp_path, capsys, monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("the scan ran before --outdir was checked")

    monkeypatch.setattr("dephasim.cli.scan_visibility", no_scan)
    config = write_config(tmp_path / "cfg.json", sweep_doc(sigma_sig=40.0))
    missing = tmp_path / "missing"
    assert main(["sweep-n", "--config", config, "--n", "1", "--outdir", str(missing)]) == 2
    assert str(missing) in capsys.readouterr().err


@pytest.mark.parametrize("n_list, key", [("1,2", "sweep.rows.2"), ("6,0", "n"), ("1,6,1", "n")])
def test_sweep_checks_every_n_before_the_first_scan(tmp_path, capsys, n_list, key):
    # The README sweep config has rows for n = 1 and 6 only and no homogeneous
    # noise, so n = 2 has no sigma_sig; n = 0 is no pulse number; a repeated n
    # would scan twice into one table.
    rows = {"1": {"sigma_sig": {"value": 27.6, "angular": True}, "contrast": 0.687},
            "6": {"sigma_sig": {"value": 55.7, "angular": True}, "contrast": 0.602}}
    config = write_config(tmp_path / "cfg.json", sweep_doc(rows=rows))
    outdir = tmp_path / "out"
    outdir.mkdir()
    rc = main(["sweep-n", "--config", config, "--n", n_list, "--outdir", str(outdir)])
    assert rc == 2
    assert f"error: {key}: " in capsys.readouterr().err
    assert list(outdir.iterdir()) == []


@pytest.mark.parametrize("key", ["01", "1_0", " 1", "+1", "-0", "1.0", "one"])
def test_sweep_row_keys_must_name_their_pulse_number_exactly(tmp_path, capsys, monkeypatch, key):
    # int() reads "01" as 1 and "1_0" as 10: such a key would alias another row
    # (the later one silently winning), so only the key str(n) names row n.
    import dephasim.cli as cli
    monkeypatch.setattr(cli, "scan_visibility", None)  # must fail before any scan
    rows = {"1": {"sigma_sig": {"value": 27.6, "angular": True}},
            key: {"sigma_sig": {"value": 49.1, "angular": True}}}
    config = write_config(tmp_path / "cfg.json", sweep_doc(rows=rows))
    rc = main(["sweep-n", "--config", config, "--n", "1", "--outdir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"error: sweep.rows.{key}: row keys must be pulse numbers" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("sigma_sig", [0.0, 1e-300, 5e-310])
@pytest.mark.parametrize("source", ["row", "homogeneous"])
def test_sweep_checks_every_row_grid_before_the_first_scan(tmp_path, capsys, sigma_sig, source):
    # sigma_sig = 0 gives T2' = inf and infinite pulse spacings; 1e-300 rad/s gives
    # spacings near 1e300 s, at which the fringe's readout times round to one
    # value; 5e-310 overflows T2'.  Row 6 is refused, naming where its sigma_sig
    # came from (its row, or the homogeneous section), before row 1 is scanned,
    # so nothing is written.
    bad = {"sigma_sig": {"value": sigma_sig, "angular": True}}
    rows = {"1": {"sigma_sig": {"value": 27.6, "angular": True}}}
    if source == "row":
        rows["6"] = bad
    doc = sweep_doc(rows=rows, sigma_sig=sigma_sig if source == "homogeneous" else None)
    config = write_config(tmp_path / "cfg.json", doc)
    outdir = tmp_path / "out"
    outdir.mkdir()
    rc = main(["sweep-n", "--config", config, "--n", "1,6", "--outdir", str(outdir)])
    assert rc == 2
    key = "sweep.rows.6.sigma_sig" if source == "row" else "homogeneous"
    err = capsys.readouterr().err
    assert f"error: {key}: sigma_sig " in err  # the quadrature sum of tiny sigmas may read 0
    assert "rad/s gives no finite increasing grid" in err
    assert list(outdir.iterdir()) == []


def test_sweep_negative_row_sigma_exits_2_naming_the_row_before_the_first_scan(tmp_path, capsys):
    rows = {"1": {"sigma_sig": {"value": 27.6, "angular": True}},
            "6": {"sigma_sig": {"value": -27.6, "angular": True}}}
    config = write_config(tmp_path / "cfg.json", sweep_doc(rows=rows))
    outdir = tmp_path / "out"
    outdir.mkdir()
    assert main(["sweep-n", "--config", config, "--n", "1,6", "--outdir", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert "error: sweep.rows.6.sigma_sig: sigma_sig must be >= 0, got -27.6 rad/s" in err
    assert list(outdir.iterdir()) == []


@pytest.mark.parametrize("rows, sigma_sig, named", [
    ({"1": {"sigma_sig": {"value": 27.6, "angular": True}},
      "6": {"sigma_sig": {"value": 55.7, "angular": True}, "contrast": 1.3}}, None,
     "sweep.rows.6.contrast: contrast must lie in [0, 1], got 1.3"),
    (None, -27.6, "homogeneous.sigma_sig: sigma_sig must be >= 0, got -27.6 rad/s"),
    (None, None, "homogeneous: sweep-n needs homogeneous noise or sweep.rows overrides"),
], ids=["row-contrast", "negative-sigma-sig", "no-sigma-sig-source"])
def test_sweep_value_out_of_range_exits_2_naming_its_key_before_the_first_scan(
        tmp_path, capsys, monkeypatch, rows, sigma_sig, named):
    monkeypatch.setattr("dephasim.cli.scan_visibility", None)  # must fail before any scan
    config = write_config(tmp_path / "cfg.json", sweep_doc(rows=rows, sigma_sig=sigma_sig))
    outdir = tmp_path / "out"
    outdir.mkdir()
    assert main(["sweep-n", "--config", config, "--n", "1,6", "--outdir", str(outdir)]) == 2
    assert f"error: {named}" in capsys.readouterr().err
    assert list(outdir.iterdir()) == []


@pytest.mark.parametrize("row, named", [
    ({"sigma_sig": {"value": 55.7, "angular": True}, "contrast": 1.3},
     "sweep.rows.6.contrast: contrast must lie in [0, 1], got 1.3"),
    ({"sigma_sig": {"value": -27.6, "angular": True}},
     "sweep.rows.6.sigma_sig: sigma_sig must be >= 0, got -27.6 rad/s"),
], ids=["row-contrast", "negative-row-sigma-sig"])
def test_sweep_checks_the_rows_n_skips_before_the_first_scan(tmp_path, capsys, monkeypatch,
                                                             row, named):
    # --n 1 selects row 1 only; row 6 is refused all the same, naming its key.
    monkeypatch.setattr("dephasim.cli.scan_visibility", None)  # must fail before any scan
    rows = {"1": {"sigma_sig": {"value": 27.6, "angular": True}}, "6": row}
    config = write_config(tmp_path / "cfg.json", sweep_doc(rows=rows))
    outdir = tmp_path / "out"
    outdir.mkdir()
    assert main(["sweep-n", "--config", config, "--n", "1", "--outdir", str(outdir)]) == 2
    assert capsys.readouterr().err == f"error: {named}\n"
    assert list(outdir.iterdir()) == []


def test_sweep_skips_a_row_whose_fitted_errors_are_zero(tmp_path, capsys):
    # At T2* = 1e-300 s the held envelope is 0, and at 4 points per fringe the
    # fits report a visibility with error 0.0.  The table keeps those points, but
    # fit --model visibility would refuse them (weight 1/0), so the summary fit
    # skips each such row with a note; the run completes instead of stopping
    # after the first table with a weight error that names no row.
    doc = sweep_doc(sigma_sig=27.6)
    doc["inhomogeneous"] = {"delta0": {"value": 0.0, "angular": False}, "t2_star_s": 1e-300}
    doc["noise_draws"] = 16
    doc["sweep"].update(tau_points=3, points_per_fringe=4)
    config = write_config(tmp_path / "cfg.json", doc)
    outdir = tmp_path / "out"
    outdir.mkdir()
    rc = main(["sweep-n", "--config", config, "--n", "4,2,1", "--outdir", str(outdir)])
    err = capsys.readouterr().err
    assert rc == 0
    assert "Traceback" not in err and "error:" not in err
    assert sorted(p.name for p in outdir.iterdir()) == [
        "summary.json", "sweep.manifest.json",
        "visibility_n1.csv", "visibility_n2.csv", "visibility_n4.csv"]
    with open(outdir / "visibility_n4.csv", newline="") as handle:
        assert "0.0" in [row["visibility_err"] for row in csv.DictReader(handle)]
    for n in (4, 2, 1):
        assert f"n = {n}: fits failed on " in err and "skipping summary row" in err
    summary = json.loads((outdir / "summary.json").read_text(encoding="utf-8"))
    assert summary == {"rows": []}


REPEATED_KEY_CONFIG = (
    '{"sequence": {"kind": "cpmg", "n": 1, "tau_s": 0.001,'
    ' "delta": {"value": 1500.0, "angular": false}},'
    ' "homogeneous": {"sigma_sig": {"value": 40.0, "angular": true}},'
    ' "time_grid_s": [0.0021], %s}')


@pytest.mark.parametrize("command", ["simulate", "sweep-n"])
@pytest.mark.parametrize("entries, key", [
    # json alone would keep the second row of n = 1 (sigma 49.1) and the seed 8
    ('"sweep": {"rows": {"1": {"sigma_sig": {"value": 27.6, "angular": true}},'
     ' "1": {"sigma_sig": {"value": 49.1, "angular": true}}}}', "'1'"),
    ('"rng_seed": 7, "rng_seed": 8', "'rng_seed'"),
], ids=["row", "top-level"])
def test_a_key_repeated_in_one_object_exits_2_naming_it(tmp_path, capsys, monkeypatch,
                                                        command, entries, key):
    import dephasim.cli as cli
    monkeypatch.setattr(cli, "scan_visibility", None)  # must fail before any scan
    path = tmp_path / "cfg.json"
    path.write_text(REPEATED_KEY_CONFIG % entries, encoding="utf-8")
    outputs = (["--output", str(tmp_path / "run")] if command == "simulate"
               else ["--n", "1", "--outdir", str(tmp_path)])
    assert main([command, "--config", str(path), *outputs]) == 2
    err = capsys.readouterr().err
    assert f"error: {path}: key {key} appears more than once in one object" in err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]
    path.write_text(REPEATED_KEY_CONFIG % '"rng_seed": 8', encoding="utf-8")
    assert _load_document(path)[0]["rng_seed"] == 8  # given once, the key loads


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


def frequencies(values):
    return st.builds(lambda value, angular: {"value": value, "angular": angular},
                     values, st.booleans())


def mostly(usual, *degenerate):
    """``usual`` about seven times in eight, else one of the ``degenerate`` values."""
    return st.integers(0, 7).flatmap(lambda k: st.sampled_from(degenerate) if k == 7 else usual)


#: Noise widths and detunings (rad/s or Hz), with zero, negative, subnormal and
#: near-overflowing values among the usual ones.
SIGMAS = mostly(st.floats(1.0, 200.0), 0.0, -27.6, 5e-310, 1e-300, 1e300)
DETUNINGS = mostly(st.floats(100.0, 5000.0), 0.0, 1e-12, -1500.0, 1e300)


@st.composite
def sweep_configs(draw):
    """A small sweep-n config (at most 3 pulse spacings of at most 9 points) and pulse numbers.

    Most configs run; a degenerate value here and there gets them refused, and
    flat fringes (contrast 0, one cycle), fringes of one or two points and
    fits that stop without converging make fits fail.
    """
    n_list = draw(mostly(st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True),
                         [0], [2, 2], [1, 7]))
    n = draw(st.integers(1, 6))
    doc = {
        "sequence": {"kind": "spin_echo" if n == 1 and draw(st.booleans()) else "cpmg",
                     "n": n, "tau_s": draw(mostly(st.floats(1e-4, 1e-2), 1e-9, 1.0)),
                     "delta": draw(frequencies(DETUNINGS))},
        "cycles_per_point": draw(mostly(st.integers(1, 200), 1)),
        "noise_draws": draw(st.integers(1, 32)),
        "rng_seed": draw(st.integers(0, 2**64)),
        "contrast": draw(mostly(st.floats(0.05, 1.0), 0.0)),
        "invert_fraction": draw(st.booleans()),
        "zeeman_shift": draw(frequencies(st.sampled_from([0.0, 12.0, 1500.0]))),
        "sweep": {"tau_points": draw(st.integers(1, 3)),
                  "points_per_fringe": draw(st.integers(1, 9)),
                  "span_t2_prime": draw(mostly(st.just([0.15, 1.1]), [1e-300, 1e-290],
                                               [2.0, 0.5], [1e-3, 1e3])),
                  "rows": {str(row): {"sigma_sig": draw(frequencies(SIGMAS)),
                                      "contrast": draw(mostly(st.just(0.6), 0.0))}
                           for row in n_list if draw(st.booleans())}},
    }
    if draw(mostly(st.just(True), False)):
        doc["homogeneous"] = ({"sigma_sig": draw(frequencies(SIGMAS))} if draw(st.booleans())
                              else {"sigmas": [draw(frequencies(SIGMAS)) for _ in range(n)]})
    if draw(st.booleans()):
        doc["inhomogeneous"] = {"delta0": draw(frequencies(DETUNINGS)),
                                draw(st.sampled_from(["t2_star_s", "eta_s"])):
                                    draw(mostly(st.floats(1e-4, 1e-2), 1e-300, 1e300))}
    return doc, n_list


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(sweep_configs())
def test_sweep_n_on_any_config_exits_0_2_or_3_without_a_traceback(case):
    # main returns the exit code of every refused config, value or failed fit;
    # anything else would escape it as an exception and fail this test.
    # A numpy RuntimeWarning (an envelope of T2* = 1e-300 s overflows to its limit
    # 0) is printed, not raised, outside the test suite's warnings-as-errors.
    doc, n_list = case
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        config = write_config(Path(tmp) / "cfg.json", doc)
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            rc = main(["sweep-n", "--config", config, "--n", ",".join(map(str, n_list)),
                       "--outdir", tmp])
    assert rc in (0, 2, 3)
    assert "Traceback" not in stderr.getvalue()


@st.composite
def simulate_configs(draw):
    """A small simulate config: at most 9 readout times and 32 light-shift draws.

    Most configs run; a degenerate value here and there (a pulse count that does
    not fit the kind, a zero or huge spacing, a grid that reads out before the
    last pulse, is not increasing or overflows) gets them refused.
    """
    kind = draw(st.sampled_from(SEQUENCE_KINDS))
    n = {"ramsey": 0, "spin_echo": 1}.get(kind, draw(st.integers(1, 6)))
    n = draw(mostly(st.just(n), n + 1, -1))
    tau = draw(mostly(st.floats(1e-4, 1e-2), 0.0, 1e-9, 1.0))
    points = draw(st.integers(1, 9))
    earliest = (2 * n - 1) * tau if n >= 1 else 0.0
    grid = draw(st.sampled_from(["list", "half_span", "start_stop"]))
    if grid == "list":
        offsets = draw(st.lists(mostly(st.floats(0.0, 3.0), -0.5, 1e300), min_size=points,
                                max_size=points, unique=True))
        time_grid = [earliest + offset * (tau or 1e-3) for offset in sorted(offsets)]
        if draw(mostly(st.just(False), True)):
            time_grid.reverse()
    elif grid == "half_span":
        time_grid = {"half_span_s": draw(mostly(st.floats(0.01, 0.9), 0.0, 2.0, 1e300))
                     * (tau or 1e-3), "points": points}
    else:
        start = earliest + draw(mostly(st.floats(0.0, 3.0), -0.5, 1e300)) * (tau or 1e-3)
        time_grid = {"start_s": start, "stop_s": start + draw(mostly(st.floats(1e-4, 1e-2), 0.0)),
                     "points": points}
    doc = {
        "sequence": {"kind": kind, "n": n, "tau_s": tau, "delta": draw(frequencies(DETUNINGS))},
        "time_grid_s": time_grid,
        "cycles_per_point": draw(mostly(st.integers(1, 200), 1)),
        "noise_draws": draw(st.integers(1, 32)),
        "rng_seed": draw(st.integers(0, 2**64)),
        "contrast": draw(mostly(st.floats(0.05, 1.0), 0.0)),
        "invert_fraction": draw(st.booleans()),
        "zeeman_shift": draw(frequencies(st.sampled_from([0.0, 12.0, 1500.0]))),
    }
    if draw(st.booleans()):
        doc["homogeneous"] = ({"sigma_sig": draw(frequencies(SIGMAS))} if draw(st.booleans())
                              else {"sigmas": [draw(frequencies(SIGMAS))
                                               for _ in range(max(n, 1))]})
    if draw(st.booleans()):
        doc["inhomogeneous"] = {"delta0": draw(frequencies(DETUNINGS)),
                                draw(st.sampled_from(["t2_star_s", "eta_s"])):
                                    draw(mostly(st.floats(1e-4, 1e-2), 1e-300, 1e300))}
    return doc


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(simulate_configs())
def test_simulate_on_any_config_exits_0_2_or_3_without_a_traceback(doc):
    # As for sweep-n: every refused config, value or grid returns its exit code
    # from main, and a run that succeeds writes its three outputs.
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        config = write_config(Path(tmp) / "cfg.json", doc)
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            rc = main(["simulate", "--config", config, "--output", str(Path(tmp) / "run")])
        written = sorted(p.name for p in Path(tmp).iterdir())
    assert rc in (0, 2, 3)
    assert "Traceback" not in stderr.getvalue()
    if rc == 0:
        assert written == ["cfg.json", "run.csv", "run.json", "run.manifest.json"]


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


# ------------------------------------------------ row-loop reader oracles
# Reference readers of both tables: one csv row at a time, through float() and
# int().  The package's readers, which parse with numpy's C reader where it
# agrees, must return the same arrays bit for bit or raise the same
# DataFormatError.


def oracle_read_dataset_csv(path):
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise DataFormatError("empty dataset file") from None
            if header != ["time_s", "fraction", "trials", "successes"]:
                raise DataFormatError(f"unexpected header {header!r}")
            times, fractions, successes, trials = [], [], [], []
            for index, row in enumerate(reader, start=1):
                if len(row) != 4:
                    raise DataFormatError(f"expected 4 columns, got {len(row)}", row=index)
                try:
                    t, frac = float(row[0]), float(row[1])
                    n_trials, n_succ = int(row[2]), int(row[3])
                except ValueError as exc:
                    raise DataFormatError(str(exc), row=index) from None
                times.append(t)
                fractions.append(frac)
                successes.append(n_succ)
                trials.append(n_trials)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataFormatError(f"{path}: {exc}") from None
    dataset = FringeDataset(np.array(times), np.array(successes), np.array(trials))
    mismatch = ~(np.abs(np.array(fractions) - dataset.fractions) <= 1e-9)
    if np.any(mismatch):
        i = int(np.argmax(mismatch))
        raise DataFormatError(f"fraction {fractions[i]} does not equal successes/trials",
                              row=i + 1)
    return dataset


def oracle_read_visibility_csv(path):
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise DataFormatError("empty visibility file") from None
            if header != ["total_time_s", "visibility", "visibility_err"]:
                raise DataFormatError(f"unexpected header {header!r}")
            times, values, weights = [], [], []
            for index, row in enumerate(reader, start=1):
                if len(row) != 3:
                    raise DataFormatError(f"expected 3 columns, got {len(row)}", row=index)
                try:
                    t, v, e = (float(cell) for cell in row)
                except ValueError as exc:
                    raise DataFormatError(str(exc), row=index) from None
                if not all(math.isfinite(x) for x in (t, v, e)):
                    raise DataFormatError(f"non-finite value in {row!r}", row=index)
                if not e > 0:
                    raise DataFormatError(f"visibility_err must be positive, got {e}", row=index)
                weight = 1.0 / (e * e) if e * e > 0 else math.inf
                if not 0 < weight < math.inf:
                    raise DataFormatError(f"visibility_err {e} gives the weight 1/err**2 = "
                                          f"{weight}, which is not positive and finite", row=index)
                times.append(t)
                values.append(v)
                weights.append(weight)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataFormatError(f"{path}: {exc}") from None
    return weighted_points(times, values, weights=weights)


def read_outcome(read, path):
    """What a reader made of a file: its arrays as (dtype, shape, bytes), or its error."""
    try:
        result = read(path)
    except DataFormatError as exc:
        return "error", str(exc), exc.row
    if isinstance(result, FringeDataset):
        arrays = (result.times, result.successes, result.trials)
    else:
        arrays = (result.x, result.y, result.weight)
    return "read", [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


TABLE_FORMATS = {
    "dataset": (DATASET_HEADER, FringeDataset.read_csv, oracle_read_dataset_csv),
    "visibility": (VISIBILITY_HEADER, read_visibility_csv, oracle_read_visibility_csv),
}
#: Cells the row loop and numpy's C reader might read differently.
ODD_CELLS = ["", " ", "\t", "1_000", "١٢", "５", "5①", "5\U000e0030", "\x1f5",
             "　 5", "5\xa0", "\x0b5", "5\x1c", " 5", '"5"', '"5', "'5'", "+5", "-0", "05",
             "- 5", "5 5", "0x10", "nan", "-nan", "NaN", "inf", "-Infinity", "1e500", "1e-400",
             "5.0", "5.", ".5", "1d5", "5j", "\x00", "5\x00", "9223372036854775807",
             "9223372036854775808", "-9223372036854775809", "18446744073709551616",
             "0" * 131_073 + "5", " " * 131_073 + "5"]
#: Unusual line ends: csv ends a row at \n, \r\n and a lone \r.
LINE_ENDS = ["\r\n", "\r", "\n\n", "\n \n", "\n\t\n", "\r\r\n", "\n\r", "\n\x00\n"]


@st.composite
def valid_cells(draw, kind):
    if kind == "dataset":
        trials = draw(st.integers(1, 10**6))
        successes = draw(st.integers(0, trials))
        return [repr(draw(FINITE)), repr(successes / trials), str(trials), str(successes)]
    return [repr(draw(FINITE)), repr(draw(FINITE)), repr(draw(st.floats(1e-160, 1e160)))]


@st.composite
def targeted_tables(draw, kind):
    """Valid rows with up to two odd spots: a cell odd, padded, missing or split, or a line end."""
    rows = [draw(valid_cells(kind)) for _ in range(draw(st.integers(0, 8)))]
    ends = ["\n"] * len(rows)
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        r = draw(st.integers(0, len(rows) - 1))
        if draw(st.booleans()):
            i = draw(st.integers(0, len(rows[r]) - 1))
            cell = rows[r][i]
            rows[r][i] = draw(st.sampled_from(ODD_CELLS + [f" {cell}\t", f"{cell},1", ""]))
        else:
            ends[r] = draw(st.sampled_from(LINE_ENDS))
    text = "".join(",".join(cells) + end for cells, end in zip(rows, ends))
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text.encode("utf-8")


@st.composite
def table_files(draw):
    kind = draw(st.sampled_from(sorted(TABLE_FORMATS)))
    body = draw(st.one_of(st.binary(max_size=200), targeted_tables(kind)))
    return kind, TABLE_FORMATS[kind][0] + body


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(table_files())
@example(("dataset", DATASET_HEADER))
@example(("visibility", VISIBILITY_HEADER))
@example(("dataset", DATASET_HEADER + b"0.001,0.5,100,50\n\n"))
@example(("dataset", DATASET_HEADER + b"0.001,0.5," + b" " * 131_073 + b"100,50\n"))
@example(("visibility", VISIBILITY_HEADER + b"0.1,0.5,0.01\n \n0.2,0.4,0.01\n"))
@example(("dataset", DATASET_HEADER + "0.001,0.5,100,5\u2460\n".encode()))
@example(("visibility", VISIBILITY_HEADER + b"0.1\x1c,0.5,0.01\n"))
def test_table_readers_match_the_row_loop_oracles(input_file, case):
    kind, content = case
    _, read, oracle = TABLE_FORMATS[kind]
    input_file.write_bytes(content)
    assert read_outcome(read, input_file) == read_outcome(oracle, input_file)


VALID_ROWS = {"dataset": b"0.001,0.5,100,50", "visibility": b"0.1,0.5,0.01"}


@pytest.mark.parametrize("kind", sorted(TABLE_FORMATS))
@pytest.mark.parametrize("body, error", [
    (b"", None),
    (b"\n", "row 1: expected {n} columns, got 0"),
    (b"{row}\n\n{row}\n", "row 2: expected {n} columns, got 0"),
    (b"{row}\r\n\r\n", "row 2: expected {n} columns, got 0"),
], ids=["header-only", "blank-body", "blank-line", "crlf-blank-line"])
def test_rows_numpy_skips_reach_the_row_loop_without_a_warning(tmp_path, kind, body, error):
    # numpy's C reader skips blank lines and warns on a body without rows; the row
    # loop names a blank line and reads a header-only table as empty, silently.
    header, read, _ = TABLE_FORMATS[kind]
    path = tmp_path / "table.csv"
    path.write_bytes(header + body.replace(b"{row}", VALID_ROWS[kind]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if error is None:
            assert read_outcome(read, path)[0] == "read"
        else:
            with pytest.raises(DataFormatError) as exc:
                read(path)
            assert str(exc.value) == error.format(n=VALID_ROWS[kind].count(b",") + 1)
    assert [str(w.message) for w in caught] == []

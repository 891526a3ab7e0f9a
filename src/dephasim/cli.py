"""Command-line interface: simulate datasets, fit them, sweep pulse number.

Configuration is a single JSON document, read against one table per JSON
object (``_CONFIG`` and the tables it names) that gives each accepted key
its kind and default; a frequency is ``{"value": <number>, "angular": <bool>}``,
hertz or rad/s, returned in rad/s.  This module checks the JSON shape and
names the key of each refusal; each value's range is its type's, whose
``DomainError`` becomes a ``ConfigError`` at its field's key (``_config_error``).
The exit codes and what each refusal names are the table in README.md
("Command line"); ``main`` turns every refusal into one ``error:`` line.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import inspect
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .bloch import SequenceSpec
from .errors import ConfigError, DataFormatError, DephasimError, DomainError
from .fit import FITTERS, fit_visibility_decay, weighted_points
from .montecarlo import (
    ExperimentConfig, FringeDataset, _VISIBILITY_TABLE, _fringe_grids, _read_table,
    _write_table, _write_text, scan_visibility, simulate_dataset,
)
from .noise import HomogeneousNoiseSpec, LightShiftDistribution
from .analytic import t2_prime

__all__ = ["main"]


# ----------------------------------------------------------- config schema

# One table per JSON object: key -> (kind, default), the default taken when the
# key is absent (REQUIRED: it must be given).  Kinds: "number" (a finite float),
# "integer", "count" (an integer in [1, 2**63 - 1], and for the keys of
# _COUNT_BYTES no larger than numpy's array limit allows), "bool", "string",
# "object", "list", "frequency" (an object, returned in rad/s), None (read in
# code) or a table.
REQUIRED = object()
_FREQUENCY = {"value": ("number", REQUIRED), "angular": ("bool", REQUIRED)}
_SEQUENCE = {"kind": ("string", REQUIRED), "n": ("integer", None),  # None: 0 for ramsey, else 1
             "tau_s": ("number", 0.0), "delta": ("frequency", 0.0)}
_INHOMOGENEOUS = {"delta0": ("frequency", 0.0),  # exactly one of t2_star_s and eta_s
                  "t2_star_s": ("number", None), "eta_s": ("number", None)}
_HOMOGENEOUS = {"sigma_sig": ("frequency", None), "sigmas": ("list", None)}  # exactly one
_HALF_SPAN_GRID = {"half_span_s": ("number", REQUIRED), "points": ("count", REQUIRED)}
_START_STOP_GRID = {"start_s": ("number", REQUIRED), "stop_s": ("number", REQUIRED),
                    "points": ("count", REQUIRED)}
_CONFIG = {
    "sequence": (_SEQUENCE, REQUIRED),
    "inhomogeneous": (_INHOMOGENEOUS, None),
    "homogeneous": (_HOMOGENEOUS, None),
    "cycles_per_point": ("count", 100),
    "noise_draws": ("count", 4096),
    "time_grid_s": (None, []),  # a list of seconds, _HALF_SPAN_GRID or _START_STOP_GRID
    "rng_seed": ("integer", 0),
    "zeeman_shift": ("frequency", 0.0),
    "contrast": ("number", 1.0),
    "invert_fraction": ("bool", False),
    "metadata": ("object", {}),
    "sweep": (None, None),  # _SWEEP, read by _parse_sweep_section only
}
_SWEEP = {"tau_points": ("count", 10), "span_t2_prime": ("list", [0.15, 1.1]),
          "points_per_fringe": ("count", 31), "rows": ("object", {})}  # rows: n -> _SWEEP_ROW
_SWEEP_ROW = {"sigma_sig": ("frequency", REQUIRED), "contrast": ("number", 1.0)}
_COUNT_MAX = 2**63 - 1  # the largest int64: numpy takes counts as C longs
_ARRAY_MAX_BYTES = int(np.iinfo(np.intp).max)  # numpy refuses a larger array ("array is too big")
#: Bytes per unit of each count that sizes an array: 3 float32 uniforms per light-shift
#: draw, one float64 per grid time.  A count whose array numpy would refuse is refused here.
_COUNT_BYTES = {"noise_draws": 12, "time_grid_s.points": 8, "sweep.tau_points": 8,
                "sweep.points_per_fringe": 8}
_TYPES = {"integer": (int, "an integer"), "count": (int, "an integer"),
          "bool": (bool, "true/false"), "string": (str, "a string"),
          "object": (dict, "an object"), "list": (list, "a list")}


def _key(path: str, key) -> str:
    """The dotted location of ``key`` inside ``path``; no leading dot at the top level."""
    return f"{path}.{key}" if path else str(key)


def _number(value, where: str) -> float:
    """A JSON number as a finite float; bools, other types and non-finite values are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(where, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(where, f"expected a finite number, got {value!r}")
    return number


def _value(value, kind, where: str):
    """Check one value against its kind and return it converted; a table is read in full."""
    if kind is None:
        return value
    if kind == "number":
        return _number(value, where)
    if kind == "frequency":
        if not isinstance(value, dict):
            raise ConfigError(
                where, 'frequencies must be {"value": <number>, "angular": <bool>} objects')
        freq = _read(value, _FREQUENCY, where)
        rad_s = freq["value"] if freq["angular"] else 2.0 * math.pi * freq["value"]
        if not math.isfinite(rad_s):
            raise ConfigError(f"{where}.value", f"{freq['value']!r} Hz overflows in rad/s")
        return rad_s
    accepted, expected = (dict, "an object") if isinstance(kind, dict) else _TYPES[kind]
    if not isinstance(value, accepted) or (accepted is int and isinstance(value, bool)):
        raise ConfigError(where, f"expected {expected}, got {value!r}")
    if kind == "count" and value < 1:
        raise ConfigError(where, f"must be >= 1, got {value}")
    if kind == "count" and value > _COUNT_MAX:
        raise ConfigError(where, f"must be <= 2**63 - 1, got {value}")
    if kind == "count" and value * _COUNT_BYTES.get(where, 0) > _ARRAY_MAX_BYTES:
        size = _COUNT_BYTES[where]
        raise ConfigError(where, f"must be <= {_ARRAY_MAX_BYTES // size} ({size} bytes each, "
                                 f"numpy's array limit is {_ARRAY_MAX_BYTES} bytes), got {value}")
    return _read(value, kind, where) if isinstance(kind, dict) else value


def _read(doc: dict, table: dict, path: str) -> dict:
    """Check a JSON object against its table; return every key's value, defaults filled in."""
    for key in doc:
        if key not in table:
            raise ConfigError(_key(path, key), f"unknown key (expected one of {sorted(table)})")
    out = {}
    for key, (kind, default) in table.items():
        if key in doc:
            out[key] = _value(doc[key], kind, _key(path, key))
        elif default is REQUIRED:
            raise ConfigError(_key(path, key), "required key is missing")
        else:
            out[key] = default
    return out


def _object_without_repeats(pairs) -> dict:
    """A JSON object as a dict; a repeated key is refused (``json`` would keep its last value)."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for i, key in enumerate(keys) if key in keys[:i])
        raise ConfigError("", f"key {repeated!r} appears more than once in one object")
    return doc


def _load_document(path) -> tuple[dict, bytes]:
    """The config document at ``path`` and the bytes it was parsed from (read once)."""
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
        doc = json.loads(raw.decode("utf-8"), object_pairs_hook=_object_without_repeats)
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read config: {exc}") from None
    except ConfigError as exc:
        raise ConfigError(str(path), exc.message) from None
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8; nesting too deep
        raise ConfigError(str(path), f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(str(path), "top level must be an object")
    return doc, raw


def _refuse_to_overwrite(input_path, outputs) -> None:
    """Reject, before anything is written, an output path that is the input file."""
    for out in outputs:
        if os.path.exists(out) and os.path.samefile(out, input_path):
            raise ConfigError(str(out), "this output path is the input file; nothing was written")


def _exactly_one(section: dict, first: str, second: str, path: str) -> str:
    """Which of two alternative keys a section gives; both or neither is an error."""
    if (section[first] is None) == (section[second] is None):
        raise ConfigError(path, f"give exactly one of {first} or {second}")
    return first if section[first] is not None else second


#: The dotted key of each field a type names when it refuses a config value
#: (``DomainError.field``); a field not listed is the top-level key of its name.
_FIELD_KEYS = {"kind": "sequence.kind", "n": "sequence", "tau": "sequence",
               "delta": "sequence.delta", "eta": "inhomogeneous.eta_s",
               "t2_star": "inhomogeneous.t2_star_s", "sigma_sig": "homogeneous.sigma_sig",
               "sigmas": "homogeneous.sigmas", "time_grid": "time_grid_s"}


def _config_error(exc: DomainError, keys: dict) -> ConfigError:
    """A type's refusal as a ConfigError at its field's key, from ``keys``, then ``_FIELD_KEYS``."""
    field, bracket, index = exc.field.partition("[")
    return ConfigError(keys.get(field, _FIELD_KEYS.get(field, field)) + bracket + index, str(exc))


def build_experiment(doc: dict) -> ExperimentConfig:
    """Validate a config document and assemble the experiment description."""
    top = _read(doc, _CONFIG, "")
    seq = top["sequence"]
    n = seq["n"] if seq["n"] is not None else (0 if seq["kind"] == "ramsey" else 1)
    try:
        sequence = SequenceSpec(seq["kind"], n, tau=seq["tau_s"], delta=seq["delta"])

        inhomogeneous = section = top["inhomogeneous"]
        if section is not None:
            delta0 = section["delta0"]
            if _exactly_one(section, "t2_star_s", "eta_s", "inhomogeneous") == "t2_star_s":
                inhomogeneous = LightShiftDistribution.from_t2_star(section["t2_star_s"], delta0)
            else:
                inhomogeneous = LightShiftDistribution(delta0=delta0, eta=section["eta_s"])

        homogeneous = section = top["homogeneous"]
        if section is not None:
            if _exactly_one(section, "sigma_sig", "sigmas", "homogeneous") == "sigma_sig":
                homogeneous = HomogeneousNoiseSpec.from_sigma_sig(section["sigma_sig"], n)
            else:
                homogeneous = HomogeneousNoiseSpec(np.array([
                    _value(item, "frequency", f"homogeneous.sigmas[{i}]")
                    for i, item in enumerate(section["sigmas"])]))

        grid = top["time_grid_s"]
        if isinstance(grid, list):
            time_grid = tuple(_number(item, f"time_grid_s[{i}]") for i, item in enumerate(grid))
        elif not isinstance(grid, dict):
            raise ConfigError("time_grid_s", "expected a list of seconds or a grid object")
        elif "half_span_s" in grid:
            grid = _read(grid, _HALF_SPAN_GRID, "time_grid_s")
            half, center = grid["half_span_s"], sequence.echo_time
            if not (math.isfinite(2.0 * half) and math.isfinite(abs(center) + abs(half))):
                raise ConfigError("time_grid_s.half_span_s",
                                  f"echo time {center} +- {half} s is not a finite grid")
            time_grid = tuple(center + np.linspace(-half, half, grid["points"]))
        else:
            grid = _read(grid, _START_STOP_GRID, "time_grid_s")
            start, stop = grid["start_s"], grid["stop_s"]
            if not math.isfinite(stop - start):
                raise ConfigError("time_grid_s.stop_s", f"span {start} .. {stop} s overflows")
            time_grid = tuple(np.linspace(start, stop, grid["points"]))

        return ExperimentConfig(
            sequence=sequence, inhomogeneous=inhomogeneous, homogeneous=homogeneous,
            cycles_per_point=top["cycles_per_point"], noise_draws=top["noise_draws"],
            time_grid=time_grid, rng_seed=top["rng_seed"], zeeman_shift=top["zeeman_shift"],
            contrast=top["contrast"], invert_fraction=top["invert_fraction"],
            metadata=dict(top["metadata"]),
        )
    except DomainError as exc:
        raise _config_error(exc, {}) from None


def _parse_sweep_section(doc: dict) -> dict:
    """Read the ``sweep`` section, which only ``sweep-n`` uses."""
    sweep = _value(doc.get("sweep", {}), _SWEEP, "sweep")
    span = sweep["span_t2_prime"]
    if (len(span) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                       and 0 < x <= sys.float_info.max for x in span)):
        raise ConfigError("sweep.span_t2_prime",
                          f"expected [low, high] positive multiples of T2', got {span!r}")
    grid_bytes = 8 * sweep["tau_points"] * sweep["points_per_fringe"]
    if grid_bytes > _ARRAY_MAX_BYTES:  # a scan's (tau_points, points_per_fringe) float64 grid
        raise ConfigError("sweep.points_per_fringe",
                          f"with tau_points {sweep['tau_points']}, a scan's time grid of "
                          f"{grid_bytes} bytes exceeds numpy's array limit of "
                          f"{_ARRAY_MAX_BYTES} bytes")
    rows = {}
    for key, row in sweep["rows"].items():
        n = int(key) if key.isascii() and key.isdigit() and len(key) < 20 else None
        if n is None or str(n) != key:  # "01" or "1_0" would alias the row of another n
            raise ConfigError(f"sweep.rows.{key}",
                              "row keys must be pulse numbers: digits, no sign or leading zero")
        rows[n] = _value(row, _SWEEP_ROW, f"sweep.rows.{key}")
    return {"tau_points": sweep["tau_points"], "span": (float(span[0]), float(span[1])),
            "points_per_fringe": sweep["points_per_fringe"], "rows": rows}


# -------------------------------------------------------------- outputs


def _write_manifest(path, config_bytes: bytes, seed: int, command: str) -> None:
    manifest = {
        "command": command,
        "config_sha256": hashlib.sha256(config_bytes).hexdigest(),
        "rng_seed": seed,
        "package_version": __version__,
    }
    _write_text(path, json.dumps(manifest, indent=2, sort_keys=True))


def write_visibility_csv(path, points) -> None:
    """Figure-ready visibility table: total_time_s, visibility, visibility_err."""
    _write_table(path, _VISIBILITY_TABLE, ((p.total_time, p.visibility, p.error) for p in points))


def _visibility_row_error(values, cells) -> str | None:
    """Why a parsed visibility row cannot be fitted, or None; ``cells`` (its CSV fields) name it."""
    err = values[2]
    if not all(math.isfinite(x) for x in values):
        return f"non-finite value in {cells!r}"
    if not err > 0:
        return f"visibility_err must be positive, got {err}"
    weight = 1.0 / (err * err) if err * err > 0 else math.inf
    if not 0 < weight < math.inf:
        return (f"visibility_err {err} gives the weight 1/err**2 = {weight}, "
                "which is not positive and finite")


def read_visibility_csv(path):
    """Read a visibility table into FitData (weight = 1/err**2).

    numpy's C reader parses it; the row loop names a malformed row (``montecarlo._read_table``).
    """
    times, values, errs = _read_table(path, _VISIBILITY_TABLE, "visibility", _visibility_row_error)
    return weighted_points(times, values, yerr=errs)


def _print_fit_result(result) -> None:
    print(f"model: {result.model}   points: {result.n_points}   "
          f"iterations: {result.iterations}   converged: {result.converged}")
    print(f"weighted rss: {result.rss:.6g}   errors: {result.error_convention}")
    width = max(len(name) for name in result.params)
    for name, value in result.params.items():
        err = result.errors.get(name, float("nan"))
        unit = result.units.get(name, "")
        print(f"  {name:<{width}}  {value:.8g} +- {err:.3g} {unit}")


# -------------------------------------------------------------- commands


def cmd_simulate(args) -> int:
    doc, config_bytes = _load_document(args.config)
    config = build_experiment(doc)
    if not config.time_grid:
        raise ConfigError("time_grid_s", "simulate needs a time grid")
    base = args.output
    _refuse_to_overwrite(args.config, [f"{base}.{ext}" for ext in ("csv", "json", "manifest.json")])
    dataset = simulate_dataset(config)
    dataset.write_csv(f"{base}.csv")
    _write_text(f"{base}.json", dataset.to_json())
    _write_manifest(f"{base}.manifest.json", config_bytes, config.rng_seed, "simulate")
    seq = config.sequence
    print(f"simulated {seq.kind} (n = {seq.n}, tau = {seq.tau} s): "
          f"{len(config.time_grid)} points, {config.cycles_per_point} cycles/point, "
          f"seed {config.rng_seed} -> {base}.csv")
    return 0


_FIT_MODELS = tuple(sorted(FITTERS))

#: (fitter parameter, argparse attribute, flag) of each fit flag, the sequence geometry first.
_FIT_ARGS = (("tau", "tau_s", "--tau-s"), ("n", "n", "--n"),
             ("t2_star", "t2_star_s", "--t2-star-s"), ("t2_star", "fit_t2_star", "--fit-t2-star"))


def cmd_fit(args) -> int:
    if args.model not in FITTERS:
        raise ConfigError("model", f"unknown model {args.model!r}; valid: {', '.join(_FIT_MODELS)}")
    fitter = FITTERS[args.model]
    params = inspect.signature(fitter).parameters
    kwargs = {}
    for name, attr, flag in _FIT_ARGS[:2]:
        if name in params and params[name].default is inspect.Parameter.empty:
            if getattr(args, attr) is None:
                raise ConfigError(attr, f"{args.model} fits need {flag}")
            kwargs[name] = getattr(args, attr)
    if "t2_star" in params and (args.fit_t2_star or args.t2_star_s is not None):
        kwargs["t2_star"] = None if args.fit_t2_star else args.t2_star_s
    if args.output:
        _refuse_to_overwrite(args.data, [args.output])
    for name, attr, flag in _FIT_ARGS:  # given, but the fitter lacks it or fixes it
        if getattr(args, attr) is not None and name not in kwargs:
            raise ConfigError(attr, f"{args.model} fits take no {flag}")
    if args.model == "visibility":
        points = read_visibility_csv(args.data)
    else:
        points = FringeDataset.read_csv(args.data).points()
    if not points.x.size:  # a header-only table reads as empty; every fitter refuses it
        raise DataFormatError(f"{args.data}: the table has no data rows to fit")
    result = fitter(points, **kwargs)
    _print_fit_result(result)
    if args.output:
        _write_text(args.output, result.to_json())
    if args.strict and not result.converged:
        print("fit did not converge (--strict)", file=sys.stderr)
        return 4
    return 0


def cmd_sweep_n(args) -> int:
    if not (os.path.isdir(args.outdir) and os.access(args.outdir, os.W_OK | os.X_OK)):
        raise ConfigError("outdir", f"{args.outdir!r} is not a writable directory")
    doc, config_bytes = _load_document(args.config)
    base_config = build_experiment(doc)
    sweep = _parse_sweep_section(doc)
    n_list = args.n
    if not n_list:
        raise ConfigError("n", "sweep-n needs a non-empty pulse-number list")
    if len(set(n_list)) < len(n_list):
        raise ConfigError("n", f"each pulse number may appear once, got {n_list}")
    outputs = [f"visibility_n{n}.csv" for n in n_list] + ["summary.json", "sweep.manifest.json"]
    _refuse_to_overwrite(args.config, [f"{args.outdir}/{name}" for name in outputs])
    if base_config.homogeneous is None and not sweep["rows"]:
        raise ConfigError("homogeneous", "sweep-n needs homogeneous noise or sweep.rows overrides")
    default_sigma = (base_config.homogeneous.sigma_sig
                     if base_config.homogeneous is not None else None)

    # Each row's values (a row --n skips too, at n = 1), then each selected row's grids, by the
    # scan's own rule, before a scan writes; a refused spacing is named by its row's sigma_sig key.
    plan = []
    try:
        for n, row in sweep["rows"].items():
            HomogeneousNoiseSpec.from_sigma_sig(row["sigma_sig"], 1)
            replace(base_config, contrast=row["contrast"])
        for n in n_list:
            if n < 1:
                raise ConfigError("n", f"pulse numbers must be >= 1, got {n}")
            row = sweep["rows"].get(n, {})
            sigma_sig = row.get("sigma_sig", default_sigma)
            if sigma_sig is None:
                raise ConfigError(f"sweep.rows.{n}", "no sigma_sig available for this n")
            contrast = row.get("contrast", base_config.contrast)
            kind = "spin_echo" if n == 1 else "cpmg"
            sequence = replace(base_config.sequence, kind=kind, n=n,
                               tau=max(base_config.sequence.tau, 1e-6))
            config = replace(
                base_config, sequence=sequence, contrast=contrast,
                homogeneous=HomogeneousNoiseSpec.from_sigma_sig(sigma_sig, n),
            )
            lo, hi = sweep["span"]
            taus = t2_prime(n, sigma_sig) * np.linspace(lo, hi, sweep["tau_points"]) / (2 * n)
            _fringe_grids(config, taus, sweep["points_per_fringe"])
            plan.append((n, config, taus))
    except DomainError as exc:  # a value of row n, or one it takes from the config's sections
        where = f"sweep.rows.{n}.sigma_sig" if n in sweep["rows"] else "homogeneous"
        raise _config_error(exc, {"sigma_sig": where, "sigmas": where, "tau": where,
                                  "contrast": f"sweep.rows.{n}.contrast"}) from None

    summary = []
    for n, config, taus in plan:
        points = scan_visibility(config, taus, points_per_fringe=sweep["points_per_fringe"])
        write_visibility_csv(f"{args.outdir}/visibility_n{n}.csv", points)
        # a point is usable only as fit --model visibility would read it back from the table
        usable = [p for p in points if p.ok and _visibility_row_error(
            (p.total_time, p.visibility, p.error), None) is None]
        if len(usable) < 2:
            print(f"n = {n}: fits failed on {len(points) - len(usable)} of "
                  f"{len(points)} points; skipping summary row", file=sys.stderr)
            continue
        fit = fit_visibility_decay(
            weighted_points([p.total_time for p in usable],
                            [p.visibility for p in usable],
                            yerr=[p.error for p in usable]), n=n)
        summary.append({
            "n": n,
            "c0": fit.params["c0"], "c0_err": fit.errors["c0"],
            "sigma_sig": fit.params["sigma_sig"], "sigma_sig_err": fit.errors["sigma_sig"],
            "t2_prime_s": fit.params["t2_prime"], "t2_prime_err_s": fit.errors["t2_prime"],
            "converged": fit.converged,
        })

    print(f"{'n':>3}  {'C_0 (%)':>12}  {'sigma_sig (1/s)':>18}  {'T2_prime (ms)':>16}")
    for row in summary:
        print(f"{row['n']:>3}  "
              f"{100 * row['c0']:>7.1f}+-{100 * row['c0_err']:<4.1f}  "
              f"{row['sigma_sig']:>12.1f}+-{row['sigma_sig_err']:<5.1f}  "
              f"{1e3 * row['t2_prime_s']:>10.1f}+-{1e3 * row['t2_prime_err_s']:<5.1f}")
    _write_text(f"{args.outdir}/summary.json",
                json.dumps({"rows": summary}, indent=2, sort_keys=True))
    _write_manifest(f"{args.outdir}/sweep.manifest.json", config_bytes,
                    base_config.rng_seed, "sweep-n")
    return 0


# ----------------------------------------------------------------- main


def _parse_n_list(raw: str) -> list[int]:
    try:
        return [int(chunk) for chunk in raw.split(",") if chunk.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {raw!r}") from None


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first ``main`` call and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="dephasim",
        description="Simulate and fit single-qubit dephasing experiments "
                    "(Ramsey, spin echo, CPMG).",
    )
    parser.add_argument("--version", action="version", version=f"dephasim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="synthesize a dataset from a config file")
    sim.add_argument("--config", required=True, help="JSON config path")
    sim.add_argument("--output", required=True, help="output basename (.csv/.json appended)")
    sim.add_argument("--workers", type=int, default=1,
                     help="accepted for compatibility; has no effect")
    sim.set_defaults(func=cmd_simulate)

    fit = sub.add_parser("fit", help="fit a dataset CSV with a named model")
    fit.add_argument("--data", required=True, help="dataset CSV path")
    fit.add_argument("--model", required=True,
                     help=f"one of: {', '.join(_FIT_MODELS)}")
    fit.add_argument("--n", type=int, default=None, help="pulse number (cpmg/visibility)")
    fit.add_argument("--tau-s", type=float, default=None, help="pulse spacing in seconds")
    envelope = fit.add_mutually_exclusive_group()
    envelope.add_argument("--t2-star-s", type=float, default=None,
                          help="hold the envelope time fixed at this value (seconds)")
    envelope.add_argument("--fit-t2-star", action="store_true", default=None,
                          help="co-fit the envelope time")
    fit.add_argument("--output", default=None, help="write the fit result JSON here")
    fit.add_argument("--strict", action="store_true", help="exit 4 when not converged")
    fit.set_defaults(func=cmd_fit)

    sweep = sub.add_parser("sweep-n", help="visibility scan and coherence-time summary per n")
    sweep.add_argument("--config", required=True, help="JSON config path")
    sweep.add_argument("--n", type=_parse_n_list, required=True,
                       help="comma-separated pulse numbers, e.g. 1,2,6")
    sweep.add_argument("--outdir", required=True, help="directory for per-n tables")
    sweep.add_argument("--workers", type=int, default=1,
                       help="accepted for compatibility; has no effect")
    sweep.set_defaults(func=cmd_sweep_n)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (DephasimError, OSError, MemoryError) as exc:
        # OSError: a path that cannot be opened; MemoryError: a count too large for an
        # array, e.g. a 10**15-point grid
        memory = "out of memory: " if isinstance(exc, MemoryError) else ""
        print(f"error: {memory}{exc}", file=sys.stderr)
        return 3 if isinstance(exc, DomainError) else 2


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line interface: simulate datasets, fit them, sweep pulse number.

Configuration is a single JSON document.  Every frequency-like quantity is an
object ``{"value": <number>, "angular": <bool>}``: plain hertz when angular
is false (converted to rad/s once at load), already-angular rad/s when true.
This makes the Hz-versus-rad/s choice explicit at the boundary instead of a
silent convention.  Unknown keys are rejected with their dotted path.

Exit codes: 0 success; 2 usage, config, or data error; 3 domain-constraint
violation (e.g. readout before the last pulse); 4 fit non-convergence under
--strict.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .bloch import SEQUENCE_KINDS, SequenceSpec
from .errors import ConfigError, DataFormatError, DomainError, FitError
from .fit import FITTERS, fit_visibility_decay, weighted_points
from .montecarlo import ExperimentConfig, FringeDataset, scan_visibility, simulate_dataset
from .noise import HomogeneousNoiseSpec, LightShiftDistribution
from .analytic import t2_prime

__all__ = ["main"]


# ----------------------------------------------------------- config schema


def _check_keys(doc: dict, allowed, path: str) -> None:
    for key in doc:
        if key not in allowed:
            where = f"{path}.{key}" if path else key
            raise ConfigError(where, f"unknown key (expected one of {sorted(allowed)})")


def _get(doc: dict, key: str, path: str, kind, required=False, default=None):
    if key not in doc:
        if required:
            raise ConfigError(f"{path}.{key}" if path else key, "required key is missing")
        return default
    value = doc[key]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}.{key}", f"expected a number, got {value!r}")
        return float(value)
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}.{key}", f"expected an integer, got {value!r}")
        return value
    if kind is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{path}.{key}", f"expected true/false, got {value!r}")
        return value
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(f"{path}.{key}", f"expected a string, got {value!r}")
        return value
    if kind is dict:
        if not isinstance(value, dict):
            raise ConfigError(f"{path}.{key}", f"expected an object, got {value!r}")
        return value
    raise AssertionError(f"unsupported kind {kind}")


def _frequency(doc: dict, key: str, path: str, required=False, default=0.0) -> float:
    """Read a frequency object and return rad/s."""
    if key not in doc:
        if required:
            raise ConfigError(f"{path}.{key}", "required key is missing")
        return default
    obj = doc[key]
    where = f"{path}.{key}" if path else key
    if not isinstance(obj, dict):
        raise ConfigError(
            where, 'frequencies must be {"value": <number>, "angular": <bool>} objects'
        )
    _check_keys(obj, {"value", "angular"}, where)
    value = _get(obj, "value", where, float, required=True)
    angular = _get(obj, "angular", where, bool, required=True)
    return value if angular else 2.0 * math.pi * value


def _load_document(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(str(path), "top level must be an object")
    return doc


_TOP_KEYS = {
    "sequence", "inhomogeneous", "homogeneous", "cycles_per_point", "noise_draws",
    "time_grid_s", "rng_seed", "zeeman_shift", "contrast", "invert_fraction",
    "metadata", "sweep",
}


def _parse_sequence(doc: dict) -> SequenceSpec:
    seq = _get(doc, "sequence", "", dict, required=True)
    _check_keys(seq, {"kind", "n", "tau_s", "delta"}, "sequence")
    kind = _get(seq, "kind", "sequence", str, required=True)
    if kind not in SEQUENCE_KINDS:
        raise ConfigError("sequence.kind", f"expected one of {SEQUENCE_KINDS}, got {kind!r}")
    default_n = 0 if kind == "ramsey" else 1
    n = _get(seq, "n", "sequence", int, default=default_n)
    tau = _get(seq, "tau_s", "sequence", float, default=0.0)
    delta = _frequency(seq, "delta", "sequence")
    return SequenceSpec(kind, n, tau=tau, delta=delta)


def _parse_time_grid(doc: dict, sequence: SequenceSpec) -> tuple[float, ...]:
    if "time_grid_s" not in doc:
        return ()
    grid = doc["time_grid_s"]
    if isinstance(grid, list):
        for i, item in enumerate(grid):
            if isinstance(item, bool) or not isinstance(item, (int, float)):
                raise ConfigError(f"time_grid_s[{i}]", f"expected a number, got {item!r}")
        return tuple(float(x) for x in grid)
    if not isinstance(grid, dict):
        raise ConfigError("time_grid_s", "expected a list of seconds or a grid object")
    if "half_span_s" in grid:
        _check_keys(grid, {"half_span_s", "points"}, "time_grid_s")
        half = _get(grid, "half_span_s", "time_grid_s", float, required=True)
        points = _get(grid, "points", "time_grid_s", int, required=True)
        center = sequence.echo_time
        return tuple(center + np.linspace(-half, half, points))
    _check_keys(grid, {"start_s", "stop_s", "points"}, "time_grid_s")
    start = _get(grid, "start_s", "time_grid_s", float, required=True)
    stop = _get(grid, "stop_s", "time_grid_s", float, required=True)
    points = _get(grid, "points", "time_grid_s", int, required=True)
    return tuple(np.linspace(start, stop, points))


def _parse_inhomogeneous(doc: dict) -> LightShiftDistribution | None:
    if "inhomogeneous" not in doc:
        return None
    section = _get(doc, "inhomogeneous", "", dict, required=True)
    _check_keys(section, {"delta0", "t2_star_s", "eta_s"}, "inhomogeneous")
    delta0 = _frequency(section, "delta0", "inhomogeneous")
    has_t2 = "t2_star_s" in section
    has_eta = "eta_s" in section
    if has_t2 == has_eta:
        raise ConfigError("inhomogeneous", "give exactly one of t2_star_s or eta_s")
    if has_t2:
        t2_star = _get(section, "t2_star_s", "inhomogeneous", float, required=True)
        return LightShiftDistribution.from_t2_star(t2_star, delta0=delta0)
    eta = _get(section, "eta_s", "inhomogeneous", float, required=True)
    return LightShiftDistribution(delta0=delta0, eta=eta)


def _parse_homogeneous(doc: dict, sequence: SequenceSpec) -> HomogeneousNoiseSpec | None:
    if "homogeneous" not in doc:
        return None
    section = _get(doc, "homogeneous", "", dict, required=True)
    _check_keys(section, {"sigma_sig", "sigmas"}, "homogeneous")
    has_total = "sigma_sig" in section
    has_list = "sigmas" in section
    if has_total == has_list:
        raise ConfigError("homogeneous", "give exactly one of sigma_sig or sigmas")
    if has_total:
        sigma_sig = _frequency(section, "sigma_sig", "homogeneous", required=True)
        if sequence.n < 1:
            raise ConfigError("homogeneous.sigma_sig", "needs a sequence with n >= 1")
        return HomogeneousNoiseSpec.from_sigma_sig(sigma_sig, sequence.n)
    sigmas = section["sigmas"]
    if not isinstance(sigmas, list) or not sigmas:
        raise ConfigError("homogeneous.sigmas", "expected a non-empty list of frequencies")
    values = [
        _frequency({"s": item}, "s", f"homogeneous.sigmas[{i}]", required=True)
        for i, item in enumerate(sigmas)
    ]
    return HomogeneousNoiseSpec(np.array(values))


def build_experiment(doc: dict) -> ExperimentConfig:
    """Validate a config document and assemble the experiment description."""
    _check_keys(doc, _TOP_KEYS, "")
    sequence = _parse_sequence(doc)
    metadata = _get(doc, "metadata", "", dict, default={})
    return ExperimentConfig(
        sequence=sequence,
        inhomogeneous=_parse_inhomogeneous(doc),
        homogeneous=_parse_homogeneous(doc, sequence),
        cycles_per_point=_get(doc, "cycles_per_point", "", int, default=100),
        noise_draws=_get(doc, "noise_draws", "", int, default=4096),
        time_grid=_parse_time_grid(doc, sequence),
        rng_seed=_get(doc, "rng_seed", "", int, default=0),
        zeeman_shift=_frequency(doc, "zeeman_shift", ""),
        contrast=_get(doc, "contrast", "", float, default=1.0),
        invert_fraction=_get(doc, "invert_fraction", "", bool, default=False),
        metadata=dict(metadata),
    )


# -------------------------------------------------------------- outputs


def _write_manifest(path, config_path, seed: int, command: str) -> None:
    with open(config_path, "rb") as handle:
        digest = hashlib.sha256(handle.read()).hexdigest()
    manifest = {
        "command": command,
        "config_sha256": digest,
        "rng_seed": seed,
        "package_version": __version__,
    }
    with open(path, "w", encoding="utf-8", newline="") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


def write_visibility_csv(path, points) -> None:
    """Figure-ready visibility table: total_time_s, visibility, visibility_err."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["total_time_s", "visibility", "visibility_err"])
        for p in points:
            writer.writerow([repr(float(p.total_time)), repr(float(p.visibility)),
                             repr(float(p.error))])


def read_visibility_csv(path):
    """Read a visibility table into WeightedPoints (weight = 1/err**2)."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError("empty visibility file") from None
        if header != ["total_time_s", "visibility", "visibility_err"]:
            raise DataFormatError(f"unexpected header {header!r}")
        times, values, errs = [], [], []
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
            times.append(t)
            values.append(v)
            errs.append(e)
    return weighted_points(times, values, yerr=np.array(errs))


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
    doc = _load_document(args.config)
    config = build_experiment(doc)
    if not config.time_grid:
        raise ConfigError("time_grid_s", "simulate needs a time grid")
    dataset = simulate_dataset(config, workers=args.workers)
    base = args.output
    dataset.write_csv(f"{base}.csv")
    with open(f"{base}.json", "w", encoding="utf-8", newline="") as handle:
        handle.write(dataset.to_json())
        handle.write("\n")
    _write_manifest(f"{base}.manifest.json", args.config, config.rng_seed, "simulate")
    seq = config.sequence
    print(f"simulated {seq.kind} (n = {seq.n}, tau = {seq.tau} s): "
          f"{len(config.time_grid)} points, {config.cycles_per_point} cycles/point, "
          f"seed {config.rng_seed} -> {base}.csv")
    return 0


_FIT_MODELS = tuple(sorted(FITTERS))


def cmd_fit(args) -> int:
    if args.model not in FITTERS:
        raise ConfigError("model", f"unknown model {args.model!r}; valid: {', '.join(_FIT_MODELS)}")
    if args.model == "visibility":
        if args.n is None:
            raise ConfigError("n", "visibility fits need --n")
        points = read_visibility_csv(args.data)
        result = fit_visibility_decay(points, n=args.n)
    else:
        dataset = FringeDataset.read_csv(args.data)
        points = dataset.points()
        if args.model in ("rabi", "t1"):
            result = FITTERS[args.model](points)
        else:
            kwargs = {}
            if args.fit_t2_star:
                kwargs["t2_star"] = None
            elif args.t2_star_s is not None:
                kwargs["t2_star"] = args.t2_star_s
            if args.model == "ramsey":
                result = FITTERS["ramsey"](points, **kwargs)
            else:
                if args.tau_s is None:
                    raise ConfigError("tau_s", f"{args.model} fits need --tau-s")
                if args.model == "cpmg_fringe":
                    if args.n is None:
                        raise ConfigError("n", "cpmg_fringe fits need --n")
                    kwargs["n"] = args.n
                result = FITTERS[args.model](points, tau=args.tau_s, **kwargs)
    _print_fit_result(result)
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as handle:
            handle.write(result.to_json())
            handle.write("\n")
    if args.strict and not result.converged:
        print("fit did not converge (--strict)", file=sys.stderr)
        return 4
    return 0


def _parse_sweep_section(doc: dict) -> dict:
    section = _get(doc, "sweep", "", dict, default={})
    _check_keys(section, {"tau_points", "span_t2_prime", "points_per_fringe", "rows"},
                "sweep")
    span = section.get("span_t2_prime", [0.15, 1.1])
    if (not isinstance(span, list) or len(span) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in span)):
        raise ConfigError("sweep.span_t2_prime", "expected [low, high] multiples of T2'")
    rows = _get(section, "rows", "sweep", dict, default={})
    parsed_rows = {}
    for key, row in rows.items():
        where = f"sweep.rows.{key}"
        try:
            n = int(key)
        except ValueError:
            raise ConfigError(where, "row keys must be pulse numbers") from None
        if not isinstance(row, dict):
            raise ConfigError(where, "expected an object")
        _check_keys(row, {"sigma_sig", "contrast"}, where)
        parsed_rows[n] = {
            "sigma_sig": _frequency(row, "sigma_sig", where, required=True),
            "contrast": _get(row, "contrast", where, float, default=1.0),
        }
    return {
        "tau_points": _get(section, "tau_points", "sweep", int, default=10),
        "span": (float(span[0]), float(span[1])),
        "points_per_fringe": _get(section, "points_per_fringe", "sweep", int, default=31),
        "rows": parsed_rows,
    }


def cmd_sweep_n(args) -> int:
    if not (os.path.isdir(args.outdir) and os.access(args.outdir, os.W_OK | os.X_OK)):
        raise ConfigError("outdir", f"{args.outdir!r} is not a writable directory")
    doc = _load_document(args.config)
    base_config = build_experiment(doc)
    sweep = _parse_sweep_section(doc)
    n_list = args.n
    if not n_list:
        raise ConfigError("n", "sweep-n needs a non-empty pulse-number list")
    if base_config.homogeneous is None and not sweep["rows"]:
        raise ConfigError("homogeneous", "sweep-n needs homogeneous noise or sweep.rows overrides")
    default_sigma = (base_config.homogeneous.sigma_sig
                     if base_config.homogeneous is not None else None)

    summary = []
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
        predicted = t2_prime(n, sigma_sig)
        taus = predicted * np.linspace(lo, hi, sweep["tau_points"]) / (2 * n)
        points = scan_visibility(config, taus,
                                 points_per_fringe=sweep["points_per_fringe"],
                                 workers=args.workers)
        write_visibility_csv(f"{args.outdir}/visibility_n{n}.csv", points)
        usable = [p for p in points if p.ok]
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
    with open(f"{args.outdir}/summary.json", "w", encoding="utf-8", newline="") as handle:
        json.dump({"rows": summary}, handle, indent=2, sort_keys=True)
        handle.write("\n")
    _write_manifest(f"{args.outdir}/sweep.manifest.json", args.config,
                    base_config.rng_seed, "sweep-n")
    return 0


# ----------------------------------------------------------------- main


def _parse_n_list(raw: str) -> list[int]:
    try:
        return [int(chunk) for chunk in raw.split(",") if chunk.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {raw!r}") from None


def _build_parser() -> argparse.ArgumentParser:
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
    sim.add_argument("--workers", type=int, default=1, help="parallel workers over grid points")
    sim.set_defaults(func=cmd_simulate)

    fit = sub.add_parser("fit", help="fit a dataset CSV with a named model")
    fit.add_argument("--data", required=True, help="dataset CSV path")
    fit.add_argument("--model", required=True,
                     help=f"one of: {', '.join(_FIT_MODELS)}")
    fit.add_argument("--n", type=int, default=None, help="pulse number (cpmg/visibility)")
    fit.add_argument("--tau-s", type=float, default=None, help="pulse spacing in seconds")
    fit.add_argument("--t2-star-s", type=float, default=None,
                     help="hold the envelope time fixed at this value (seconds)")
    fit.add_argument("--fit-t2-star", action="store_true", help="co-fit the envelope time")
    fit.add_argument("--output", default=None, help="write the fit result JSON here")
    fit.add_argument("--strict", action="store_true", help="exit 4 when not converged")
    fit.set_defaults(func=cmd_fit)

    sweep = sub.add_parser("sweep-n", help="visibility scan and coherence-time summary per n")
    sweep.add_argument("--config", required=True, help="JSON config path")
    sweep.add_argument("--n", type=_parse_n_list, required=True,
                       help="comma-separated pulse numbers, e.g. 1,2,6")
    sweep.add_argument("--outdir", required=True, help="directory for per-n tables")
    sweep.add_argument("--workers", type=int, default=1, help="parallel workers per fringe")
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
    except (ConfigError, DataFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a data or output path that cannot be opened
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

"""The three benchmark workloads: inputs made from a seed, items, and output checks.

An item is one ``dephasim.cli.main`` call.  A run is made of whole cycles,
so every run has the same mix of items.  Each workload writes its inputs in
``prepare`` (that is the set-up the benchmark times) and checks every
output against ``oracles`` with a bound taken from the t or chi-squared
distribution at a per-check false-alarm rate of ``ALPHA``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles

#: Two-sided false-alarm probability of one check.  A run makes a few
#: hundred checks, so a correct program fails a run about once in 10^5.
ALPHA = 1e-8


def t_bound(dof: int) -> float:
    """k such that |estimate - truth| <= k * stderr fails with probability ALPHA.

    The program scales its standard errors by the residual variance of the
    fit, so the pull follows Student's t with the fit's degrees of freedom.
    """
    from scipy import stats  # only the checks need scipy; set-up does not pay for it
    return float(stats.t.isf(ALPHA / 2, max(dof, 1)))


def _seed(*keys: int) -> int:
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


@dataclass
class Item:
    argv: list[str]
    inputs: list[Path]
    outdir: Path
    expect: dict = field(default_factory=dict)

    def output_files(self) -> list[Path]:
        return [p for p in self.outdir.iterdir() if p.is_file()]


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.inputs = workdir / "inputs"
        self.outputs = workdir / "outputs"
        self.count = 0

    def prepare(self) -> None:
        raise NotImplementedError

    def cycle(self, index: int) -> list[Item]:
        raise NotImplementedError

    def _outdir(self, kind: str) -> Path:
        self.count += 1
        path = self.outputs / f"{self.count:05d}_{kind}"
        path.mkdir(parents=True)
        return path

    def succeeded(self, item: Item, code, stderr: str) -> bool:
        """Whether the call ended as it should; ``code`` is None for an uncaught exception."""
        return code == 0

    def check(self, item: Item) -> list[str]:
        """Problems with the outputs of a succeeded item; empty when correct."""
        return []

    def final_check(self, items: list[Item], run_item) -> list[str]:
        return []


# ------------------------------------------------------------- cpmg_sweep

#: The paper's table: n -> (C0, sigma_sig in rad/s).
TABLE_ROWS = {1: (0.687, 27.6), 2: (0.721, 42.4), 3: (0.749, 53.5),
              4: (0.666, 57.4), 5: (0.652, 67.5), 6: (0.602, 55.7)}
SWEEP_CONFIGS = 16
FRINGE_PARAMS = 3      # visibility, delta_prime, phase
FRINGE_POINTS = 31
TAU_POINTS = 9


class CpmgSweep(Workload):
    name = "cpmg_sweep"

    def prepare(self) -> None:
        self.inputs.mkdir(parents=True)
        rows = {str(n): {"sigma_sig": {"value": s, "angular": True}, "contrast": c}
                for n, (c, s) in TABLE_ROWS.items()}
        for c in range(SWEEP_CONFIGS):
            _write_json(self.inputs / f"sweep_{c}.json", {
                "sequence": {"kind": "cpmg", "n": 1, "tau_s": 1e-3,
                             "delta": {"value": 1500.0, "angular": False}},
                "cycles_per_point": 100,
                "noise_draws": 4000,
                "rng_seed": _seed(self.seed, c),
                "sweep": {"tau_points": TAU_POINTS, "span_t2_prime": [0.15, 1.1],
                          "points_per_fringe": FRINGE_POINTS, "rows": rows},
            })

    def cycle(self, index: int) -> list[Item]:
        config = self.inputs / f"sweep_{index % SWEEP_CONFIGS}.json"
        items = []
        for n in TABLE_ROWS:
            out = self._outdir(f"n{n}")
            items.append(Item(["sweep-n", "--config", str(config), "--n", str(n),
                               "--outdir", str(out), "--workers", "1"],
                              [config], out, {"n": n}))
        return items

    def check(self, item: Item) -> list[str]:
        n = item.expect["n"]
        c0, sigma = TABLE_ROWS[n]
        problems = []
        with open(item.outdir / f"visibility_n{n}.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        if len(rows) != TAU_POINTS:
            problems.append(f"n={n}: {len(rows)} visibility rows, expected {TAU_POINTS}")
        k_point = t_bound(FRINGE_POINTS - FRINGE_PARAMS)
        for row in rows:
            t, v, err = (float(row[key]) for key in
                         ("total_time_s", "visibility", "visibility_err"))
            truth = float(oracles.cpmg_visibility(t, c0, sigma, n))
            if not (err > 0 and abs(v - truth) <= k_point * err):
                problems.append(f"n={n} t={t:.4g}: visibility {v:.4g} +- {err:.2g} "
                                f"vs closed form {truth:.4g} (bound {k_point:.1f} SE)")
        summary = json.loads((item.outdir / "summary.json").read_text())["rows"]
        if len(summary) != 1:
            return problems + [f"n={n}: summary has {len(summary)} rows"]
        fit = summary[0]
        k_row = t_bound(TAU_POINTS - 2)
        if not (fit["converged"] and fit["sigma_sig_err"] > 0
                and abs(fit["sigma_sig"] - sigma) <= k_row * fit["sigma_sig_err"]):
            problems.append(f"n={n}: sigma_sig {fit['sigma_sig']:.4g} +- "
                            f"{fit['sigma_sig_err']:.2g} vs {sigma} (bound {k_row:.1f} SE)")
        return problems


# -------------------------------------------------------- ramsey_simulate

RAMSEY_CONFIGS = 128
RAMSEY = {"delta_hz": 8600.0, "t2_star_s": 0.0014, "cycles": 200, "draws": 20000,
          "points": 120, "start_s": 5e-05, "stop_s": 0.003, "contrast": 0.9}
T2_STAR_PER_ETA = 0.97
#: Workers of a timed item.  With two workers on a shared two-core host the
#: item time follows how much of the second core the host grants: CPU time
#: per item stays within 2% from run to run while wall time per item swings
#: by 50%.  So the timed items are serial, and the thread pool is exercised
#: by the byte-identity rerun at two workers in ``final_check``.
TIMED_WORKERS = 1


class RamseySimulate(Workload):
    name = "ramsey_simulate"

    def prepare(self) -> None:
        self.inputs.mkdir(parents=True)
        for c in range(RAMSEY_CONFIGS):
            _write_json(self.inputs / f"ramsey_{c}.json", self._config(_seed(self.seed, c)))

    @staticmethod
    def _config(rng_seed: int) -> dict:
        return {
            "sequence": {"kind": "ramsey", "n": 0,
                         "delta": {"value": RAMSEY["delta_hz"], "angular": False}},
            "inhomogeneous": {"t2_star_s": RAMSEY["t2_star_s"]},
            "cycles_per_point": RAMSEY["cycles"],
            "noise_draws": RAMSEY["draws"],
            "time_grid_s": {"start_s": RAMSEY["start_s"], "stop_s": RAMSEY["stop_s"],
                            "points": RAMSEY["points"]},
            "rng_seed": rng_seed,
            "contrast": RAMSEY["contrast"],
        }

    def cycle(self, index: int) -> list[Item]:
        config = self.inputs / f"ramsey_{index % RAMSEY_CONFIGS}.json"
        out = self._outdir("ramsey")
        return [Item(["simulate", "--config", str(config), "--output", str(out / "run"),
                      "--workers", str(TIMED_WORKERS)], [config], out)]

    def check(self, item: Item) -> list[str]:
        with open(item.outdir / "run.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        t = np.array([float(r["time_s"]) for r in rows])
        k = np.array([int(r["successes"]) for r in rows])
        trials = {int(r["trials"]) for r in rows}
        expected_t = np.linspace(RAMSEY["start_s"], RAMSEY["stop_s"], RAMSEY["points"])
        if len(rows) != RAMSEY["points"] or trials != {RAMSEY["cycles"]} \
                or not np.allclose(t, expected_t, rtol=0, atol=1e-15):
            return [f"{item.outdir.name}: unexpected grid or trials"]
        mean, var = oracles.ramsey_count_moments(
            t, 2 * math.pi * RAMSEY["delta_hz"], 0.0,
            RAMSEY["t2_star_s"] / T2_STAR_PER_ETA, RAMSEY["contrast"],
            RAMSEY["cycles"], RAMSEY["draws"])
        chi2 = float(np.sum((k - mean) ** 2 / var))
        from scipy import stats
        limit = float(stats.chi2.isf(ALPHA, len(rows)))
        if chi2 > limit:
            return [f"{item.outdir.name}: counts chi2 {chi2:.1f} over {len(rows)} points "
                    f"exceeds {limit:.1f}"]
        return []

    def final_check(self, items: list[Item], run_item) -> list[str]:
        """The first item's CSV must be byte-identical at --workers 2."""
        first = items[0]
        out = self._outdir("workers2")
        argv = first.argv[:first.argv.index("--output") + 1] + [str(out / "run"),
                                                                "--workers", "2"]
        code, _ = run_item(argv)
        if code != 0:
            return [f"--workers 2 rerun exited with {code}"]
        if (out / "run.csv").read_bytes() != (first.outdir / "run.csv").read_bytes():
            return [f"CSV differs between --workers {TIMED_WORKERS} and --workers 2"]
        return []


# ------------------------------------------------------------ fit_records

RECORD_SETS = 4
RECORD_POINTS = 1000
#: Trials per record point.  The program weights each point by its observed
#: fraction, which biases fitted amplitudes upward by about +1.1 (Ramsey)
#: to +4 (Rabi) standard errors at 200 trials; at 2000 trials it is at most
#: about 1.5 SE, so the 5.8 SE checks below seldom fire on a correct fit.
RECORD_TRIALS = 2000
#: Pulse number and spacing of the CPMG fringe records.
CPMG_N, CPMG_TAU = 6, 1e-3
#: Rows of the two malformed records (1-based, as the program numbers them).
BAD_ROW = 17


def _ramsey_record(rng):
    truth = {"visibility": rng.uniform(0.7, 0.9),
             "delta_prime": 2 * math.pi * rng.uniform(7e3, 10e3),
             "phase": rng.uniform(-0.5, 0.5), "t2_star": rng.uniform(1.2e-3, 1.6e-3)}
    t = np.linspace(5e-5, 3e-3, RECORD_POINTS)
    return t, oracles.ramsey_fraction(t, **truth), truth, ["--fit-t2-star"]


def _cpmg_fringe_record(rng):
    """A fringe read out around the echo at 2n*tau after the last of six pulses."""
    truth = {"visibility": rng.uniform(0.45, 0.6),
             "delta_prime": 2 * math.pi * rng.uniform(1.2e3, 1.8e3),
             "phase": rng.uniform(-0.5, 0.5)}
    t = np.linspace((2 * CPMG_N - 0.8) * CPMG_TAU, (2 * CPMG_N + 2) * CPMG_TAU, RECORD_POINTS)
    fraction = oracles.cpmg_fringe_fraction(t, CPMG_N, CPMG_TAU, **truth)
    return t, fraction, truth, ["--n", str(CPMG_N), "--tau-s", repr(CPMG_TAU)]


def _rabi_record(rng):
    truth = {"omega_r": 2 * math.pi * rng.uniform(20e3, 30e3),
             "contrast": rng.uniform(0.38, 0.45), "offset": rng.uniform(0.48, 0.52)}
    t = np.linspace(0.0, 2e-4, RECORD_POINTS)
    return t, oracles.rabi_fraction(t, **truth), truth, []


def _t1_record(rng):
    truth = {"t1": rng.uniform(0.7, 0.95), "amplitude": rng.uniform(0.85, 0.92),
             "equilibrium": 0.03}
    t = np.linspace(0.0, 2.0, RECORD_POINTS)
    return t, oracles.t1_fraction(t, **truth), truth, []


#: Records of one cycle: fit model -> generator.  ``t1`` is the one model
#: whose fit skips ``dominant_frequency``.
RECORD_MODELS = {"ramsey": _ramsey_record, "cpmg_fringe": _cpmg_fringe_record,
                 "rabi": _rabi_record, "t1": _t1_record}


def _write_record(path: Path, t, successes, trials) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["time_s", "fraction", "trials", "successes"])
        for ti, k, n in zip(t, successes, trials):
            frac = k / n if n else 0.0
            writer.writerow([repr(float(ti)), repr(float(frac)), int(n), int(k)])


class FitRecords(Workload):
    name = "fit_records"

    def prepare(self) -> None:
        self.inputs.mkdir(parents=True)
        self.truths = {}
        trials = np.full(RECORD_POINTS, RECORD_TRIALS)
        for s in range(RECORD_SETS):
            for m, (model, make) in enumerate(RECORD_MODELS.items()):
                rng = np.random.default_rng(_seed(self.seed, s, m))
                t, p, truth, extra = make(rng)
                path = self.inputs / f"{model}_{s}.csv"
                _write_record(path, t, rng.binomial(trials, p), trials)
                self.truths[path.name] = (truth, extra)
        # The malformed records do not depend on the seed: each fails the same
        # way in every run until the program rejects it with exit code 2.
        rng = np.random.default_rng(0)
        t, p, _, _ = _ramsey_record(rng)
        successes, counts = rng.binomial(trials, p), trials.copy()
        successes[BAD_ROW - 1] = counts[BAD_ROW - 1] = 0
        _write_record(self.inputs / "bad_trials0.csv", t, successes, counts)
        successes, t = rng.binomial(trials, p), t.copy()
        t[BAD_ROW - 1] = math.nan
        _write_record(self.inputs / "bad_nan_time.csv", t, successes, trials)

    def cycle(self, index: int) -> list[Item]:
        items = []
        for model in RECORD_MODELS:
            data = self.inputs / f"{model}_{index % RECORD_SETS}.csv"
            truth, extra = self.truths[data.name]
            out = self._outdir(model)
            items.append(Item(["fit", "--data", str(data), "--model", model, *extra,
                               "--output", str(out / "fit.json")],
                              [data], out, {"truth": truth}))
        for bad in ("bad_trials0", "bad_nan_time"):
            data = self.inputs / f"{bad}.csv"
            out = self._outdir(bad)
            items.append(Item(["fit", "--data", str(data), "--model", "ramsey",
                               "--fit-t2-star", "--output", str(out / "fit.json")],
                              [data], out, {"bad_row": BAD_ROW}))
        return items

    def succeeded(self, item: Item, code, stderr: str) -> bool:
        if "bad_row" in item.expect:
            return code == 2 and f"row {item.expect['bad_row']}" in stderr
        return code == 0

    def check(self, item: Item) -> list[str]:
        if "bad_row" in item.expect:
            return []
        result = json.loads((item.outdir / "fit.json").read_text())
        k = t_bound(result["n_points"] - len(item.expect["truth"]))
        problems = [] if result["converged"] else [f"{item.outdir.name}: not converged"]
        for name, truth in item.expect["truth"].items():
            value, err = result["params"][name]["value"], result["params"][name]["stderr"]
            diff = (oracles.wrapped_difference(value, truth) if name == "phase"
                    else value - truth)
            if not (err > 0 and abs(diff) <= k * err):
                problems.append(f"{item.outdir.name}: {name} {value:.6g} +- {err:.2g} vs "
                                f"{truth:.6g} (bound {k:.1f} SE)")
        return problems


WORKLOADS = {w.name: w for w in (CpmgSweep, RamseySimulate, FitRecords)}

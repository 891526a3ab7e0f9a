"""Ensemble simulation of the pulsed-interferometry experiment.

Each experimental cycle draws one quasi-static noise realization: a
light-shift detuning sample (inhomogeneous broadening across the atom
ensemble) and the detuning jumps across the half turns (homogeneous noise
within a sequence).  The readout is w = (-1)**n * cos(Phi) with the phase of
``bloch.accumulated_phase`` at the effective detuning

    delta_eff = delta_set - zeeman_shift - delta_lightshift.

The jumps enter Phi only through sum_i c_i * jump_i, a single Gaussian, so
each cycle draws that sum directly (``noise.sample_jump_phase``) instead of
one jump per pulse.  The mean of w over the draws, times the fringe
contrast, goes through the readout map (``analytic.fraction_from_w`` without
its range check, which a mean of cosines cannot fail), and finite measurement
statistics are emulated by drawing successes from a binomial with
``cycles_per_point`` trials.  A visibility scan of an ``invert_fraction``
config fits the complementary counts, the same fringe in the default readout.

Reproducibility contract: a dataset is one random stream,
``np.random.default_rng(rng_seed)``.  The noise of each grid point is drawn
from it in grid order, then all success counts in one binomial call, so the
same config and seed give bit-identical datasets on every run.  A visibility
scan keys one such stream per pulse spacing, from ``(rng_seed, row index)``.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .analytic import _readout
from .bloch import SequenceSpec, accumulated_phase
from .errors import DataFormatError, DomainError, FitError
from .fit import fit_fringe, points_from_counts
from .noise import (
    T2_STAR_PER_ETA,
    HomogeneousNoiseSpec,
    LightShiftDistribution,
    lightshift_sample,
    sample_jump_phase,
)

__all__ = [
    "ExperimentConfig",
    "FringeDataset",
    "VisibilityPoint",
    "ensemble_probability",
    "simulate_dataset",
    "binomial_dataset",
    "scan_visibility",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to synthesize one dataset.

    Parameters
    ----------
    sequence : SequenceSpec
        Pulse geometry and set detuning (rad/s).
    inhomogeneous : LightShiftDistribution, optional
        Per-cycle light-shift draw; None disables inhomogeneous broadening.
    homogeneous : HomogeneousNoiseSpec, optional
        Per-cycle detuning-jump draw; None disables homogeneous noise.
    cycles_per_point : int
        Binomial trials per time-grid point (measurement statistics).
    noise_draws : int
        Noise realizations averaged per probability estimate; controls
        oracle accuracy, independent of cycles_per_point.
    time_grid : tuple of float
        Readout times in seconds, strictly increasing.
    rng_seed : int
        Master seed; all randomness derives from it.
    zeeman_shift : float
        Constant quadratic Zeeman detuning (rad/s) subtracted from the set
        detuning.
    contrast : float
        Phenomenological fringe contrast in [0, 1] (imperfect pulses and
        state preparation); scales w before the fraction map.
    invert_fraction : bool
        Use the flipped readout convention (1 + w)/2.
    metadata : dict
        Informational trap parameters (depth, wavelength, temperature, bias
        field); never interpreted.
    """

    sequence: SequenceSpec
    inhomogeneous: LightShiftDistribution | None = None
    homogeneous: HomogeneousNoiseSpec | None = None
    cycles_per_point: int = 100
    noise_draws: int = 4096
    time_grid: tuple[float, ...] = ()
    rng_seed: int = 0
    zeeman_shift: float = 0.0
    contrast: float = 1.0
    invert_fraction: bool = False
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.cycles_per_point < 1:
            raise DomainError(f"cycles_per_point must be >= 1, got {self.cycles_per_point}")
        if self.noise_draws < 1:
            raise DomainError(f"noise_draws must be >= 1, got {self.noise_draws}")
        if not 0.0 <= self.contrast <= 1.0:
            raise DomainError(f"contrast must lie in [0, 1], got {self.contrast}")
        grid = tuple(float(t) for t in self.time_grid)
        if any(later <= earlier for earlier, later in zip(grid, grid[1:])):
            raise DomainError("time grid must be strictly increasing")
        object.__setattr__(self, "time_grid", grid)
        if self.homogeneous is not None and self.sequence.n >= 1:
            if self.homogeneous.sigmas.shape[0] != self.sequence.n:
                raise DomainError(
                    f"homogeneous noise describes {self.homogeneous.sigmas.shape[0]} "
                    f"intervals but the sequence has n = {self.sequence.n}"
                )


def _column(values, name: str, integral: bool) -> np.ndarray:
    """One dataset column as float64 (or int64 when ``integral``).

    Every cell must be a real number (not a bool or a string) and, when
    ``integral``, a whole number within int64 range; otherwise a
    DataFormatError names the first offending 1-based row.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        arr = np.atleast_1d(values)
    else:
        # Cell by cell on the original objects: np.asarray([1, True]) would
        # already have turned the bool into 1.
        cells = np.atleast_1d(np.asarray(values, dtype=object)).ravel().tolist()
        real = [isinstance(v, numbers.Real) and not isinstance(v, (bool, np.bool_))
                for v in cells]
        if not all(real):
            row = real.index(False)
            raise DataFormatError(f"{name} must be a number; got {cells[row]!r}", row=row + 1)
        arr = np.atleast_1d(np.asarray(values, dtype=float))
    if not integral:
        return arr.astype(float)
    if arr.dtype.kind == "f":
        whole = (np.floor(arr) == arr) & (np.abs(arr) < 2.0**63)
        if not np.all(whole):
            row = int(np.argmin(whole))
            raise DataFormatError(f"{name} must be an integer; got {float(arr.flat[row])!r}",
                                  row=row + 1)
    return arr.astype(np.int64)


@dataclass(frozen=True)
class FringeDataset:
    """Rows of (time, successes, trials) emulating a measured fringe."""

    times: np.ndarray
    successes: np.ndarray
    trials: np.ndarray

    def __post_init__(self):
        times = _column(self.times, "time", integral=False)
        successes = _column(self.successes, "successes", integral=True)
        trials = _column(self.trials, "trials", integral=True)
        if not times.shape == successes.shape == trials.shape:
            raise DataFormatError("times, successes and trials must have equal length")
        rules = (
            ("time must be finite", ~np.isfinite(times)),
            ("trials must be >= 1", trials < 1),
            ("successes must satisfy 0 <= successes <= trials",
             (successes < 0) | (successes > trials)),
        )
        bad = np.any([mask for _, mask in rules], axis=0)
        if np.any(bad):
            i = int(np.argmax(bad))
            rule = next(rule for rule, mask in rules if mask[i])
            raise DataFormatError(f"{rule}; got time {times[i]}, successes {successes[i]}, "
                                  f"trials {trials[i]}", row=i + 1)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "successes", successes)
        object.__setattr__(self, "trials", trials)

    @property
    def fractions(self) -> np.ndarray:
        return self.successes / self.trials

    def points(self):
        """FitData with inverse binomial-variance weights, for fitting."""
        return points_from_counts(self.times, self.successes, self.trials)

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["time_s", "fraction", "trials", "successes"])
            for t, frac, trials, successes in zip(
                self.times, self.fractions, self.trials, self.successes
            ):
                writer.writerow([repr(float(t)), repr(float(frac)), int(trials), int(successes)])

    @staticmethod
    def read_csv(path) -> "FringeDataset":
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
        except (UnicodeDecodeError, csv.Error) as exc:  # not UTF-8, or a field too long
            raise DataFormatError(f"{path}: {exc}") from None
        dataset = FringeDataset(np.array(times), np.array(successes), np.array(trials))
        mismatch = ~(np.abs(np.array(fractions) - dataset.fractions) <= 1e-9)
        if np.any(mismatch):
            i = int(np.argmax(mismatch))
            raise DataFormatError(f"fraction {fractions[i]} does not equal successes/trials",
                                  row=i + 1)
        return dataset

    def to_json(self) -> str:
        rows = [
            {"time_s": float(t), "fraction": float(f), "trials": int(n), "successes": int(k)}
            for t, f, n, k in zip(self.times, self.fractions, self.trials, self.successes)
        ]
        return json.dumps({"rows": rows}, indent=2)

    @staticmethod
    def from_json(text: str) -> "FringeDataset":
        try:
            rows = json.loads(text)["rows"]
            columns = [[r[key] for r in rows] for key in ("time_s", "successes", "trials")]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise DataFormatError(f"not a dataset JSON document: {exc}") from None
        return FringeDataset(*columns)


# ---------------------------------------------------------- noise averages


def ensemble_probability(config: ExperimentConfig, t: float, rng, draws: int | None = None) -> float:
    """Ensemble-averaged success probability at readout time t.

    Vectorizes ``draws`` independent noise realizations (default
    ``config.noise_draws``); with no noise configured a single deterministic
    evaluation is taken.
    """
    seq = config.sequence
    if config.inhomogeneous is None and config.homogeneous is None:
        draws = 1
    elif draws is None:
        draws = config.noise_draws
    delta_eff = seq.delta - config.zeeman_shift
    if config.inhomogeneous is not None:
        delta_eff = delta_eff - lightshift_sample(config.inhomogeneous, rng, size=draws)
    phase = accumulated_phase(delta_eff, seq.tau, seq.n, t)
    if config.homogeneous is not None and seq.n >= 1:
        phase = phase + sample_jump_phase(config.homogeneous, seq.tau, t, rng, size=draws)
    w = (-1.0) ** seq.n * np.mean(np.cos(phase))  # |w| <= 1: no range check needed
    return _readout(config.contrast * w, config.invert_fraction)


# ------------------------------------------------------------- datasets


def simulate_dataset(config: ExperimentConfig) -> FringeDataset:
    """Synthesize a binomially sampled dataset over the config's time grid.

    One generator seeded by ``config.rng_seed`` draws the noise of every grid
    point in grid order, then every success count in one binomial call.
    """
    if not config.time_grid:
        raise DomainError("config has an empty time grid")
    rng = np.random.default_rng(config.rng_seed)
    p_hat = [ensemble_probability(config, t, rng) for t in config.time_grid]
    return binomial_dataset(config.time_grid, p_hat, config.cycles_per_point, rng)


def binomial_dataset(times, probabilities, cycles: int, rng) -> FringeDataset:
    """Binomially sample known probabilities: the measurement-emulation step alone."""
    times = np.asarray(times, dtype=float)
    p = np.asarray(probabilities, dtype=float)
    if not np.all((p >= 0.0) & (p <= 1.0)):  # NaN too: a phase that overflowed
        raise DomainError("probabilities must lie in [0, 1]")
    successes = rng.binomial(int(cycles), p)
    return FringeDataset(times, successes, np.full(times.shape, int(cycles), dtype=np.int64))


# ------------------------------------------------------------- visibility


@dataclass(frozen=True)
class VisibilityPoint:
    """One fitted fringe of a visibility scan (total time = 2*n*tau)."""

    total_time: float
    visibility: float
    error: float
    ok: bool
    message: str = ""


_CARRIER_PERIODS = 3.0  # fringe periods a scan covers, when 0.95 tau on each side allows


def scan_visibility(
    config: ExperimentConfig,
    tau_grid,
    points_per_fringe: int = 31,
) -> list[VisibilityPoint]:
    """Two-stage visibility extraction over a grid of pulse spacings.

    For each tau, the readout pulse time is scanned symmetrically around the
    echo time 2*n*tau (covering ``_CARRIER_PERIODS`` fringe periods), a
    dataset is simulated, and its fitted visibility recorded.  Fit failures
    are reported per point (``ok = False``), never raised.
    """
    seq = config.sequence
    if seq.n < 1:
        raise DomainError("visibility scans need at least one refocusing pulse")
    carrier = seq.delta - config.zeeman_shift
    t2_star = math.inf
    if config.inhomogeneous is not None:
        carrier -= config.inhomogeneous.delta0
        t2_star = T2_STAR_PER_ETA * config.inhomogeneous.eta
    if abs(carrier) < 1e-9:
        raise DomainError(
            "visibility scan needs a nonzero effective carrier detuning to produce fringes"
        )
    points = []
    for j, tau in enumerate(tau_grid):
        tau = float(tau)
        half_span = min(_CARRIER_PERIODS * math.pi / abs(carrier), 0.95 * tau)
        echo_time = 2 * seq.n * tau
        grid = echo_time + np.linspace(-half_span, half_span, points_per_fringe)
        sub_seed = int(np.random.SeedSequence(
            entropy=config.rng_seed, spawn_key=(2, j)
        ).generate_state(1)[0])
        sub_config = replace(
            config,
            sequence=replace(seq, tau=tau, t=None),
            time_grid=tuple(grid),
            rng_seed=sub_seed,
        )
        dataset = simulate_dataset(sub_config)
        if config.invert_fraction:  # the same fringe in the default readout: 1 - (1 + c*w)/2
            dataset = FringeDataset(dataset.times, dataset.trials - dataset.successes,
                                    dataset.trials)
        try:
            fit = fit_fringe(dataset.points(), n=seq.n, tau=tau, t2_star=t2_star)
            points.append(VisibilityPoint(
                total_time=echo_time,
                visibility=fit.params["visibility"],
                error=fit.errors["visibility"],
                ok=fit.converged,
                message="" if fit.converged else f"fit stopped: {fit.stop_reason}",
            ))
        except FitError as exc:
            points.append(VisibilityPoint(
                total_time=echo_time, visibility=math.nan, error=math.nan,
                ok=False, message=str(exc),
            ))
    return points

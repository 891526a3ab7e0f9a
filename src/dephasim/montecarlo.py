"""Ensemble simulation of the pulsed-interferometry experiment.

Each experimental cycle sees one quasi-static noise realization: a
light-shift detuning sample (inhomogeneous broadening across the atom
ensemble) and the detuning jumps across the half turns (homogeneous noise
within a sequence).  The readout is w = (-1)**n * cos(Phi) with the phase of
``bloch.accumulated_phase`` at the effective detuning

    delta_eff = delta_set - zeeman_shift - delta_lightshift,

plus S = sum_i c_i * jump_i from the jumps.  S is one zero-mean Gaussian of
variance s**2 = sum_i c_i**2 * sigma_i**2, independent of the light shift, so
E[cos(phi + S) | phi] = cos(phi) * exp(-s**2/2) exactly (the filter-function
factor of a pulse train).  The light shift is drawn; the jump channel is not:
the mean of cos(phi) over the light-shift draws is multiplied by that factor.
This conditional expectation has the same mean as drawing S per cycle and no
larger variance.  The mean w, times the fringe contrast, goes through the
readout map (``analytic.fraction_from_w`` without its range check, which a
mean of cosines cannot fail), and finite measurement statistics are emulated
by drawing successes from a binomial with ``cycles_per_point`` trials.  A
visibility scan of an ``invert_fraction`` config fits the complementary
counts, the same fringe in the default readout.

Kernel precision: over light-shift draws, each phase is reduced to [-pi, pi]
in float64 and its cosine taken in float32 (numpy's SIMD cosine), then the
cosines are averaged in float64.  Per draw, and so in the mean, this is within
3e-7 of the float64 cosine for |Phi| <= 2**30 (the Monte Carlo standard error
of the mean at a dephased point is about 5e-3 at 20 000 draws); a batch with a
larger or non-finite phase takes the float64 cosine.  A config without
inhomogeneous noise is one deterministic phase per time, exact float64, and
a dataset evaluates its whole grid in one array call.

Reproducibility contract: a dataset is one random stream,
``np.random.default_rng(rng_seed)``.  The light-shift draws of each grid point
(still drawn point by point) come from it in grid order, then all success counts
in one binomial call: the same config and seed give bit-identical datasets.
A visibility scan keys one such stream per pulse spacing, from
``(rng_seed, row index)``.

Sampling is written once, as ``_simulate``: a (B, N) stack of time grids and
one stream per row give the (B, N) success counts, from one
``ensemble_probability`` call (with a light shift, row b draws point by point
from stream b, rows in order) and one binomial call per row from its stream.
A dataset is a stack of one row; a visibility scan has one row per pulse
spacing (a (B, 1) column in its sequence) and fits all its rows in one stack.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import numbers
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .analytic import _gaussian_factor, _readout
from .bloch import SequenceSpec, accumulated_phase, jump_weights
from .errors import DataFormatError, DomainError, FitError
from .fit import (  # noqa: F401 (fit_fringe re-exported)
    _fit_fringes, binomial_weights, fit_fringe, points_from_counts,
)
from .noise import (
    T2_STAR_PER_ETA,
    HomogeneousNoiseSpec,
    LightShiftDistribution,
    lightshift_sample,
)

__all__ = [
    "ExperimentConfig",
    "FringeDataset",
    "VisibilityPoint",
    "ensemble_probability",
    "simulate_dataset",
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
        Light-shift draws averaged per probability estimate (the jump
        channel is averaged exactly); controls oracle accuracy,
        independent of cycles_per_point.
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
        _check_increasing(np.array(grid))
        object.__setattr__(self, "time_grid", grid)
        if self.homogeneous is not None and self.sequence.n >= 1:
            if self.homogeneous.sigmas.shape[0] != self.sequence.n:
                raise DomainError(
                    f"homogeneous noise describes {self.homogeneous.sigmas.shape[0]} "
                    f"intervals but the sequence has n = {self.sequence.n}"
                )


def _check_increasing(grid: np.ndarray) -> None:
    """The time-grid rule, for one grid or for each row of a (B, N) stack."""
    if np.any(grid[..., 1:] <= grid[..., :-1]):
        raise DomainError("time grid must be strictly increasing")


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


_DATASET_HEADER = ["time_s", "fraction", "trials", "successes"]


def _read_table(path, header: list[str], kinds: tuple, name: str, row_error=None):
    """The columns of the CSV table at ``path``, one array per ``header`` entry, of ``kinds``.

    numpy's C reader parses the body in one pass, unless it might read it otherwise
    than the row loop: a non-ASCII character (its integer parser misreads some), a
    carriage return (the row count counts newlines), U+001C..U+001F (whitespace to it,
    not to ``float`` and ``int``), a line over csv's field limit, a blank line, a value
    it refuses or warns about, or a row ``row_error(values, cells)`` rejects.  The row
    loop then reads the file with ``csv``, ``float`` and ``int`` and names the first bad row.
    """
    with open(path, "rb") as handle:  # an undecodable byte becomes non-ASCII U+FFFD
        text = handle.read().decode("utf-8", "replace")
    head = ",".join(header) + "\n"
    body, table, limit = text[len(head):], None, csv.field_size_limit()
    if (text.startswith(head) and body.isascii()
            and not any(c in body for c in "\r\x1c\x1d\x1e\x1f")
            and (len(body) <= limit or max(map(len, body.split("\n"))) <= limit)):
        with warnings.catch_warnings(), contextlib.suppress(ValueError, Warning):
            warnings.simplefilter("error")  # e.g. "input contained no data"
            table = np.loadtxt(io.StringIO(body), dtype=list(zip(header, kinds)), delimiter=",",
                               comments=None, quotechar=None, ndmin=1)
    if (table is not None and len(table) == body.count("\n") + (not body.endswith("\n"))
            and (row_error is None or not any(row_error(row, None) for row in table.tolist()))):
        return [table[column] for column in header]
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            first = next(reader, None)
            if first is None:
                raise DataFormatError(f"empty {name} file")
            if first != header:
                raise DataFormatError(f"unexpected header {first!r}")
            columns = [[] for _ in header]
            for index, row in enumerate(reader, start=1):
                if len(row) != len(header):
                    raise DataFormatError(f"expected {len(header)} columns, got {len(row)}",
                                          row=index)
                try:
                    values = [kind(cell) for kind, cell in zip(kinds, row)]
                except ValueError as exc:
                    raise DataFormatError(str(exc), row=index) from None
                if row_error is not None and (message := row_error(values, row)):
                    raise DataFormatError(message, row=index)
                for column, value in zip(columns, values):
                    column.append(value)
    except (UnicodeDecodeError, csv.Error) as exc:  # not UTF-8, or a field too long
        raise DataFormatError(f"{path}: {exc}") from None
    return [np.array(column) for column in columns]


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
            writer.writerow(_DATASET_HEADER)
            for t, frac, trials, successes in zip(
                self.times, self.fractions, self.trials, self.successes
            ):
                writer.writerow([repr(float(t)), repr(float(frac)), int(trials), int(successes)])

    @staticmethod
    def read_csv(path) -> "FringeDataset":
        """Read a dataset CSV: numpy's C reader parses it; the row loop names a malformed row."""
        times, fractions, trials, successes = _read_table(
            path, _DATASET_HEADER, (float, float, int, int), "dataset")
        dataset = FringeDataset(times, successes, trials)
        mismatch = ~(np.abs(fractions - dataset.fractions) <= 1e-9)
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


# Phases within +-2**30 rad go through the float32 cosine after reduction.
_FLOAT32_PHASE_LIMIT = 2.0**30
# 2*pi in two parts: _TWO_PI_HI has 24 significant bits, so k*_TWO_PI_HI is
# exact for the |k| < 2**28 turns below the limit, and only the small second
# product rounds.  What remains is 2*pi's own float64 rounding, |Phi|*4e-17.
_TWO_PI_HI = float(np.float32(2 * math.pi))
_TWO_PI_LO = 2 * math.pi - _TWO_PI_HI


def _mean_cos(phase: np.ndarray):
    """Mean of cos(phase) over a batch of draws, through a float32 cosine.

    Each phase is reduced in place to r = phase - 2*pi*rint(phase/(2*pi)),
    |r| <= pi, in float64; cos(r) is taken in float32 and averaged in float64.
    Per draw the error against float64 ``np.cos`` is at most 2**-23 (rounding
    r to float32) + 2 ulp (the float32 cosine) + |phase|*4e-17 (the reduction),
    below 3e-7 for |phase| <= 2**30.  An empty, non-finite or larger batch gets
    ``np.mean(np.cos(phase))``, with its value and warnings unchanged.
    """
    limit = _FLOAT32_PHASE_LIMIT
    if not (phase.size and phase.max() <= limit and phase.min() >= -limit):
        return np.mean(np.cos(phase))
    turns = phase * (1.0 / (2 * math.pi))
    np.rint(turns, out=turns)
    phase -= turns * _TWO_PI_HI
    turns *= _TWO_PI_LO
    phase -= turns
    reduced = phase.astype(np.float32)
    return np.mean(np.cos(reduced, out=reduced), dtype=np.float64)


def ensemble_probability(config: ExperimentConfig, t, rng):
    """Ensemble-averaged success probability at readout time t, or at each time of a grid t.

    Averages cos(Phi) over ``config.noise_draws`` light-shift realizations per
    time, drawn in grid order, through the float32 cosine of the float64-reduced
    phase (``_mean_cos``: within 3e-7 per draw for |Phi| <= 2**30); with no
    inhomogeneous noise the one phase per time keeps the exact float64 cosine,
    one array expression over the grid.  Homogeneous noise
    at n >= 1 multiplies that mean by the exact Gaussian average
    exp(-sum_i (c_i*sigma_i)**2 / 2), c = ``jump_weights`` (``analytic._gaussian_factor``),
    and draws nothing; a variance that overflows gives 0.  A scalar t gives a float.

    A stack of B sequences that differ only in tau (a visibility scan) is one
    call: ``config.sequence.tau`` a (B, 1) column, ``t`` a (B, N) grid and
    ``rng`` a list of B generators, row b's draws coming from ``rng[b]`` (or one
    generator, drawn from row after row).
    """
    seq = config.sequence
    delta_eff = seq.delta - config.zeeman_shift
    if config.inhomogeneous is None:  # one deterministic phase per readout time
        mean_cos = np.cos(accumulated_phase(delta_eff, seq.tau, seq.n, t))
    else:
        taus = seq.tau[:, 0] if isinstance(seq.tau, np.ndarray) else [seq.tau]
        streams = rng if isinstance(rng, list) else [rng] * len(taus)
        mean_cos = np.empty(np.shape(t))
        for row, stream, tau, times in zip(mean_cos.reshape(len(taus), -1), streams, taus,
                                           np.reshape(t, (len(taus), -1))):
            for i, point in enumerate(times):
                # No name holds the sampler's (3, draws) buffer or a draw batch, so their
                # pages are reused: holding the buffer through the cosine cost ~1.8x per point.
                row[i] = _mean_cos(accumulated_phase(
                    delta_eff - lightshift_sample(config.inhomogeneous, stream,
                                                  size=config.noise_draws),
                    tau, seq.n, point))
    if config.homogeneous is not None and seq.n >= 1:
        mean_cos = mean_cos * _gaussian_factor(jump_weights(seq.tau, seq.n, t),
                                               config.homogeneous.sigmas)
    w = (-1.0) ** seq.n * mean_cos  # |w| <= 1: no range check needed
    return _readout(config.contrast * w, config.invert_fraction)


# ------------------------------------------------------------- datasets


def _simulate(config: ExperimentConfig, grids: np.ndarray, streams: list) -> np.ndarray:
    """Success counts of a (B, N) stack of time grids, the one sampling step.

    ``config.sequence.tau`` is a number or a (B, 1) column of spacings.  Row b
    draws its light shift, then its counts in one binomial call, from ``streams[b]``.
    """
    if not grids.shape[-1]:
        raise DomainError("config has an empty time grid")
    p = ensemble_probability(config, grids, streams)
    if not np.all((p >= 0.0) & (p <= 1.0)):  # NaN too: a phase that overflowed
        raise DomainError("probabilities must lie in [0, 1]")
    cycles = int(config.cycles_per_point)
    return np.array([stream.binomial(cycles, row) for stream, row in zip(streams, p)])


def simulate_dataset(config: ExperimentConfig) -> FringeDataset:
    """Synthesize a binomially sampled dataset over the config's time grid.

    ``_simulate`` on the grid as a stack of one row, from one stream seeded by
    ``config.rng_seed``.
    """
    times = np.array(config.time_grid)
    successes = _simulate(config, times[None, :], [np.random.default_rng(config.rng_seed)])[0]
    return FringeDataset(times, successes, np.full(times.shape, config.cycles_per_point))


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


def _fringe_grids(config: ExperimentConfig, taus, points_per_fringe: int) -> np.ndarray:
    """Readout times of a scan's fringes, one row per tau, symmetric around echo time 2*n*tau."""
    carrier = (config.sequence.delta - config.zeeman_shift
               - (config.inhomogeneous.delta0 if config.inhomogeneous else 0.0))
    if abs(carrier) < 1e-9:
        raise DomainError("visibility scan needs a nonzero effective carrier detuning "
                          "to produce fringes")
    taus = np.asarray(taus, dtype=float)
    half_spans = np.array([min(_CARRIER_PERIODS * math.pi / abs(carrier), 0.95 * tau)
                           for tau in taus.tolist()])
    return (2 * config.sequence.n * taus[:, None]
            + np.linspace(-half_spans, half_spans, points_per_fringe, axis=-1))


def scan_visibility(
    config: ExperimentConfig,
    tau_grid,
    points_per_fringe: int = 31,
) -> list[VisibilityPoint]:
    """Two-stage visibility extraction over a grid of pulse spacings.

    For each tau, the readout pulse time is scanned symmetrically around the
    echo time 2*n*tau (covering ``_CARRIER_PERIODS`` fringe periods).  The
    scan is one (B, N) stack, one row per tau, from grid to fit: ``_simulate``
    samples every fringe (its pulse spacings a column), each from its own
    stream, and all fringes are fitted in one stacked call, each with the
    result ``fit_fringe`` gives it alone.  Fit
    failures are reported per point (``ok = False``), never raised.
    """
    seq = config.sequence
    if seq.n < 1:
        raise DomainError("visibility scans need at least one refocusing pulse")
    t2_star = T2_STAR_PER_ETA * config.inhomogeneous.eta if config.inhomogeneous else math.inf
    taus = np.array([float(tau) for tau in tau_grid])
    grids = _fringe_grids(config, taus, points_per_fringe)
    if not taus.size:
        return []
    streams = [np.random.default_rng(int(np.random.SeedSequence(
        entropy=config.rng_seed, spawn_key=(2, j)).generate_state(1)[0]))
        for j in range(taus.size)]
    scan = replace(config, sequence=replace(seq, tau=taus[:, None]), time_grid=())
    _check_increasing(grids)
    successes = _simulate(scan, grids, streams)
    cycles = int(config.cycles_per_point)
    if config.invert_fraction:  # the same fringe in the default readout: 1 - (1 + c*w)/2
        successes = cycles - successes
    fractions = successes / cycles
    fits = _fit_fringes(grids, fractions, binomial_weights(fractions, cycles),
                        seq.n, taus, t2_star)
    points = []
    for tau, fit in zip(taus.tolist(), fits):
        echo_time = 2 * seq.n * tau
        if isinstance(fit, FitError):
            points.append(VisibilityPoint(
                total_time=echo_time, visibility=math.nan, error=math.nan,
                ok=False, message=str(fit),
            ))
        else:
            points.append(VisibilityPoint(
                total_time=echo_time,
                visibility=fit.params["visibility"],
                error=fit.errors["visibility"],
                ok=fit.converged,
                message="" if fit.converged else f"fit stopped: {fit.stop_reason}",
            ))
    return points

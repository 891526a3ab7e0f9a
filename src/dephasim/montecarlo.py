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
visibility scan of an ``invert_fraction`` config simulates the default
readout, the same fringe counted from the other state.

Kernel precision: with the light shift delta0 - L/eta, phi = a + L*x/eta,
the carrier phase a = (delta_eff - delta0)*x in float64, so the mean of cos(phi)
is cos(a)*Re(chi) - sin(a)*Im(chi) with chi(x) = E[exp(i*L*x/eta)], the
characteristic function of the shifted-Gamma law.  Each time estimates chi
from float32 draws: L (``noise.gamma3_log``), theta = L*x/eta, cos(theta) and
sin(theta) are float32 (``_phasor``), and the two means are accumulated in
float64.  Per draw this is within 2**-23*(1 + (x/eta)*(2 + 6|L|)) of the
float64 values, and the mean within about 2**-23*(1 + 20*x/eta) (E|L| = 3):
5e-6 at x/eta = 2.08, the end of the README Ramsey grid, against a Monte
Carlo standard error of the mean of about 5e-3 at a dephased point and
20 000 draws.
Where float32 theta could overflow (|x/eta| > 2**121), |chi| < 2**-363: there,
and where x/eta is NaN, the draws are made and chi takes its limit 0.  Without
inhomogeneous noise chi = 1 exactly: the same formula is the exact float64
cos(a), one array expression over the whole grid, and draws nothing.

Reproducibility contract: a dataset is one random stream,
``np.random.default_rng(rng_seed)``.  The light-shift draws of each grid point
(drawn point by point, 1.5 raw 64-bit words per draw) come from it in
grid order, then all success counts in one binomial call: the same config and
seed give bit-identical datasets.  A visibility scan is one such stream too,
``np.random.default_rng([rng_seed, n])``: its fringes draw one after another,
so the scans of one sweep, one per n, draw independent noise.

Sampling is written once, as ``_simulate``: a (B, N) stack of time grids and
one generator give the (B, N) success counts, from one
``ensemble_probability`` call (with a light shift, point by point, row after
row) and then one binomial call over the whole stack.
A dataset is a stack of one row; a visibility scan has one row per pulse
spacing (a (B, 1) column in its sequence), its grids built and checked by the
scan's one grid rule (``_fringe_grids``), and fits all its rows in one stack.

Files: each CSV table is declared once, as its header and column kinds
(``_DATASET_TABLE``, ``_VISIBILITY_TABLE``); ``_write_table`` writes it and
``_read_table`` reads it back from that declaration, bit for bit.
``_write_text`` writes every text file the package writes, tables and JSON
documents alike, as UTF-8 with a final newline.
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
    gamma3_log,
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
        Light-shift draws per probability estimate, from which each time
        estimates the characteristic function chi(x) in float32 (3 float32
        uniforms, 12 bytes, per draw; the jump channel is averaged exactly);
        controls oracle accuracy, independent of cycles_per_point.
    time_grid : tuple of float
        Readout times in seconds, strictly increasing.
    rng_seed : int
        Master seed (>= 0); all randomness derives from it.
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
        for count in ("cycles_per_point", "noise_draws"):
            if getattr(self, count) < 1:
                raise DomainError(f"{count} must be >= 1, got {getattr(self, count)}", field=count)
        if not 0.0 <= self.contrast <= 1.0:
            raise DomainError(f"contrast must lie in [0, 1], got {self.contrast}",
                              field="contrast")
        if self.rng_seed < 0:
            raise DomainError(f"must be >= 0, got {self.rng_seed}", field="rng_seed")
        grid = tuple(float(t) for t in self.time_grid)
        if np.any(np.array(grid[1:]) <= grid[:-1]):
            raise DomainError("time grid must be strictly increasing", field="time_grid")
        object.__setattr__(self, "time_grid", grid)
        if self.homogeneous is not None and self.sequence.n >= 1:
            if self.homogeneous.sigmas.shape[0] != self.sequence.n:
                raise DomainError(
                    f"homogeneous noise describes {self.homogeneous.sigmas.shape[0]} "
                    f"intervals but the sequence has n = {self.sequence.n}", field="sigmas"
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


#: Each CSV table, declared once as its header and column kinds: ``_write_table`` writes it
#: and ``_read_table`` reads it back.
_DATASET_TABLE = {"time_s": float, "fraction": float, "trials": int, "successes": int}
_VISIBILITY_TABLE = {"total_time_s": float, "visibility": float, "visibility_err": float}


def _write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 with a final newline: every file the package writes."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
        handle.write("\n")


def _write_table(path, table: dict, rows) -> None:
    """Write ``rows`` as the CSV ``table``: the header line, then one line per row.

    A cell is formatted from its kind, ``str(float(v))`` (its repr) or ``str(int(v))``,
    so ``_read_table`` reads every value back bit for bit.
    """
    lines = [",".join(table)]
    lines += [",".join([str(kind(v)) for kind, v in zip(table.values(), row)]) for row in rows]
    _write_text(path, "\n".join(lines))


def _read_table(path, table: dict, name: str, row_error=None):
    """The columns of the CSV ``table`` at ``path``, one array per header entry, of its kind.

    numpy's C reader parses the body in one pass, unless it might read it otherwise
    than the row loop: a non-ASCII character (its integer parser misreads some), a
    carriage return (the row count counts newlines), U+001C..U+001F (whitespace to it,
    not to ``float`` and ``int``), a line over csv's field limit, a blank line, a value
    it refuses or warns about, or a row ``row_error(values, cells)`` rejects.  The row
    loop then reads the file with ``csv``, ``float`` and ``int`` and names the first bad row.
    """
    with open(path, "rb") as handle:  # an undecodable byte becomes non-ASCII U+FFFD
        text = handle.read().decode("utf-8", "replace")
    head = ",".join(table) + "\n"
    body, parsed, limit = text[len(head):], None, csv.field_size_limit()
    if (text.startswith(head) and body.isascii()
            and not any(c in body for c in "\r\x1c\x1d\x1e\x1f")
            and (len(body) <= limit or max(map(len, body.split("\n"))) <= limit)):
        with warnings.catch_warnings(), contextlib.suppress(ValueError, Warning):
            warnings.simplefilter("error")  # e.g. "input contained no data"
            parsed = np.loadtxt(io.StringIO(body), dtype=list(table.items()), delimiter=",",
                                comments=None, quotechar=None, ndmin=1)
    if (parsed is not None and len(parsed) == body.count("\n") + (not body.endswith("\n"))
            and (row_error is None or not any(row_error(row, None) for row in parsed.tolist()))):
        return [parsed[column] for column in table]
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            first = next(reader, None)
            if first is None:
                raise DataFormatError(f"empty {name} file")
            if first != list(table):
                raise DataFormatError(f"unexpected header {first!r}")
            columns = [[] for _ in table]
            for index, row in enumerate(reader, start=1):
                if len(row) != len(table):
                    raise DataFormatError(f"expected {len(table)} columns, got {len(row)}",
                                          row=index)
                try:
                    values = [kind(cell) for kind, cell in zip(table.values(), row)]
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
        _write_table(path, _DATASET_TABLE,
                     zip(self.times, self.fractions, self.trials, self.successes))

    @staticmethod
    def read_csv(path) -> "FringeDataset":
        """Read a dataset CSV: numpy's C reader parses it; the row loop names a malformed row."""
        times, fractions, trials, successes = _read_table(path, _DATASET_TABLE, "dataset")
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


def _phasor(log_g: np.ndarray, s: float):
    """cos(theta) and sin(theta) for each draw, theta = L*s, with L the ``gamma3_log`` draws.

    ``log_g`` is float32 and is overwritten.  theta, its cosine and its sine
    are taken in float32: per draw this is within 2**-23*(1 + |s|*(2 + 6|L|))
    of the float64 values of the exact L (``tests/test_montecarlo.py`` derives
    the bound), so the error grows with s = x/eta.  |L| <= 72 ln 2 < 2**6, so
    theta fits float32 for |s| <= 2**121, the only s it is called with.
    """
    theta = np.multiply(log_g, np.float32(s), out=log_g)
    cos = np.cos(theta)
    return cos, np.sin(theta, out=theta)


def ensemble_probability(config: ExperimentConfig, t, rng):
    """Ensemble-averaged success probability at readout time t, or at each time of a grid t.

    One formula: with x = t - 2*n*tau and the carrier phase a = (delta_eff - delta0)*x,
    float64 and one per time (delta0 = 0 without a light shift), mean cos(Phi) =
    cos(a)*Re(chi) - sin(a)*Im(chi), where chi(x) = E[exp(i*L*x/eta)] = (1 + i*x/eta)**-3
    is the characteristic function of the shifted-Gamma light shift delta0 - L/eta.
    Without inhomogeneous noise chi = 1 exactly: the mean is cos(a), exact float64.
    With it, each time of t, in C order, draws ``config.noise_draws`` float32 values
    of L (``gamma3_log``) from the one generator ``rng`` and estimates chi from them:
    the cosines and sines of ``_phasor``, averaged in float64.  Where |x/eta| > 2**121,
    |chi| < 2**-363, and there (and where x/eta is NaN) the draws are made and chi is
    its limit, 0.  A carrier that overflows has no limit: its NaN is refused by
    ``_simulate``.  Homogeneous noise at n >= 1 multiplies that mean by the exact
    Gaussian average exp(-sum_i (c_i*sigma_i)**2 / 2), c = ``jump_weights``
    (``analytic._gaussian_factor``), and draws nothing; a variance that overflows
    gives 0.  A scalar t gives a float.

    A stack of B sequences that differ only in tau (a visibility scan) is one
    call: ``config.sequence.tau`` a (B, 1) column and ``t`` a (B, N) grid, drawn
    row after row.
    """
    seq, dist = config.sequence, config.inhomogeneous
    x = accumulated_phase(1.0, seq.tau, seq.n, t)  # t - 2*n*tau, timing rule checked
    chi = 1 + 0j
    if dist is not None:
        with np.errstate(over="ignore"):
            scaled = np.ravel(x / dist.eta).tolist()
        chi = np.zeros(len(scaled), dtype=complex)
        for i, s in enumerate(scaled):
            log_g = gamma3_log(rng, config.noise_draws)
            if abs(s) <= 2.0**121:  # False for NaN: chi stays at its limit 0
                cos, sin = _phasor(log_g, s)
                chi[i] = complex(np.mean(cos, dtype=np.float64), np.mean(sin, dtype=np.float64))
        chi = chi.reshape(np.shape(t))
    with np.errstate(over="ignore", invalid="ignore"):  # NaN where the carrier overflows
        carrier = (seq.delta - config.zeeman_shift - (dist.delta0 if dist else 0.0)) * x
        mean_cos = np.cos(carrier) * chi.real - np.sin(carrier) * chi.imag
    if config.homogeneous is not None and seq.n >= 1:
        mean_cos = mean_cos * _gaussian_factor(jump_weights(seq.tau, seq.n, t),
                                               config.homogeneous.sigmas)
    w = (-1.0) ** seq.n * mean_cos  # |w| <= 1: no range check needed
    return _readout(config.contrast * w, config.invert_fraction)


# ------------------------------------------------------------- datasets


def _simulate(config: ExperimentConfig, grids: np.ndarray, rng) -> np.ndarray:
    """Success counts of a (B, N) stack of time grids, the one sampling step.

    ``config.sequence.tau`` is a number or a (B, 1) column of spacings.  The one
    generator ``rng`` draws the light shift row after row (``ensemble_probability``),
    then every count in one binomial call over the stack.
    """
    if not grids.shape[-1]:
        raise DomainError("config has an empty time grid")
    p = ensemble_probability(config, grids, rng)
    if not np.all((p >= 0.0) & (p <= 1.0)):  # NaN too: a phase that overflowed
        raise DomainError("probabilities must lie in [0, 1]")
    return rng.binomial(int(config.cycles_per_point), p)


def simulate_dataset(config: ExperimentConfig) -> FringeDataset:
    """Synthesize a binomially sampled dataset over the config's time grid.

    ``_simulate`` on the grid as a stack of one row, from the one stream
    ``default_rng(config.rng_seed)``.
    """
    times = np.array(config.time_grid)
    successes = _simulate(config, times[None, :], np.random.default_rng(config.rng_seed))[0]
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
    """Readout times of a scan's fringes, one row per tau, symmetric around echo time 2*n*tau.

    The scan's grid rule, checked before anything is drawn: a DomainError names the
    field of a sequence without a refocusing pulse (``n``), a zero carrier (``delta``),
    or a spacing not positive or whose grid is not finite and strictly increasing (``tau``).
    """
    n = config.sequence.n
    if n < 1:
        raise DomainError("visibility scans need at least one refocusing pulse", field="n")
    carrier = (config.sequence.delta - config.zeeman_shift
               - (config.inhomogeneous.delta0 if config.inhomogeneous else 0.0))
    if abs(carrier) < 1e-9:
        raise DomainError("visibility scan needs a nonzero effective carrier detuning "
                          "to produce fringes", field="delta")
    taus = np.asarray(taus, dtype=float)
    half_spans = np.array([min(_CARRIER_PERIODS * math.pi / abs(carrier), 0.95 * tau)
                           for tau in taus.tolist()])
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        grids = 2 * n * taus[:, None] + np.linspace(-half_spans, half_spans, points_per_fringe,
                                                    axis=-1)
    good = (taus > 0) & np.isfinite(grids).all(-1) & (grids[:, 1:] > grids[:, :-1]).all(-1)
    if not good.all():
        raise DomainError(f"pulse spacing {taus[np.argmin(good)]} s gives no finite, strictly "
                          "increasing fringe grid", field="tau")
    return grids


def scan_visibility(
    config: ExperimentConfig,
    tau_grid,
    points_per_fringe: int = 31,
) -> list[VisibilityPoint]:
    """Two-stage visibility extraction over a grid of pulse spacings.

    For each tau, the readout pulse time is scanned symmetrically around the
    echo time 2*n*tau (covering ``_CARRIER_PERIODS`` fringe periods); a scan its
    grid rule refuses (``_fringe_grids``) raises DomainError before any draw.  The
    scan is one (B, N) stack, one row per tau, from grid to fit, and one dataset:
    ``_simulate`` samples every fringe (its pulse spacings a column) from the one
    stream ``default_rng([rng_seed, n])``, so the scans of different n draw
    independent noise.  An ``invert_fraction`` config is simulated in the default
    readout, the same fringe counted from the other state.  All fringes are fitted
    in one stacked call, each with the result ``fit_fringe`` gives it alone.  Fit
    failures are reported per point (``ok = False``), never raised.
    """
    seq = config.sequence
    t2_star = T2_STAR_PER_ETA * config.inhomogeneous.eta if config.inhomogeneous else math.inf
    taus = np.array([float(tau) for tau in tau_grid])
    grids = _fringe_grids(config, taus, points_per_fringe)
    scan = replace(config, sequence=replace(seq, tau=taus[:, None]), time_grid=(),
                   invert_fraction=False)
    cycles = int(config.cycles_per_point)
    fractions = _simulate(scan, grids, np.random.default_rng([config.rng_seed, seq.n])) / cycles
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

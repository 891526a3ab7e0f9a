"""Nonlinear weighted least squares and model-specific fit wrappers.

The optimizer is a damped Gauss-Newton iteration (Levenberg-Marquardt style
trust damping) on a numerically differentiated Jacobian.  It is deliberately
dependency-free: the problems here are small and smooth, and keeping the
solver in-module makes its behaviour (step acceptance, damping schedule,
convergence tests) fully inspectable by the tests.

Every fit takes one ``FitData`` (arrays x, y and weight = 1/variance, the
weights checked once, when it is built).  Wrappers cover Rabi oscillation,
trap relaxation, Ramsey/echo/CPMG fringes, and the Gaussian visibility
decay whose fitted width yields the coherence time T2'.  Each evaluates the
model formula of ``dephasim.analytic`` (``_rabi``, ``_t1``, ``_fringe``,
``_visibility``); the fringe fit adds only a free visibility and phase and
the readout map (1 - w)/2.  Visibility extraction is the two-stage
procedure used on the real data: fit each fringe for its visibility, then
fit the visibilities against total time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .analytic import _fringe, _rabi, _readout, _t1, _visibility, t2_prime
from .errors import FitError

__all__ = [
    "FitData",
    "FitResult",
    "weighted_points",
    "binomial_weights",
    "points_from_counts",
    "dominant_frequency",
    "numeric_jacobian",
    "fit_curve",
    "fit_rabi",
    "fit_t1",
    "fit_fringe",
    "fit_visibility_decay",
    "FITTERS",
]

ERROR_CONVENTION = "1-sigma local curvature scaled by residual variance"


@dataclass(frozen=True)
class FitData:
    """Observations as equal-length float arrays: x (seconds), y and weight (1/variance).

    Every weight must be positive and finite; a FitError names the first point that is not.
    """

    x: np.ndarray
    y: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        x, y, weight = (np.asarray(a, dtype=float) for a in (self.x, self.y, self.weight))
        if x.ndim != 1 or not x.shape == y.shape == weight.shape:
            raise FitError(f"x, y and weight must be 1-D arrays of one length, "
                           f"got shapes {x.shape}, {y.shape} and {weight.shape}")
        bad = ~((weight > 0) & (weight < math.inf))
        if np.any(bad):
            i = int(np.argmax(bad))
            raise FitError(f"weight must be positive and finite, got {weight[i]} at point {i}")
        for name, values in (("x", x), ("y", y), ("weight", weight)):
            object.__setattr__(self, name, values)


_WEIGHT_FLOOR = 1e-4  # smallest p*(1-p) taken as the binomial variance of one trial


def binomial_weights(fractions, trials):
    """Inverse binomial variance max(p*(1-p), _WEIGHT_FLOOR)/trials, finite at p = 0 and 1."""
    p = np.asarray(fractions, dtype=float)
    variance = np.maximum(p * (1.0 - p), _WEIGHT_FLOOR) / np.asarray(trials, dtype=float)
    return 1.0 / variance


def weighted_points(x, y, yerr=None, weights=None) -> FitData:
    """FitData from arrays; yerr (1 sigma) takes priority over weights (default 1)."""
    x = np.asarray(x, dtype=float)
    if yerr is not None:
        with np.errstate(divide="ignore", over="ignore"):  # FitData rejects what overflows
            weights = 1.0 / np.asarray(yerr, dtype=float) ** 2
    if weights is None:
        weights = np.ones_like(x)
    return FitData(x, y, np.broadcast_to(np.asarray(weights, dtype=float), x.shape))


def points_from_counts(times, successes, trials) -> FitData:
    """FitData for binomial count data, weighted by inverse binomial variance."""
    fractions = np.asarray(successes, dtype=float) / np.asarray(trials, dtype=float)
    return weighted_points(times, fractions, weights=binomial_weights(fractions, trials))


@dataclass
class FitResult:
    """Outcome of one least-squares fit.

    ``params``/``errors`` are keyed by parameter name; errors follow
    ``error_convention``.  ``rss`` is the weighted residual sum of squares,
    ``cost_history`` the accepted-step costs (monotone non-increasing).
    ``stop_reason`` says why ``fit_curve`` stopped: ``"gradient"`` or
    ``"cost"`` (converged: the gradient norm or the relative cost drop fell
    below its tolerance), ``"no_step"`` (no finite step lowered the cost by
    damping 1e8) or ``"max_iterations"``; it is empty for a result built
    elsewhere.
    """

    model: str
    params: dict[str, float]
    errors: dict[str, float]
    units: dict[str, str]
    rss: float
    iterations: int
    converged: bool
    n_points: int
    gradient_norm: float
    stop_reason: str = ""
    cost_history: list[float] = field(default_factory=list)
    error_convention: str = ERROR_CONVENTION

    def to_json_dict(self) -> dict:
        return {
            "model": self.model,
            "params": {
                name: {
                    "value": self.params[name],
                    "stderr": self.errors.get(name),
                    "unit": self.units.get(name, ""),
                }
                for name in self.params
            },
            "rss": self.rss,
            "iterations": self.iterations,
            "converged": self.converged,
            "n_points": self.n_points,
            "gradient_norm": self.gradient_norm,
            "stop_reason": self.stop_reason,
            "error_convention": self.error_convention,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def _finite_or_raise(values, theta, what: str):
    if not np.all(np.isfinite(values)):
        raise FitError(f"{what} returned non-finite values at parameters {list(theta)}")
    return values


def numeric_jacobian(curve, x: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian d curve / d theta, step max(1e-8, 1e-6*|param|)."""
    n_params = theta.size
    jac = np.empty((x.size, n_params))
    for j in range(n_params):
        step = max(1e-8, 1e-6 * abs(theta[j]))
        hi = theta.copy()
        lo = theta.copy()
        hi[j] += step
        lo[j] -= step
        jac[:, j] = (np.asarray(curve(x, hi)) - np.asarray(curve(x, lo))) / (2 * step)
    return _finite_or_raise(jac, theta, "model Jacobian")


_COST_TOL = 1e-10
_GRAD_TOL = 1e-10


def fit_curve(
    curve,
    data: FitData,
    initial,
    bounds=None,
    *,
    model: str = "custom",
    param_names: tuple[str, ...] | None = None,
    units: dict[str, str] | None = None,
    max_iterations: int = 200,
) -> FitResult:
    """Minimize the weighted squared residuals of ``curve`` over the data.

    Parameters
    ----------
    curve : callable
        ``curve(x_array, theta) -> y_array``; must be finite wherever the
        optimizer can step (respect your own bounds).
    data : FitData
    initial : array-like
        Finite starting parameter vector; at least as many points as
        parameters are required.
    bounds : optional list of (lo, hi)
        Simple box constraints enforced by projection; use ``None`` entries
        or infinities for open sides.

    Returns
    -------
    FitResult
        Best parameters found.  ``converged`` is False when the iteration cap
        was hit (``stop_reason`` ``"max_iterations"``) or no finite step
        lowered the cost by damping 1e8 (``"no_step"``); a NaN model output
        raises FitError instead.
    """
    theta = np.asarray(initial, dtype=float).copy()
    if not np.all(np.isfinite(theta)):
        raise FitError(f"initial guess must be finite, got {list(theta)}")
    x, y, w = data.x, data.y, data.weight
    if x.size < theta.size:
        raise FitError(f"{x.size} data points cannot constrain {theta.size} parameters")
    if param_names is None:
        param_names = tuple(f"p{i}" for i in range(theta.size))
    units = dict(units or {})

    sqrt_w = np.sqrt(w)

    lo = np.full(theta.size, -np.inf)
    hi = np.full(theta.size, np.inf)
    if bounds is not None:
        for j, pair in enumerate(bounds):
            if pair is None:
                continue
            if pair[0] is not None:
                lo[j] = pair[0]
            if pair[1] is not None:
                hi[j] = pair[1]
    theta = np.clip(theta, lo, hi)

    def cost_and_residuals(th):
        model_y = _finite_or_raise(np.asarray(curve(x, th), dtype=float), th, "model")
        r = y - model_y
        return float(np.sum(w * r * r)), r

    cost, residuals = cost_and_residuals(theta)
    history = [cost]
    damping = 0.0
    converged = False
    stop_reason = "max_iterations"
    gradient_norm = math.inf
    iterations = 0

    for iterations in range(1, max_iterations + 1):
        jac = numeric_jacobian(curve, x, theta)
        design = jac * sqrt_w[:, None]
        gradient = design.T @ (sqrt_w * residuals)
        gradient_norm = float(np.linalg.norm(gradient))
        if gradient_norm < _GRAD_TOL:
            converged, stop_reason = True, "gradient"
            break

        normal = design.T @ design
        scale = np.diag(normal).copy()
        ridge = np.diag(scale + 1e-12 * max(scale.max(), 1.0))
        accepted = False
        while True:
            try:
                step = np.linalg.solve(normal + damping * ridge, gradient)
            except np.linalg.LinAlgError:
                step = None
            if step is not None and np.all(np.isfinite(step)):
                trial = np.clip(theta + step, lo, hi)
                trial_cost, trial_residuals = cost_and_residuals(trial)
                accepted = trial_cost <= cost
            if accepted:
                break
            if damping > 1e8:
                break  # no usable step in this direction; stop at best-so-far
            damping = max(damping * 10.0, 1e-4)

        if not accepted:
            stop_reason = "no_step"
            break
        relative_drop = (cost - trial_cost) / max(cost, 1e-300)
        theta, cost, residuals = trial, trial_cost, trial_residuals
        history.append(cost)
        damping = 0.0 if damping < 1e-7 else damping / 10.0
        if relative_drop < _COST_TOL:
            converged, stop_reason = True, "cost"
            break

    jac = numeric_jacobian(curve, x, theta)
    design = jac * sqrt_w[:, None]
    gradient_norm = float(np.linalg.norm(design.T @ (sqrt_w * residuals)))
    dof = max(x.size - theta.size, 1)
    residual_variance = cost / dof
    try:
        covariance = np.linalg.inv(design.T @ design) * residual_variance
    except np.linalg.LinAlgError:
        covariance = np.linalg.pinv(design.T @ design) * residual_variance
    stderr = np.sqrt(np.clip(np.diag(covariance), 0.0, None))

    return FitResult(
        model=model,
        params=dict(zip(param_names, map(float, theta))),
        errors=dict(zip(param_names, map(float, stderr))),
        units=units,
        rss=cost,
        iterations=iterations,
        converged=converged,
        n_points=x.size,
        gradient_norm=gradient_norm,
        stop_reason=stop_reason,
        cost_history=history,
    )


_LATTICE_TOL = 1e-9  # largest |(x - x0)/h - k| accepted as on the lattice
_LATTICE_MULTIPLE = 4  # lattice length may be at most this many times the point count
_CHUNK_CELLS = 1 << 20  # frequency x sample cells per chunk of the direct projection


def _lattice_power(x: np.ndarray, centered: np.ndarray, omegas: np.ndarray):
    """|sum_i centered_i e^{i omega x_i}|**2 on a uniform omega grid by chirp-z.

    Each sample is mapped to k = rint((x - x0)/h) on the lattice of the
    smallest spacing h; the lattice step is then measured over the whole
    span, so rounding in the stored times does not accumulate with k.  The
    values are summed per lattice index (duplicates and gaps are exact), and
    Bluestein's identity jk = (j**2 + k**2 - (j - k)**2)/2 turns the sum into
    one convolution: three FFTs of length >= K + n_grid - 1.  Returns None
    when the samples are off the lattice by more than _LATTICE_TOL, where the
    phase error would exceed pi * _LATTICE_TOL, or when the lattice is longer
    than _LATTICE_MULTIPLE times the number of samples.
    """
    x0 = float(np.min(x))
    offsets = x - x0
    h = float(np.min(np.diff(np.unique(x))))
    index = np.rint(offsets / h)
    k_max = float(np.max(index))
    if k_max + 1 > _LATTICE_MULTIPLE * x.size:
        return None
    step = float(np.max(offsets)) / k_max
    if np.max(np.abs(offsets / step - index)) > _LATTICE_TOL:
        return None
    k_len = int(k_max) + 1
    summed = np.bincount(index.astype(np.int64), weights=centered, minlength=k_len)

    n_grid = omegas.size
    theta0 = float(omegas[0]) * step
    dtheta = float(omegas[-1] - omegas[0]) / max(n_grid - 1, 1) * step
    length = 1 << (k_len + n_grid - 2).bit_length()
    k = np.arange(k_len, dtype=float)
    chirped = summed * np.exp(1j * (theta0 * k + 0.5 * dtheta * k * k))
    m = np.arange(max(k_len, n_grid), dtype=float)
    chirp = np.exp(-0.5j * dtheta * m * m)
    kernel = np.zeros(length, dtype=complex)
    kernel[:n_grid] = chirp[:n_grid]
    kernel[length - k_len + 1:] = chirp[1:k_len][::-1]
    amplitude = np.fft.ifft(np.fft.fft(chirped, length) * np.fft.fft(kernel))[:n_grid]
    return amplitude.real ** 2 + amplitude.imag ** 2


def _projection_power(x: np.ndarray, centered: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """The same power by direct cos/sin projection, about _CHUNK_CELLS cells at a time."""
    rows = max(1, _CHUNK_CELLS // x.size)
    power = np.empty(omegas.size)
    for start in range(0, omegas.size, rows):
        phases = np.outer(omegas[start:start + rows], x)
        power[start:start + rows] = ((np.cos(phases) @ centered) ** 2
                                     + (np.sin(phases) @ centered) ** 2)
    return power


def dominant_frequency(x, y, oversample: int = 8, max_grid: int = 20000) -> float:
    """Angular frequency of the strongest sinusoidal component of (x, y).

    The power |sum_i (y_i - mean y) e^{i omega x_i}|**2 is scanned on a
    uniform grid from half a cycle over the full record up to the Nyquist
    rate of the closest point spacing, n_grid = oversample * span / spacing
    points (at least 64, at most ``max_grid``).  Samples on a common time
    lattice (any linspace grid, with or without gaps and repeated times) are
    evaluated exactly by a chirp-z transform in O((N + n_grid) log(N + n_grid))
    time; any other grid falls back to the direct projection, computed in
    chunks of about a million cells.  Memory is O(N + n_grid) either way.
    Raises FitError on flat data (no identifiable frequency).
    """
    x = np.asarray(x, dtype=float)
    centered = np.asarray(y, dtype=float) - np.mean(y)
    if np.max(np.abs(centered)) < 1e-12:
        raise FitError("frequency unidentifiable: flat spectrum (constant data)")
    unique_x = np.unique(x)
    if unique_x.size < 2:
        raise FitError("frequency unidentifiable: degenerate time grid")
    span = float(unique_x[-1] - unique_x[0])
    spacing = float(np.min(np.diff(unique_x)))
    n_grid = min(max_grid, max(64, int(oversample * span / spacing)))
    omegas = 2 * np.pi * np.linspace(0.5 / span, 0.5 / spacing, n_grid)
    power = _lattice_power(x, centered, omegas)
    if power is None:
        power = _projection_power(x, centered, omegas)
    return float(omegas[np.argmax(power)])


# ------------------------------------------------------------------ wrappers


def fit_rabi(data: FitData) -> FitResult:
    """Fit offset + contrast*cos(omega_r*t) with a frequency-scan initialization."""
    x, y = data.x, data.y
    omega0 = dominant_frequency(x, y)
    contrast0 = math.sqrt(2.0) * float(np.std(y))
    if np.mean(y[x <= np.quantile(x, 0.15)]) < np.mean(y):
        contrast0 = -contrast0  # early points below the mean: start on the flipped branch
    return fit_curve(
        lambda t, theta: _rabi(t, *theta),
        data,
        [omega0, contrast0, float(np.mean(y))],
        bounds=[(0.0, None), None, None],
        model="rabi",
        param_names=("omega_r", "contrast", "offset"),
        units={"omega_r": "rad/s", "contrast": "", "offset": ""},
    )


def fit_t1(data: FitData) -> FitResult:
    """Fit equilibrium + amplitude*exp(-t/T1) to a relaxation record."""
    order = np.argsort(data.x)
    x, y = data.x[order], data.y[order]
    tail = float(np.mean(y[-max(3, y.size // 5):]))
    amplitude0 = float(y[0] - tail)
    if np.ptp(y) == 0.0 or abs(amplitude0) < 1e-12:
        raise FitError("T1 unidentifiable: no decay amplitude in the data")
    below = np.nonzero(np.abs(y - tail) <= abs(amplitude0) / math.e)[0]
    t1_0 = float(x[below[0]]) if below.size and x[below[0]] > 0 else float(x[-1]) / 2
    return fit_curve(
        lambda t, theta: _t1(t, *theta),
        data,
        [t1_0, amplitude0, tail],
        bounds=[(1e-12, None), None, None],
        model="t1",
        param_names=("t1", "amplitude", "equilibrium"),
        units={"t1": "s", "amplitude": "", "equilibrium": ""},
    )


def fit_fringe(
    data: FitData,
    n: int,
    tau: float,
    t2_star: float | None = math.inf,
) -> FitResult:
    """Fit a fraction-vs-time fringe for its visibility.

    The model is the measured-fraction map of V times the ensemble-averaged
    fringe, with a free phase offset.  ``t2_star`` fixes the envelope scale
    (``math.inf`` disables the envelope, the right choice when only
    homogeneous noise is present); passing ``None`` co-fits it.

    Parameters
    ----------
    data : FitData
        Fractions scanned around t = 2*n*tau (absolute times).
    n, tau : sequence geometry (n = 0, tau = 0 for Ramsey).
    t2_star : float or None
        Fixed envelope 1/e time, or None to co-fit it.
    """
    x, y = data.x, data.y
    visibility0 = min(1.0, max(0.05, float(np.ptp(y))))
    delta0 = dominant_frequency(x, y)
    theta0 = [visibility0, delta0, 0.0]
    names = ["visibility", "delta_prime", "phase"]
    bounds = [(0.0, 1.5), (0.0, None), None]
    if t2_star is None:
        span = float(np.max(x) - np.min(x))
        theta0.append(span / 2)
        names.append("t2_star")
        bounds.append((1e-9, None))
    offset = 2 * n * tau

    def curve(t, theta):
        scale = theta[3] if t2_star is None else t2_star
        return _readout(_fringe(t - offset, *theta[:3], scale, n), False)

    start = curve(x, theta0)
    if np.dot(y - np.mean(y), start - np.mean(start)) < 0:
        theta0[2] = math.pi  # data anti-correlate with the phase-0 start: the flipped branch

    result = fit_curve(
        curve,
        data,
        theta0,
        bounds=bounds,
        model={0: "ramsey", 1: "echo_fringe"}.get(n, "cpmg_fringe"),
        param_names=tuple(names),
        units={"visibility": "", "delta_prime": "rad/s", "phase": "rad", "t2_star": "s"},
    )
    if t2_star is not None:
        result.params["t2_star"] = float(t2_star)
        result.errors["t2_star"] = 0.0
        result.units["t2_star"] = "s (held fixed)"
    return result


def fit_visibility_decay(data: FitData, n: int) -> FitResult:
    """Fit C0*exp(-(1/2)*(t/2n)**2*sigma_sig**2) to visibility-vs-total-time points.

    Reports the derived coherence time t2_prime = 2*sqrt(2)*n/sigma_sig with
    its error propagated as |d t2_prime / d sigma| * SE(sigma).
    """
    if n < 1:
        raise FitError(f"visibility decay requires n >= 1, got {n}")
    order = np.argsort(data.x)
    x, y = data.x[order], data.y[order]
    c0_guess = min(1.2, max(0.01, float(y[0])))
    halved = np.nonzero(y <= c0_guess / 2)[0]
    t_half = float(x[halved[0]]) if halved.size and x[halved[0]] > 0 else float(x[-1])
    sigma0 = 2 * n * math.sqrt(2 * math.log(2)) / t_half

    result = fit_curve(
        lambda t, theta: _visibility(t, *theta, n),
        data,
        [c0_guess, sigma0],
        bounds=[(0.0, 1.2), (0.0, None)],
        model="visibility",
        param_names=("c0", "sigma_sig"),
        units={"c0": "", "sigma_sig": "rad/s"},
    )
    sigma = result.params["sigma_sig"]
    sigma_err = result.errors["sigma_sig"]
    coherence = t2_prime(n, sigma) if sigma > 0 else math.inf
    result.params["t2_prime"] = coherence
    result.errors["t2_prime"] = (
        coherence / sigma * sigma_err if sigma > 0 else math.inf
    )
    result.units["t2_prime"] = "s (derived)"
    return result


#: Model name -> fitter.  A fitter's signature states what the CLI must give
#: it: its parameters without a default among ``tau`` and ``n`` are required
#: (``--tau-s``, ``--n``), and ``t2_star`` takes ``--t2-star-s`` or
#: ``--fit-t2-star``.
FITTERS = {
    "rabi": fit_rabi,
    "t1": fit_t1,
    "ramsey": partial(fit_fringe, n=0, tau=0.0),
    "echo_fringe": partial(fit_fringe, n=1),
    "cpmg_fringe": fit_fringe,
    "visibility": fit_visibility_decay,
}

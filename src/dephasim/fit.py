"""Nonlinear weighted least squares and model-specific fit wrappers.

The optimizer is a damped Gauss-Newton iteration (Levenberg-Marquardt style
trust damping) on a Jacobian the caller supplies in closed form.  It is
deliberately dependency-free: the problems here are small and smooth, and
keeping the solver in-module makes its behaviour (step acceptance, damping
schedule, convergence tests) fully inspectable by the tests.

The iteration is written once, in ``_fit_stack``, over a stack of B
independent problems of one model: the model, Jacobian, normal equations and
damped solves of all B are evaluated together, while each problem keeps its
own damping, accepted steps, stop reason and history, and a problem whose
model goes non-finite fails alone.  Each problem's arithmetic is that of its
fit alone, bit for bit.  ``fit_curve`` is a stack of one.  The fringe fit
is written once, for a stack of fringes (``_fit_fringes``), with T2* held
or co-fitted: a visibility scan fits all its fringes in one stack, and
``fit_fringe`` is a stack of one.  The start frequencies are found the same
way: the periodogram is written once, for a stack of records
(``_frequencies``), whose rows on a time lattice are grouped by lattice
length and grid size, each group one set of FFTs along the last axis;
``dominant_frequency`` is a stack of one.

Every fit takes one ``FitData`` (arrays x, y and weight = 1/variance, the
weights checked once, when it is built).  Wrappers cover Rabi oscillation,
trap relaxation, Ramsey/echo/CPMG fringes, and the Gaussian visibility
decay whose fitted width yields the coherence time T2'.  Each evaluates the
model formula of ``dephasim.analytic`` (``_rabi``, ``_t1``, ``_fringe``,
``_visibility``) and differentiates it with the derivative written beside
it (``_rabi_jacobian`` and so on); the fringe fit adds only a free
visibility and phase and the readout map (1 - w)/2.  Visibility extraction
is the two-stage procedure used on the real data: fit each fringe for its
visibility, then fit the visibilities against total time.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .analytic import (
    _envelope,
    _fringe,
    _fringe_jacobian,
    _rabi,
    _rabi_jacobian,
    _readout,
    _t1,
    _t1_jacobian,
    _visibility,
    _visibility_jacobian,
    t2_prime,
)
from .bloch import _check_timing
from .errors import DomainError, FitError

__all__ = [
    "FitData",
    "FitResult",
    "weighted_points",
    "binomial_weights",
    "points_from_counts",
    "dominant_frequency",
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


_COST_TOL = 1e-10
_GRAD_TOL = 1e-10


def _bound_arrays(bounds, size: int):
    """Box constraints as (lo, hi) arrays; ``None`` entries and sides are open."""
    lo = np.full(size, -np.inf)
    hi = np.full(size, np.inf)
    if bounds is not None:
        for j, pair in enumerate(bounds):
            if pair is None:
                continue
            if pair[0] is not None:
                lo[j] = pair[0]
            if pair[1] is not None:
                hi[j] = pair[1]
    return lo, hi


def fit_curve(
    curve,
    data: FitData,
    initial,
    bounds=None,
    *,
    jacobian,
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
    jacobian : callable, keyword-only
        ``jacobian(x_array, theta) -> array`` of shape (points, parameters):
        the derivative of ``curve`` with respect to each parameter, in
        closed form.  It is evaluated once per iteration and once at the
        end, for the errors, and must be finite like the curve.

    Returns
    -------
    FitResult
        Best parameters found.  ``converged`` is False when the iteration cap
        was hit (``stop_reason`` ``"max_iterations"``) or no finite step
        lowered the cost by damping 1e8 (``"no_step"``); a non-finite model
        or Jacobian output, or a Jacobian of the wrong shape, raises FitError
        instead.

    The iteration is ``_fit_stack``'s, on a stack of one problem.
    """
    theta = np.asarray(initial, dtype=float).reshape(1, -1)
    expected = (data.x.size, theta.shape[1])

    def stacked_curve(x, th):
        return np.asarray(curve(x, th[0]), dtype=float).reshape(1, -1)

    def stacked_jacobian(x, th):
        jac = np.asarray(jacobian(x, th[0]), dtype=float)
        if jac.shape != expected:
            if not np.all(np.isfinite(jac)):
                raise FitError(_non_finite("model Jacobian", th[0]))
            raise FitError(f"model Jacobian has shape {jac.shape}, expected {expected}")
        return jac[None]

    (result,) = _fit_stack(
        stacked_curve, stacked_jacobian, data.x, data.y[None], data.weight[None], theta,
        *_bound_arrays(bounds, theta.shape[1]), model=model, param_names=param_names,
        units=units, max_iterations=max_iterations)
    if isinstance(result, FitError):
        raise result
    return result


def _non_finite(what: str, theta) -> str:
    return f"{what} returned non-finite values at parameters {list(theta)}"


def _solve(system, rhs):
    """np.linalg.solve of each problem's system; a singular one gets a NaN solution instead."""
    try:
        return np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError:
        out = np.full(rhs.shape, np.nan)
        for b, (matrix, vector) in enumerate(zip(system, rhs)):
            with contextlib.suppress(np.linalg.LinAlgError):
                out[b] = np.linalg.solve(matrix, vector)
        return out


def _inverse(normal):
    """np.linalg.inv of each normal matrix, np.linalg.pinv where one is singular."""
    try:
        return np.linalg.inv(normal)
    except np.linalg.LinAlgError:
        out = np.empty_like(normal)
        for b, matrix in enumerate(normal):
            try:
                out[b] = np.linalg.inv(matrix)
            except np.linalg.LinAlgError:
                out[b] = np.linalg.pinv(matrix)
        return out


def _fit_stack(curve, jacobian, x, y, weight, initial, lo, hi, *, model="custom",
               param_names=None, units=None, max_iterations=200):
    """Fit B independent problems of one model at once: ``fit_curve``'s iteration.

    ``y`` and ``weight`` have shape (B, N) and ``initial`` (B, P); ``lo`` and
    ``hi`` broadcast to (B, P).  ``curve(x, theta)`` returns the (B, N) model
    and ``jacobian(x, theta)`` its (B, N, P) derivative, for theta of shape
    (B, P); ``x`` is handed to them as given.  The model, the Jacobian, the
    normal equations and the damped solves are evaluated for the whole stack
    at once, and each problem keeps its own state: its damping, which trial
    steps it accepts, its cost history, iteration count, stop reason and
    final gradient norm.  A problem that has stopped is frozen: its rows of
    each stacked evaluation are ignored.  Every row's arithmetic is that of
    a fit of the row alone, so a problem's result does not depend on its
    neighbours, bit for bit.

    Returns one entry per problem, in order: its FitResult, or the FitError
    that ``fit_curve`` raises for it (a non-finite initial guess, too few
    points, a non-finite model or Jacobian); the other problems run on.  A
    failed problem's rows of later evaluations are replaced by zeros.
    """
    theta = np.asarray(initial, dtype=float)
    stack, size = theta.shape
    points = y.shape[1]
    if param_names is None:
        param_names = tuple(f"p{i}" for i in range(size))
    errors = [None if ok and points >= size else FitError(
        f"initial guess must be finite, got {list(theta[b])}" if not ok
        else f"{points} data points cannot constrain {size} parameters")
        for b, ok in enumerate(np.isfinite(theta).all(axis=-1).tolist())]
    if all(errors):
        return errors
    failed = None  # the rows of the problems that failed; None while none has
    if any(errors):
        failed = np.array([error is not None for error in errors])
        theta = np.where(failed[:, None], 0.0, theta)
    theta = np.clip(theta, lo, hi)
    sqrt_w = np.sqrt(weight)
    column_w = sqrt_w[..., None]

    def fail(bad, what, at):
        nonlocal failed
        for b in np.flatnonzero(bad):
            errors[b] = errors[b] or FitError(_non_finite(what, at[b]))
        failed = bad if failed is None else failed | bad

    def cost_and_residuals(th):
        model_y = curve(x, th)
        if failed is not None:
            model_y = np.where(failed[:, None], y, model_y)
        r = y - model_y
        cost = np.sum(weight * r * r, axis=-1)
        costs = cost.tolist()
        # A finite cost needs a finite model; a model may also be finite and overflow the cost.
        if not all(map(math.isfinite, costs)):
            bad = ~np.all(np.isfinite(model_y), axis=-1)
            if bad.any():
                fail(bad, "model", th)
                r = np.where(bad[:, None], 0.0, r)
                cost = np.where(bad, 0.0, cost)
                costs = cost.tolist()
        return cost, costs, r

    def weighted_jacobian(th):
        jac = jacobian(x, th)
        if failed is not None:
            jac = np.where(failed[:, None, None], 0.0, jac)
        if not np.isfinite(jac).all():
            bad = ~np.all(np.isfinite(jac), axis=(-2, -1))
            fail(bad, "model Jacobian", th)
            jac = np.where(bad[:, None, None], 0.0, jac)
        design = jac * column_w
        return design, design.transpose(0, 2, 1)

    def gradient_and_norms(design_t, residuals):
        gradient = np.matmul(design_t, (sqrt_w * residuals)[..., None])
        squares = np.matmul(gradient.transpose(0, 2, 1), gradient).ravel().tolist()
        return gradient, [math.sqrt(s) for s in squares]

    cost, costs, residuals = cost_and_residuals(theta)
    history = [[c] for c in costs]
    damping = np.zeros(stack)
    reasons = [None] * stack
    iterations = [max(max_iterations, 0)] * stack
    running = [b for b in range(stack) if errors[b] is None]
    ridge = np.zeros((stack, size, size))
    diagonal = ridge.reshape(stack, -1)[:, ::size + 1]  # a view: writes set ridge's diagonal

    for iteration in range(1, max_iterations + 1):
        design, design_t = weighted_jacobian(theta)
        gradient, norms = gradient_and_norms(design_t, residuals)
        if failed is not None:
            running = [b for b in running if errors[b] is None]
        for b in running:
            if norms[b] < _GRAD_TOL:
                reasons[b], iterations[b] = "gradient", iteration
        running = [b for b in running if reasons[b] is None]
        if not running:
            break

        normal = np.matmul(design_t, design)
        scale = np.diagonal(normal, axis1=-2, axis2=-1)
        diagonal[...] = scale + 1e-12 * np.maximum(scale.max(axis=-1, keepdims=True), 1.0)
        before = costs
        searching, accepted = running, []
        while True:
            system = normal + damping[:, None, None] * ridge
            if len(searching) < stack:  # a row not searching may be singular: it solves 1 x = g
                system[[b for b in range(stack) if b not in searching]] = np.eye(size)
            step = _solve(system, gradient)[..., 0]
            finite = np.isfinite(step).all(axis=-1).tolist()
            moved = [b for b in searching if finite[b]]  # the rows that try a step
            take = []
            if moved:
                trial = np.clip(theta + step, lo, hi)
                if len(moved) < stack:  # every other row is evaluated where it stands
                    idle = [b for b in range(stack) if b not in moved]
                    trial[idle] = theta[idle]
                trial_cost, trial_costs, trial_residuals = cost_and_residuals(trial)
                take = [b for b in moved if errors[b] is None and trial_costs[b] <= before[b]]
                if len(take) == len(moved):  # no row keeps a rejected or failed trial
                    theta, cost, costs, residuals = trial, trial_cost, trial_costs, trial_residuals
                elif take:
                    theta[take], cost[take], residuals[take] = (
                        trial[take], trial_cost[take], trial_residuals[take])
                    costs = cost.tolist()
                accepted += take
            if len(take) < len(searching):
                searching = [b for b in searching if b not in take and errors[b] is None
                             and not damping[b] > 1e8]  # else no usable step: best-so-far
            else:
                searching = []
            if not searching:
                break
            for b in searching:
                damping[b] = max(damping[b] * 10.0, 1e-4)

        for b in running:
            if b not in accepted and errors[b] is None:
                reasons[b], iterations[b] = "no_step", iteration
        running = []
        for b in accepted:
            relative_drop = (before[b] - costs[b]) / max(before[b], 1e-300)
            history[b].append(costs[b])
            damping[b] = 0.0 if damping[b] < 1e-7 else damping[b] / 10.0
            if relative_drop < _COST_TOL:
                reasons[b], iterations[b] = "cost", iteration
            else:
                running.append(b)
        if not running:
            break

    if all(errors):
        return errors
    design, design_t = weighted_jacobian(theta)
    _, norms = gradient_and_norms(design_t, residuals)
    covariance = (_inverse(np.matmul(design_t, design))
                  * (cost / max(points - size, 1))[:, None, None])
    stderr = np.sqrt(np.clip(np.diagonal(covariance, axis1=-2, axis2=-1), 0.0, None))
    return [errors[b] or FitResult(
        model=model,
        params=dict(zip(param_names, map(float, theta[b]))),
        errors=dict(zip(param_names, map(float, stderr[b]))),
        units=dict(units or {}),
        rss=costs[b],
        iterations=iterations[b],
        converged=reasons[b] in ("gradient", "cost"),
        n_points=points,
        gradient_norm=norms[b],
        stop_reason=reasons[b] or "max_iterations",
        cost_history=history[b],
    ) for b in range(stack)]


_LATTICE_TOL = 1e-9  # largest |(x - x0)/h - k| accepted as on the lattice
_LATTICE_MULTIPLE = 4  # lattice length may be at most this many times the point count
_CHUNK_CELLS = 1 << 20  # frequency x sample cells per chunk of the direct projection


def _fft_length(n: int) -> int:
    """The smallest m * 2**k >= n with m in (1, 3, 5, 9, 15), lengths numpy's FFT does fast."""
    return min(m << (-(-n // m) - 1).bit_length() for m in (1, 3, 5, 9, 15))


def _lattice(x: np.ndarray, spacing: np.ndarray):
    """Each row of the (B, N) stack x on the lattice of its smallest spacing.

    Each sample is mapped to k = rint((x - x0)/h), h = ``spacing`` of its row;
    the lattice step is then measured over the whole span, so rounding in the
    stored times does not accumulate with k.  Returns the indices k (B, N),
    the steps (B,) and each row's lattice length K, or 0 for a row off its
    lattice: more than _LATTICE_TOL from it, where the phase error would
    exceed pi * _LATTICE_TOL, or longer than _LATTICE_MULTIPLE times the
    number of samples.
    """
    offsets = x - x.min(axis=-1, keepdims=True)
    index = np.rint(offsets / spacing[:, None])
    k_max = index.max(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):  # rows too long are off anyway
        step = offsets.max(axis=-1) / k_max
        error = np.abs(offsets / step[:, None] - index).max(axis=-1)
    on = (k_max + 1 <= _LATTICE_MULTIPLE * x.shape[-1]) & ~(error > _LATTICE_TOL)
    return index, step, np.where(on, k_max + 1, 0).astype(np.int64)


def _chirp_z_power(index, step, centered, omegas, k_len: int) -> np.ndarray:
    """|sum_i centered_i e^{i omega x_i}|**2 of each row of a stack, on its uniform omega grid.

    The rows share the lattice length ``k_len`` and the grid size; ``index``
    and ``step`` are ``_lattice``'s.  The values are summed per lattice index
    (duplicates and gaps are exact), and Bluestein's identity
    jk = (j**2 + k**2 - (j - k)**2)/2 turns each row's sum into one
    convolution: three FFTs of length ``_fft_length(K + n_grid - 1)`` along
    the last axis, for the whole stack at once.
    """
    rows, n_grid = omegas.shape
    shifted = index.astype(np.int64) + k_len * np.arange(rows)[:, None]
    summed = np.bincount(shifted.ravel(), weights=centered.ravel(),
                         minlength=rows * k_len).reshape(rows, k_len)
    theta0 = (omegas[:, 0] * step)[:, None]
    dtheta = ((omegas[:, -1] - omegas[:, 0]) / max(n_grid - 1, 1) * step)[:, None]
    length = _fft_length(k_len + n_grid - 1)
    k = np.arange(k_len, dtype=float)
    chirped = summed * np.exp(1j * (theta0 * k + 0.5 * dtheta * k * k))
    m = np.arange(max(k_len, n_grid), dtype=float)
    chirp = -0.5j * dtheta * m
    chirp *= m
    np.exp(chirp, out=chirp)
    kernel = np.zeros((rows, length), dtype=complex)
    kernel[:, :n_grid] = chirp[:, :n_grid]
    kernel[:, length - k_len + 1:] = chirp[:, 1:k_len][:, ::-1]
    # Freed before, and written in place after, the FFTs: on a 1000-point record the
    # arrays are ~128 KB each, and fewer of them alive means fewer fresh pages per call.
    del chirp
    spectrum = np.fft.fft(chirped, length)
    spectrum *= np.fft.fft(kernel, out=kernel)
    amplitude = np.fft.ifft(spectrum, out=spectrum)[:, :n_grid]
    return amplitude.real ** 2 + amplitude.imag ** 2


def _projection_power(x: np.ndarray, centered: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """The same power of one row by direct cos/sin projection, _CHUNK_CELLS cells at a time."""
    rows = max(1, _CHUNK_CELLS // x.size)
    power = np.empty(omegas.size)
    for start in range(0, omegas.size, rows):
        phases = np.outer(omegas[start:start + rows], x)
        power[start:start + rows] = ((np.cos(phases) @ centered) ** 2
                                     + (np.sin(phases) @ centered) ** 2)
    return power


def _frequencies(x: np.ndarray, y: np.ndarray, oversample: int = 8,
                 max_grid: int = 20000) -> list:
    """``dominant_frequency`` of each row of the (B, N) stacks x and y, or the FitError of a row.

    Each row's checks, frequency grid and power are those of the row alone.
    The distinct times of every row, and so its span and closest spacing, come
    from one sort of the stack.  The rows on a lattice are grouped by lattice
    length and grid size, and each group is one chirp-z pass (``_chirp_z_power``);
    a row off its lattice takes the direct projection.
    """
    centered = y - y.mean(axis=-1, keepdims=True)
    flat = (np.max(np.abs(centered), axis=-1) < 1e-12).tolist()
    ordered = np.sort(x, axis=-1)
    # where a new distinct time starts (NaNs sort last and count once, as in np.unique),
    # and the gap to it: no inf - inf between repeated infinite times
    new = (ordered[:, 1:] != ordered[:, :-1]) & ~np.isnan(ordered[:, :-1])
    gaps = np.subtract(ordered[:, 1:], ordered[:, :-1], where=new, out=np.full(new.shape, np.inf))
    spans = (ordered[:, -1] - ordered[:, 0]).tolist()
    spacings = gaps.min(axis=-1, initial=np.inf).tolist()
    distinct = (1 + new.sum(axis=-1)).tolist()
    results, sizes = [], {}
    for b, (span, spacing) in enumerate(zip(spans, spacings)):
        if flat[b]:
            results.append(FitError("frequency unidentifiable: flat spectrum (constant data)"))
        elif distinct[b] < 2:
            results.append(FitError("frequency unidentifiable: degenerate time grid"))
        elif not math.pi / spacing < math.inf:
            results.append(FitError(
                f"frequency unidentifiable: time spacing {spacing} s is too fine"))
        else:
            results.append(None)
            sizes[b] = int(min(max_grid, max(64, oversample * span / spacing)))
    if not sizes:
        return results
    rows = list(sizes)
    if len(rows) < len(results):
        x, centered = x[rows], centered[rows]
    index, step, lengths = _lattice(x, np.array([spacings[b] for b in rows]))
    groups = {}
    for r, (b, k_len) in enumerate(zip(rows, lengths.tolist())):
        start, stop, n_grid = 0.5 / spans[b], 0.5 / spacings[b], sizes[b]
        if k_len:  # np.linspace takes another path for the whole stack when a step is 0
            key = (k_len, n_grid, n_grid > 1 and (stop - start) / (n_grid - 1) == 0)
            groups.setdefault(key, []).append(r)
        else:
            omegas = 2 * np.pi * np.linspace(start, stop, n_grid)
            results[b] = float(omegas[np.argmax(_projection_power(x[r], centered[r], omegas))])
    for (k_len, n_grid, _), members in groups.items():
        picked = [rows[r] for r in members]
        omegas = 2 * np.pi * np.linspace(0.5 / np.array([spans[b] for b in picked]),
                                         0.5 / np.array([spacings[b] for b in picked]),
                                         n_grid).T
        if len(members) < len(rows):  # else the arrays as they stand: one record, one lattice
            power = _chirp_z_power(index[members], step[members], centered[members], omegas,
                                   k_len)
        else:
            power = _chirp_z_power(index, step, centered, omegas, k_len)
        best = omegas[np.arange(len(members)), np.argmax(power, axis=-1)]
        for b, omega in zip(picked, best.tolist()):
            results[b] = omega
    return results


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
    Raises FitError on flat data (no identifiable frequency).  This is
    ``_frequencies`` on a stack of one row.
    """
    (omega,) = _frequencies(np.asarray(x, dtype=float).reshape(1, -1),
                            np.asarray(y, dtype=float).reshape(1, -1), oversample, max_grid)
    if isinstance(omega, FitError):
        raise omega
    return omega


# ------------------------------------------------------------------ wrappers


def _refuse_empty(data: FitData) -> None:
    """A fitter takes its start values from the data, so data without points is refused."""
    if not data.x.size:
        raise FitError("no data points to fit")


def fit_rabi(data: FitData) -> FitResult:
    """Fit offset + contrast*cos(omega_r*t) with a frequency-scan initialization."""
    _refuse_empty(data)
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
        jacobian=lambda t, theta: _rabi_jacobian(t, *theta),
        model="rabi",
        param_names=("omega_r", "contrast", "offset"),
        units={"omega_r": "rad/s", "contrast": "", "offset": ""},
    )


def fit_t1(data: FitData) -> FitResult:
    """Fit equilibrium + amplitude*exp(-t/T1) to a relaxation record."""
    _refuse_empty(data)
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
        jacobian=lambda t, theta: _t1_jacobian(t, *theta),
        model="t1",
        param_names=("t1", "amplitude", "equilibrium"),
        units={"t1": "s", "amplitude": "", "equilibrium": ""},
    )


_FRINGE_UNITS = {"visibility": "", "delta_prime": "rad/s", "phase": "rad", "t2_star": "s"}


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
    homogeneous noise is present); passing ``None`` co-fits it.  This is
    ``_fit_fringes`` on a stack of one fringe.  Data without points, and times
    that break ``bloch``'s timing rule for (n, tau) (a readout before the last
    pulse, n negative or not an integer, tau <= 0 with n >= 1), raise FitError,
    the latter with the rule's message.

    Parameters
    ----------
    data : FitData
        Fractions scanned around t = 2*n*tau (absolute times).
    n, tau : sequence geometry (n = 0, tau = 0 for Ramsey).
    t2_star : float or None
        Fixed envelope 1/e time, or None to co-fit it.
    """
    _refuse_empty(data)
    try:
        _check_timing(tau, n, data.x)
    except DomainError as exc:  # the data were not read out by this sequence: nothing to fit
        raise FitError(str(exc)) from None
    (result,) = _fit_fringes(data.x[None], data.y[None], data.weight[None], n, [tau], t2_star)
    if isinstance(result, FitError):
        raise result
    return result


def _fit_fringes(x, y, weight, n: int, taus, t2_star) -> list:
    """``fit_fringe`` of each row of the (B, N) stacks x, y and weight, ``taus`` their tau.

    The start frequencies are ``dominant_frequency``'s, found for the whole
    stack at once.  The visibility starts at the peak-to-peak of the fractions
    and the phase at 0, or at pi where the data anti-correlate with the
    phase-0 start.  A held T2* is checked once and fixes the envelope once;
    ``None`` co-fits it, from half of each row's span.  Returns each row's
    FitResult, or its FitError; a row's result is that of the row alone.
    """
    results = _frequencies(x, y)
    rows = [b for b, start in enumerate(results) if not isinstance(start, FitError)]
    if not rows:
        return results
    taus, delta0 = np.asarray(taus, dtype=float), [results[b] for b in rows]
    if len(rows) < len(results):
        x, y, weight, taus = x[rows], y[rows], weight[rows], taus[rows]
    co_fit = t2_star is None
    offset = 2 * n * taus[:, None]
    visibility0 = np.minimum(np.maximum(y.max(axis=-1) - y.min(axis=-1), 0.05), 1.0)
    columns = [visibility0, delta0, np.zeros_like(visibility0)]
    names = ("visibility", "delta_prime", "phase")
    bounds = [(0.0, 1.5), (0.0, None), None]
    if co_fit:
        columns.append((x.max(axis=-1) - x.min(axis=-1)) / 2)
        names += ("t2_star",)
        bounds.append((1e-9, None))
    elif not t2_star > 0:
        raise DomainError(f"t2_star must be positive, got {t2_star}")
    initial = np.array(columns, dtype=float).T
    envelope = None if co_fit else _envelope(x - offset, t2_star, n)

    def parameters(theta):  # each a (B, 1) column over its row
        values = theta.T[..., None]
        return (*values[:3], values[3] if co_fit else t2_star)

    def curve(t, theta):
        return _readout(_fringe(t - offset, *parameters(theta), n, envelope), False)

    def jacobian(t, theta):
        # the readout (1 - w)/2 scales every derivative of w by -1/2
        return -0.5 * _fringe_jacobian(t - offset, *parameters(theta), n, co_fit, envelope)

    start = curve(x, initial)
    centered = y - y.mean(axis=-1, keepdims=True)
    start = start - start.mean(axis=-1, keepdims=True)
    overlap = np.matmul(centered[..., None, :], start[..., :, None])[..., 0, 0]
    initial[..., 2] = np.where(overlap < 0, math.pi, 0.0)
    stacked = _fit_stack(curve, jacobian, x, y, weight, initial,
                         *_bound_arrays(bounds, len(names)),
                         model={0: "ramsey", 1: "echo_fringe"}.get(n, "cpmg_fringe"),
                         param_names=names, units=_FRINGE_UNITS)
    for b, result in zip(rows, stacked):
        if not co_fit and isinstance(result, FitResult):  # the held T2*, with error 0
            result.params["t2_star"] = float(t2_star)
            result.errors["t2_star"] = 0.0
            result.units["t2_star"] = "s (held fixed)"
        results[b] = result
    return results


def fit_visibility_decay(data: FitData, n: int) -> FitResult:
    """Fit C0*exp(-(1/2)*(t/2n)**2*sigma_sig**2) to visibility-vs-total-time points.

    Reports the derived coherence time t2_prime = 2*sqrt(2)*n/sigma_sig with
    its error propagated as |d t2_prime / d sigma| * SE(sigma).
    """
    if n < 1:
        raise FitError(f"visibility decay requires n >= 1, got {n}")
    _refuse_empty(data)
    order = np.argsort(data.x)
    x, y = data.x[order], data.y[order]
    if not x[-1] > 0:
        raise FitError(f"visibility decay needs a positive total time, got at most {x[-1]}")
    c0_guess = min(1.2, max(0.01, float(y[0])))
    halved = np.nonzero(y <= c0_guess / 2)[0]
    t_half = float(x[halved[0]]) if halved.size and x[halved[0]] > 0 else float(x[-1])
    sigma0 = 2 * n * math.sqrt(2 * math.log(2)) / t_half

    result = fit_curve(
        lambda t, theta: _visibility(t, *theta, n),
        data,
        [c0_guess, sigma0],
        bounds=[(0.0, 1.2), (0.0, None)],
        jacobian=lambda t, theta: _visibility_jacobian(t, *theta, n),
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
#: (``--tau-s``, ``--n``), ``t2_star`` takes ``--t2-star-s`` or
#: ``--fit-t2-star``, and any other of these flags is refused.
FITTERS = {
    "rabi": fit_rabi,
    "t1": fit_t1,
    "ramsey": partial(fit_fringe, n=0, tau=0.0),
    "echo_fringe": partial(fit_fringe, n=1),
    "cpmg_fringe": fit_fringe,
    "visibility": fit_visibility_decay,
}

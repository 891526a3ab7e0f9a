"""Closed-form signal models.

The inhomogeneous (shot-to-shot light shift) channel produces a fringe whose
contrast decays algebraically and whose phase chirps:

    w(t) = (-1)**n * alpha(x) * cos(delta_prime * x + kappa(x)),  x = t - 2*n*tau
    alpha(x) = [1 + (k*x/T2*)**2]**(-3/2)
    kappa(x) = -3*arctan(k*x/T2*)

These are the magnitude and phase of the characteristic function of the
shifted-Gamma light-shift distribution with scale eta = T2*/k, the law the
simulator draws, so the fitted T2* is the simulated one.  One constant,
k = ``T2_STAR_PER_ETA`` = 0.97, enters both: its square in alpha, itself in
kappa.  The paper rounds e**(2/3) - 1 = 0.9477 (in alpha) and its square
root 0.9735 (in kappa) to two decimals each, and no single eta satisfies
both of its printed constants.  With k = 0.97, alpha(T2*) = 0.370, not
exactly 1/e = 0.368; the exact k = sqrt(e**(2/3) - 1) would move every
dataset simulated from a T2*.

The homogeneous (per-shot drift) channel leaves a Gaussian visibility decay:

    V(t) = C0 * exp(-(1/2) * (t/2n)**2 * sigma_sig**2),   t = 2*n*tau

with 1/e time T2' = 2*sqrt(2)*n/sigma_sig -- coherence prolonged linearly in
the number of refocusing pulses.  Off the echo the jumps leave the factor
exp(-(1/2) * sum_i (c_i*sigma_i)**2) (``_gaussian_factor``), with c_i the
``bloch.jump_weights``.

Auxiliary models: Rabi oscillation of the measured state fraction and the
exponential trap-lifetime decay used to calibrate the qubit readout.

Each model's formula is written once, as an unchecked array function
(``_fringe``, ``_visibility``, ``_rabi``, ``_t1``).  The public model checks
its arguments and calls it; the fits in ``dephasim.fit`` evaluate the same
function, so the fitted curve is the documented model.  Beside each formula
is its derivative with respect to the fitted parameters (``_fringe_jacobian``,
``_visibility_jacobian``, ``_rabi_jacobian``, ``_t1_jacobian``), one column
per parameter, which the fits take as their Jacobian.
"""

from __future__ import annotations

import math

import numpy as np

from .bloch import _check_timing
from .errors import DomainError

__all__ = [
    "T2_STAR_PER_ETA",
    "envelope_alpha",
    "envelope_kappa",
    "fringe_inhomogeneous",
    "visibility_cpmg",
    "homogeneous_factor",
    "t2_prime",
    "rabi_fraction",
    "t1_fraction",
    "fraction_from_w",
    "w_from_fraction",
]


#: k = T2*/eta: the fringe-envelope 1/e time T2* per unit of the light-shift
#: scale eta.  The envelopes and the simulator's eta = T2*/k both read it.
T2_STAR_PER_ETA = 0.97


def _scalar_or_array(x, out):
    return float(out) if np.ndim(x) == 0 else out


def envelope_alpha(x, t2_star: float):
    """Fringe-contrast envelope [1 + (k*x/T2*)**2]**(-3/2), k = ``T2_STAR_PER_ETA``."""
    if not t2_star > 0:
        raise DomainError(f"t2_star must be positive, got {t2_star}")
    return _scalar_or_array(x, _envelope(x, t2_star, 0)[0])


def envelope_kappa(x, t2_star: float):
    """Fringe phase chirp -3*arctan(k*x/T2*), k = ``T2_STAR_PER_ETA``."""
    if not t2_star > 0:
        raise DomainError(f"t2_star must be positive, got {t2_star}")
    return _scalar_or_array(x, _envelope(x, t2_star, 0)[1])


def _envelope(x, t2_star, n):
    """(-1)**n * alpha(x) and kappa(x), the envelope part of ``_fringe``, from one kr = k*x/T2*.

    Unchecked; t2_star is a number, or a (B, 1) column for a (B, N) stack of fringes.
    """
    with np.errstate(over="ignore"):  # kr or kr**2 = inf gives alpha's correct limit, 0
        kr = T2_STAR_PER_ETA * np.asarray(x, dtype=float) / t2_star
        return (-1.0) ** n * (1.0 + kr**2) ** -1.5, -3.0 * np.arctan(kr)


def _columns(*columns):
    """A Jacobian from its columns, each of x's shape: one column per parameter on a last axis.

    The same C-ordered array as ``np.column_stack`` for 1-D columns, built
    with less overhead, and (B, N, P) for a stack of fringes.
    """
    jacobian = np.empty(np.shape(columns[0]) + (len(columns),))
    for j, column in enumerate(columns):
        jacobian[..., j] = column
    return jacobian


def _fringe(x, visibility, delta_prime, phase, t2_star, n, envelope=None):
    """visibility * (-1)**n * alpha(x) * cos(delta_prime*x + phase + kappa(x)).

    x is the time from the echo, t - 2*n*tau; ``envelope``, when given, is
    ``_envelope(x, t2_star, n)``.  Nothing is checked.
    """
    signed_alpha, kappa = _envelope(x, t2_star, n) if envelope is None else envelope
    return visibility * signed_alpha * np.cos(delta_prime * x + phase + kappa)


def _fringe_jacobian(x, visibility, delta_prime, phase, t2_star, n, with_t2_star, envelope=None):
    """Columns d/d(visibility, delta_prime, phase) of ``_fringe``, then d/d t2_star if asked.

    The columns make the last axis, after the shape of x (a stack of fringes
    gives (B, N, P)).  ``envelope`` is as for ``_fringe``.  With kr = k*x/T2*:
    d alpha/d T2* = alpha * 3 kr**2 / (T2* (1 + kr**2)) and
    d kappa/d T2* = 3 kr / (T2* (1 + kr**2)).
    """
    signed_alpha, kappa = _envelope(x, t2_star, n) if envelope is None else envelope
    psi = delta_prime * x + phase + kappa
    cos_part = signed_alpha * np.cos(psi)                # d/d visibility
    d_psi = -visibility * signed_alpha * np.sin(psi)     # d/d phase
    columns = [cos_part, d_psi * x, d_psi]
    if with_t2_star:
        kr = T2_STAR_PER_ETA * x / t2_star
        columns.append(3.0 * kr * (visibility * cos_part * kr + d_psi)
                       / ((1.0 + kr**2) * t2_star))
    return _columns(*columns)


def fringe_inhomogeneous(t, delta_prime: float, t2_star: float, n: int, tau: float = 0.0):
    """Ensemble-averaged fringe under the shifted-Gamma light-shift law.

    Returns (-1)**n * alpha(x) * cos(delta_prime*x + kappa(x)) with
    x = t - 2*n*tau.  delta_prime is the net carrier detuning (set detuning
    minus magnetic shift minus the light-shift onset), rad/s; t2_star may be
    ``math.inf`` for a pure cosine.  For n = 0 this is the Ramsey fringe;
    readout times before the last refocusing pulse (or negative times for
    n = 0) are rejected.
    """
    if not t2_star > 0:
        raise DomainError(f"t2_star must be positive, got {t2_star}")
    x = _check_timing(tau, n, t) - 2 * n * tau
    return _scalar_or_array(t, _fringe(x, 1.0, delta_prime, 0.0, t2_star, n))


def _visibility(t, c0, sigma_sig, n):
    """C0 * exp(-(1/2)*(t/2n)**2 * sigma_sig**2), unchecked."""
    return c0 * np.exp(-0.5 * (t / (2 * n)) ** 2 * sigma_sig**2)


def _visibility_jacobian(t, c0, sigma_sig, n):
    """Columns d/d(c0, sigma_sig) of ``_visibility``."""
    u = (t / (2 * n)) ** 2
    decay = np.exp(-0.5 * u * sigma_sig**2)
    return _columns(decay, -c0 * sigma_sig * u * decay)


def visibility_cpmg(t, c0: float, sigma_sig: float, n: int):
    """Gaussian visibility decay C0 * exp(-(1/2)*(t/2n)**2 * sigma_sig**2)."""
    if not 0.0 <= c0 <= 1.0:
        raise DomainError(f"c0 must lie in [0, 1], got {c0}")
    if sigma_sig < 0:
        raise DomainError(f"sigma_sig must be >= 0, got {sigma_sig}")
    if n < 1:
        raise DomainError(f"visibility model needs n >= 1, got {n}")
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise DomainError("total time t must be >= 0")
    return _scalar_or_array(t, _visibility(t_arr, c0, sigma_sig, n))


def _gaussian_factor(c, sigmas):
    """exp(-(1/2) * sum_i (c_i*sigma_i)**2) over the last axis, unchecked.

    The mean of cos(sum_i c_i*J_i) over independent zero-mean Gaussian jumps
    J_i with standard deviations sigma_i, one factor per row of c.  A sum of
    squares that overflows is a fully dephased point: the factor is 0.
    """
    with np.errstate(over="ignore"):
        s2 = np.sum(np.atleast_1d(c * sigmas) ** 2, axis=-1)
    return np.exp(-0.5 * s2)


def homogeneous_factor(tau: float, sigmas) -> float:
    """Ensemble-averaged fringe reduction exp(-(1/2)*tau**2*sum(sigma_i**2)).

    This is the mean of cos(tau * sum_i +-jump_i) over independent Gaussian
    jumps with standard deviations sigma_i: the visibility left at the echo
    time by homogeneous noise.
    """
    if tau < 0:
        raise DomainError(f"tau must be >= 0, got {tau}")
    arr = np.asarray(sigmas, dtype=float)
    if np.any(arr < 0):
        raise DomainError("all sigma_i must be >= 0")
    return float(_gaussian_factor(tau, arr))


def t2_prime(n: int, sigma_sig: float) -> float:
    """Coherence 1/e time 2*sqrt(2)*n/sigma_sig of the Gaussian decay.

    sigma_sig = 0 means no homogeneous decay at all; that limit is signaled
    distinctly by returning ``math.inf``.
    """
    if n < 1:
        raise DomainError(f"t2_prime requires n >= 1, got {n}")
    if sigma_sig < 0:
        raise DomainError(f"sigma_sig must be >= 0, got {sigma_sig}")
    if sigma_sig == 0:
        return math.inf
    return 2.0 * math.sqrt(2.0) * n / sigma_sig


def _rabi(t, omega_r, contrast, offset):
    """offset + contrast*cos(omega_r*t), unchecked."""
    return offset + contrast * np.cos(omega_r * t)


def _rabi_jacobian(t, omega_r, contrast, offset):
    """Columns d/d(omega_r, contrast, offset) of ``_rabi``."""
    phase = omega_r * t
    return _columns(-contrast * t * np.sin(phase), np.cos(phase), 1.0)


def rabi_fraction(t, omega_r: float, contrast: float, offset: float):
    """Driven-oscillation model offset + contrast*cos(omega_r*t).

    The measured fraction starts at its extremum at t = 0 (the qubit is
    prepared in the bright state of the readout), so the model carries no
    free phase.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise DomainError("pulse duration must be >= 0")
    return _scalar_or_array(t, _rabi(t_arr, omega_r, contrast, offset))


def _t1(t, t1, amplitude, equilibrium):
    """equilibrium + amplitude*exp(-t/T1), unchecked."""
    return equilibrium + amplitude * np.exp(-t / t1)


def _t1_jacobian(t, t1, amplitude, equilibrium):
    """Columns d/d(t1, amplitude, equilibrium) of ``_t1``."""
    decay = np.exp(-t / t1)
    return _columns(amplitude * t / t1**2 * decay, decay, 1.0)


def t1_fraction(t, t1: float, amplitude: float, equilibrium: float):
    """Relaxation model equilibrium + amplitude*exp(-t/T1)."""
    if not t1 > 0:
        raise DomainError(f"t1 must be positive, got {t1}")
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise DomainError("trapping time must be >= 0")
    return _scalar_or_array(t, _t1(t_arr, t1, amplitude, equilibrium))


_W_TOLERANCE = 1e-9


def fraction_from_w(w, invert: bool = False):
    """Map the fringe observable w in [-1, 1] to a measured fraction in [0, 1].

    Default convention: fraction = (1 - w)/2, i.e. w = -1 is the state that
    survives readout with fraction 1.  ``invert=True`` selects the opposite
    convention (1 + w)/2; the measurement only fixes the convention up to
    this flip.  Values outside [-1, 1] (beyond float fuzz) are rejected.
    """
    arr = np.asarray(w, dtype=float)
    if np.any(np.abs(arr) > 1.0 + _W_TOLERANCE):
        bad = arr[np.abs(arr) > 1.0 + _W_TOLERANCE]
        raise DomainError(f"w outside [-1, 1]: {bad.flat[0]}")
    return _scalar_or_array(w, _readout(np.clip(arr, -1.0, 1.0), invert))


def _readout(w, invert: bool):
    """The readout map (1 - w)/2, or (1 + w)/2 when ``invert``; w is not range-checked."""
    return (1.0 + w) / 2.0 if invert else (1.0 - w) / 2.0


def w_from_fraction(fraction, invert: bool = False):
    """Inverse of fraction_from_w."""
    arr = np.asarray(fraction, dtype=float)
    if np.any((arr < -_W_TOLERANCE) | (arr > 1.0 + _W_TOLERANCE)):
        raise DomainError("fraction outside [0, 1]")
    arr = np.clip(arr, 0.0, 1.0)
    out = 2.0 * arr - 1.0 if invert else 1.0 - 2.0 * arr
    return _scalar_or_array(fraction, out)

"""Closed-form signal models.

The inhomogeneous (shot-to-shot light shift) channel produces a fringe whose
contrast decays algebraically and whose phase chirps:

    w(t) = (-1)**n * alpha(x) * cos(delta_prime * x + kappa(x)),  x = t - 2*n*tau
    alpha(x) = [1 + 0.95*(x/T2*)**2]**(-3/2)
    kappa(x) = -3*arctan(0.97*x/T2*)

These are the magnitude and phase of the characteristic function of the
shifted-Gamma light-shift distribution with scale eta = T2*/0.97; the literal
constants 0.95 and 0.97 are two-decimal roundings of e**(2/3) - 1 and its
square root (the 1/e point of the envelope defines T2*).  The exact
characteristic-function forms are exposed separately for oracle tests.

The homogeneous (per-shot drift) channel leaves a Gaussian visibility decay:

    V(t) = C0 * exp(-(1/2) * (t/2n)**2 * sigma_sig**2),   t = 2*n*tau

with 1/e time T2' = 2*sqrt(2)*n/sigma_sig -- coherence prolonged linearly in
the number of refocusing pulses.

Auxiliary models: Rabi oscillation of the measured state fraction and the
exponential trap-lifetime decay used to calibrate the qubit readout.

Each model's formula is written once, as an unchecked array function
(``_fringe``, ``_visibility``, ``_rabi``, ``_t1``).  The public model checks
its arguments and calls it; the fits in ``dephasim.fit`` evaluate the same
function, so the fitted curve is the documented model.
"""

from __future__ import annotations

import math

import numpy as np

from .bloch import _check_timing
from .errors import DomainError

__all__ = [
    "envelope_alpha",
    "envelope_kappa",
    "envelope_alpha_exact",
    "envelope_kappa_exact",
    "fringe_inhomogeneous",
    "visibility_cpmg",
    "homogeneous_factor",
    "t2_prime",
    "rabi_fraction",
    "t1_fraction",
    "fraction_from_w",
    "w_from_fraction",
]


def _scalar_or_array(x, out):
    return float(out) if np.ndim(x) == 0 else out


def envelope_alpha(x, t2_star: float):
    """Fringe-contrast envelope [1 + 0.95*(x/T2*)**2]**(-3/2)."""
    if not t2_star > 0:
        raise DomainError(f"t2_star must be positive, got {t2_star}")
    r = np.asarray(x, dtype=float) / t2_star
    return _scalar_or_array(x, (1.0 + 0.95 * r**2) ** -1.5)


def envelope_kappa(x, t2_star: float):
    """Fringe phase chirp -3*arctan(0.97*x/T2*)."""
    if not t2_star > 0:
        raise DomainError(f"t2_star must be positive, got {t2_star}")
    r = np.asarray(x, dtype=float) / t2_star
    return _scalar_or_array(x, -3.0 * np.arctan(0.97 * r))


def envelope_alpha_exact(x, eta: float):
    """Exact envelope: magnitude (1 + (x/eta)**2)**(-3/2) of the Gamma characteristic function."""
    if not eta > 0:
        raise DomainError(f"eta must be positive, got {eta}")
    r = np.asarray(x, dtype=float) / eta
    return _scalar_or_array(x, (1.0 + r**2) ** -1.5)


def envelope_kappa_exact(x, eta: float):
    """Exact phase: -3*arctan(x/eta) of the Gamma characteristic function."""
    if not eta > 0:
        raise DomainError(f"eta must be positive, got {eta}")
    r = np.asarray(x, dtype=float) / eta
    return _scalar_or_array(x, -3.0 * np.arctan(r))


def _fringe(x, visibility, delta_prime, phase, t2_star, n):
    """visibility * (-1)**n * alpha(x) * cos(delta_prime*x + phase + kappa(x)).

    x is the time from the echo, t - 2*n*tau.  Nothing is checked but the
    envelopes' t2_star > 0.
    """
    return (visibility * (-1.0) ** n * envelope_alpha(x, t2_star)
            * np.cos(delta_prime * x + phase + envelope_kappa(x, t2_star)))


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
    return float(np.exp(-0.5 * tau**2 * np.sum(arr**2)))


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

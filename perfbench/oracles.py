"""Closed forms the benchmark checks dephasim's outputs against.

Everything here is written from the physics, not from the package: no
function imports ``dephasim``.  ``test_oracles.py`` pins each formula to
``scipy.integrate.quad`` or to brute-force draws.
"""

from __future__ import annotations

import math

import numpy as np

# ----------------------------------------------------------------- Ramsey


def ramsey_mean_cos(t, delta: float, delta0: float, eta: float, harmonic: int = 1):
    """E[cos(h*(delta - L)*t)] for a light shift L = delta0 + Gamma(shape 3, rate eta).

    The Gamma characteristic function gives Re[e^{ih(delta-delta0)t} (1 + iht/eta)^-3]
    (Kuhr et al., PRA 72, 023406, 2005).  ``harmonic = 2`` gives the second
    moment needed for the finite-draw variance.
    """
    ht = harmonic * np.asarray(t, dtype=float)
    return np.real(np.exp(1j * (delta - delta0) * ht) * (1.0 + 1j * ht / eta) ** -3)


def ramsey_count_moments(t, delta, delta0, eta, contrast, cycles: int, draws: int):
    """Mean and variance of the success count of one simulated Ramsey point.

    The program averages ``draws`` single-draw fractions (1 - contrast*cos)/2
    into p_hat, then draws Binomial(cycles, p_hat).  By the law of total
    variance Var[k] = N p (1 - p) + N (N - 1) Var[p_hat]: the binomial term
    plus the finite-draw term.
    """
    m1 = ramsey_mean_cos(t, delta, delta0, eta)
    m2 = ramsey_mean_cos(t, delta, delta0, eta, harmonic=2)
    p = (1.0 - contrast * m1) / 2.0
    var_cos = (1.0 + m2) / 2.0 - m1**2
    var_p_hat = contrast**2 * var_cos / 4.0 / draws
    n = float(cycles)
    return n * p, n * p * (1.0 - p) + n * (n - 1.0) * var_p_hat


# ------------------------------------------------------------------- CPMG


def cpmg_visibility(total_time, c0: float, sigma_sig: float, n: int):
    """C0 * exp(-(1/2) (t/2n)^2 sigma_sig^2): the n-pulse Gaussian filter factor at the echo.

    With per-pulse jumps J_i ~ N(0, sigma_i^2) the echo phase is
    tau * sum_i (+-J_i), whose variance is tau^2 * sigma_sig^2 with
    tau = t / 2n (Cywinski et al., PRB 77, 174509, 2008).
    """
    t = np.asarray(total_time, dtype=float)
    return c0 * np.exp(-0.5 * (t / (2 * n)) ** 2 * sigma_sig**2)


# ------------------------------------------------- fit-record generators


def envelope_alpha(x, t2_star: float):
    """Ramsey contrast envelope [1 + 0.95 (x/T2*)^2]^(-3/2), the fit model's form."""
    r = np.asarray(x, dtype=float) / t2_star
    return (1.0 + 0.95 * r**2) ** -1.5


def envelope_kappa(x, t2_star: float):
    """Ramsey phase chirp -3 atan(0.97 x/T2*), the fit model's form."""
    return -3.0 * np.arctan(0.97 * np.asarray(x, dtype=float) / t2_star)


def ramsey_fraction(t, visibility, delta_prime, phase, t2_star):
    x = np.asarray(t, dtype=float)
    w = visibility * envelope_alpha(x, t2_star) * np.cos(
        delta_prime * x + phase + envelope_kappa(x, t2_star))
    return (1.0 - w) / 2.0


def cpmg_fringe_fraction(t, n: int, tau: float, visibility, delta_prime, phase):
    """Fraction of an n-pulse fringe with no envelope, read out at x = t - 2n*tau."""
    x = np.asarray(t, dtype=float) - 2 * n * tau
    return (1.0 - (-1) ** n * visibility * np.cos(delta_prime * x + phase)) / 2.0


def rabi_fraction(t, omega_r, contrast, offset):
    return offset + contrast * np.cos(omega_r * np.asarray(t, dtype=float))


def t1_fraction(t, t1, amplitude, equilibrium):
    return equilibrium + amplitude * np.exp(-np.asarray(t, dtype=float) / t1)


def wrapped_difference(a: float, b: float) -> float:
    """a - b reduced to (-pi, pi]: fitted phases are defined modulo 2 pi."""
    return math.remainder(a - b, 2 * math.pi)

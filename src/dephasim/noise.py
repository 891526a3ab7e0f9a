"""Stochastic models of the dephasing environment.

Two noise channels drive the loss of fringe contrast:

* inhomogeneous: from shot to shot the qubit sees a different differential
  light shift delta_ls, distributed as a Gamma(3, rate eta) law shifted to
  start at delta0 (an energy-distribution consequence of thermal motion in
  the trap);
* homogeneous: within one shot the detuning drifts, which a pulse train only
  feels through the time-averaged detuning change jump_i across each
  refocusing pulse.  The reduced statistics are independent zero-mean
  Gaussians with standard deviations sigma_i, whose quadrature sum
  sigma_sig must be finite.

The light shift is drawn by inversion, three float32 uniforms and one
float32 logarithm per draw (``gamma3_log``, and ``lightshift_sample`` on top
of it), from an explicitly passed numpy Generator; nothing here touches
global RNG state.  The jumps enter a pulse sequence only through one weighted
sum, a single Gaussian, which the ensemble average takes in closed form
(``montecarlo.ensemble_probability``) instead of drawing it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import T2_STAR_PER_ETA
from .errors import DomainError

__all__ = [
    "LightShiftDistribution",
    "HomogeneousNoiseSpec",
    "gamma3_log",
    "lightshift_pdf",
    "lightshift_sample",
]


@dataclass(frozen=True)
class LightShiftDistribution:
    """Shifted-Gamma distribution of the differential light shift.

    The density is ``eta**3/2 * (x - delta0)**2 * exp(-eta*(x - delta0))``
    for x >= delta0 and zero below: a Gamma with shape 3 and rate eta,
    shifted by delta0.

    Parameters
    ----------
    delta0 : float
        Onset (maximum differential light shift), rad/s.  May be negative;
        the sign interpretation is left to configuration.
    eta : float
        Scale parameter in seconds (> 0).
    """

    delta0: float
    eta: float

    def __post_init__(self):
        if not self.eta > 0:
            raise DomainError(f"eta must be positive, got {self.eta}", field="eta")

    @staticmethod
    def from_t2_star(t2_star: float, delta0: float = 0.0) -> "LightShiftDistribution":
        """Derive eta from the Ramsey-envelope time: eta = T2*/k, k = ``T2_STAR_PER_ETA``.

        The fit model's envelopes (``analytic.envelope_alpha`` and
        ``envelope_kappa``) are the magnitude and phase of this law's
        characteristic function.
        """
        if not t2_star > 0:
            raise DomainError(f"T2* must be positive, got {t2_star}", field="t2_star")
        return LightShiftDistribution(delta0=delta0, eta=t2_star / T2_STAR_PER_ETA)


def lightshift_pdf(dist: LightShiftDistribution, delta_ls) -> np.ndarray | float:
    """Probability density of the shifted-Gamma light-shift law.

    Accepts scalars or arrays; returns 0 below the onset ``dist.delta0``.
    """
    x = np.asarray(delta_ls, dtype=float)
    z = dist.eta * (x - dist.delta0)
    out = np.where(z >= 0, 0.5 * dist.eta * z**2 * np.exp(-np.clip(z, 0, None)), 0.0)
    return float(out) if out.ndim == 0 else out


def gamma3_log(rng: np.random.Generator, size: int) -> np.ndarray:
    """float32 L = log((1 - U1)(1 - U2)(1 - U3)) for ``size`` draws, so G = -L/eta ~ Gamma(3, eta).

    A sum of three exponential(eta) variates is Gamma(3, eta), and each
    exponential is -log(1 - U)/eta for a uniform U.  The U are numpy's own
    float32 uniforms, (w >> 8) * 2**-24 for each 32-bit half w of the
    generator's raw 64-bit words, low half first, taken in bulk from
    ``rng.bit_generator.random_raw`` (read as little-endian halves, so the
    result does not depend on byte order; MT19937's raw words are 32-bit
    values, one w each): U1 is the first ``size`` of them, then U2 and U3,
    bit for bit ``rng.random(3 * size, dtype=np.float32)``, and for an even
    3 * size the generator is left where that call leaves it.  (The raw words
    skip a 32-bit half that an odd-sized float32 call has left buffered in
    the generator; the draws in this package never leave one.)
    1 - U = m * 2**-24 with the integer m = 2**24 - (w >> 8) in [1, 2**24] is
    exact in float32, so the product is at least 2**-72, a normal float32,
    and L lies in [-72 ln 2, 0]: U = 0 gives L = 0, the largest uniforms
    L = log(2**-72).  The words are converted to float32 in place (one
    buffer per call), and the product and logarithm run in its first third.
    """
    raw = rng.bit_generator.random_raw
    if isinstance(rng.bit_generator, np.random.MT19937):
        halves = raw(3 * size).astype(np.uint32)
    else:
        halves = np.asarray(raw((3 * size + 1) // 2), dtype="<u8").view("<u4")[:3 * size]
    halves >>= 8
    np.subtract(np.uint32(1 << 24), halves, out=halves)
    factors = halves.view(np.float32)
    np.copyto(factors, halves, casting="unsafe")  # element by element, in place
    log_g = factors[:size]  # the product of the m, then 2**-72: it rounds as that of the 1 - U
    log_g *= factors[size:2 * size]
    log_g *= factors[2 * size:]
    log_g *= np.float32(2.0**-72)
    return np.log(log_g, out=log_g)


def lightshift_sample(
    dist: LightShiftDistribution, rng: np.random.Generator, size: int | None = None
):
    """Draw light-shift values delta0 - L/eta, with L from ``gamma3_log``, in float64.

    G = -L/eta ~ Gamma(shape 3, rate eta), so every draw lies in
    [delta0, delta0 + 72 ln 2/eta]; U = 0 gives exactly delta0.  Returns a
    float for ``size=None``, else an array of the given length.
    """
    g = gamma3_log(rng, 1 if size is None else size).astype(np.float64)
    g *= -1.0 / dist.eta
    g += dist.delta0
    return float(g[0]) if size is None else g


@dataclass(frozen=True)
class HomogeneousNoiseSpec:
    """Per-interval Gaussian statistics of the detuning jumps across pulses.

    ``sigmas[i]`` is the standard deviation (rad/s) of the time-averaged
    detuning change across refocusing pulse i + 1.  The aggregate scale
    sigma_sig with sigma_sig**2 = sum(sigma_i**2) is always recomputed from
    the list, never stored.
    """

    sigmas: np.ndarray

    def __post_init__(self):
        sigmas = np.atleast_1d(np.asarray(self.sigmas, dtype=float))
        if sigmas.ndim != 1 or sigmas.shape[0] < 1:
            raise DomainError("expected a non-empty list of frequencies "
                              "(a non-empty one-dimensional array)", field="sigmas")
        if np.any(sigmas < 0):
            i = int(np.argmax(sigmas < 0))
            raise DomainError(f"sigmas[{i}] must be >= 0, got {sigmas[i]} rad/s",
                              field=f"sigmas[{i}]")
        with np.errstate(over="ignore"):
            if not np.isfinite(np.sum(sigmas**2)):
                raise DomainError(f"sigmas {sigmas.tolist()}: the quadrature sum is not finite",
                                  field="sigmas")
        object.__setattr__(self, "sigmas", sigmas)

    @property
    def n(self) -> int:
        return self.sigmas.shape[0]

    @property
    def sigma_sig(self) -> float:
        return float(np.sqrt(np.sum(self.sigmas**2)))

    @staticmethod
    def from_sigma_sig(sigma_sig: float, n: int) -> "HomogeneousNoiseSpec":
        """Equal per-interval split: sigma_i = sigma_sig / sqrt(n).

        Only the aggregate is experimentally constrained; the equal split is
        a reporting convention, not a physics statement.
        """
        if sigma_sig < 0:
            raise DomainError(f"sigma_sig must be >= 0, got {sigma_sig} rad/s", field="sigma_sig")
        if n < 1:
            raise DomainError(f"need at least one interval, got n = {n}", field="sigma_sig")
        return HomogeneousNoiseSpec(np.full(n, sigma_sig / np.sqrt(n)))

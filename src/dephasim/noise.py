"""Stochastic models of the dephasing environment.

Two noise channels drive the loss of fringe contrast:

* inhomogeneous: from shot to shot the qubit sees a different differential
  light shift delta_ls, distributed as a Gamma(3, rate eta) law shifted to
  start at delta0 (an energy-distribution consequence of thermal motion in
  the trap);
* homogeneous: within one shot the detuning drifts, which a pulse train only
  feels through the time-averaged detuning change jump_i across each
  refocusing pulse.  The reduced statistics are independent zero-mean
  Gaussians with standard deviations sigma_i.

The light shift is drawn by inversion, three uniforms and one logarithm per
draw (``lightshift_sample``); the jumps enter a pulse sequence only through
one weighted sum, drawn as one Gaussian per shot (``sample_jump_phase``).
Both channels are sampled with explicitly passed numpy Generators; nothing
here touches global RNG state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import SegmentDetunings, jump_weights
from .errors import DomainError

__all__ = [
    "LightShiftDistribution",
    "HomogeneousNoiseSpec",
    "DetuningTrace",
    "lightshift_pdf",
    "lightshift_cdf",
    "lightshift_sample",
    "sample_jump_phase",
    "reduce_trace",
    "white_piecewise_trace",
]

# Exact SI values.
_HBAR = 1.054571817e-34  # J s
_KB = 1.380649e-23  # J / K

#: Ratio between the fringe-envelope 1/e time T2* and the distribution scale
#: eta; see the analytic module's envelope functions.
T2_STAR_PER_ETA = 0.97


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
            raise DomainError(f"eta must be positive, got {self.eta}")

    @staticmethod
    def from_physical(
        delta_eff: float, temperature: float, omega_hfs: float
    ) -> "LightShiftDistribution":
        """Derive eta = 2*hbar*delta_eff / (k_B * T * omega_hfs), delta0 = 0.

        Parameters are the effective trap-laser detuning (rad/s), the atom
        temperature (K), and the hyperfine splitting (rad/s).
        """
        eta = 2.0 * _HBAR * delta_eff / (_KB * temperature * omega_hfs)
        return LightShiftDistribution(delta0=0.0, eta=eta)

    @staticmethod
    def from_t2_star(t2_star: float, delta0: float = 0.0) -> "LightShiftDistribution":
        """Derive eta from the Ramsey-envelope 1/e time: eta = T2*/0.97."""
        if not t2_star > 0:
            raise DomainError(f"T2* must be positive, got {t2_star}")
        return LightShiftDistribution(delta0=delta0, eta=t2_star / T2_STAR_PER_ETA)

    def mean(self) -> float:
        return self.delta0 + 3.0 / self.eta

    def var(self) -> float:
        return 3.0 / self.eta**2


def lightshift_pdf(dist: LightShiftDistribution, delta_ls) -> np.ndarray | float:
    """Probability density of the shifted-Gamma light-shift law.

    Accepts scalars or arrays; returns 0 below the onset ``dist.delta0``.
    """
    x = np.asarray(delta_ls, dtype=float)
    z = dist.eta * (x - dist.delta0)
    out = np.where(z >= 0, 0.5 * dist.eta * z**2 * np.exp(-np.clip(z, 0, None)), 0.0)
    return float(out) if out.ndim == 0 else out


def lightshift_cdf(dist: LightShiftDistribution, delta_ls) -> np.ndarray | float:
    """Cumulative distribution: 1 - exp(-z)(1 + z + z^2/2) with z = eta*(x - delta0)."""
    x = np.asarray(delta_ls, dtype=float)
    z = np.clip(dist.eta * (x - dist.delta0), 0, None)
    out = -np.expm1(-z) - np.exp(-z) * (z + 0.5 * z**2)
    return float(out) if out.ndim == 0 else out


def lightshift_sample(
    dist: LightShiftDistribution, rng: np.random.Generator, size: int | None = None
):
    """Draw light-shift values delta0 + G, with G ~ Gamma(shape 3, rate eta), by inversion.

    A sum of three exponential(eta) variates is Gamma(3, eta), and each
    exponential is -log(1 - U)/eta for a uniform U, so
    G = -log((1 - U1)(1 - U2)(1 - U3))/eta: three uniforms and one
    logarithm per draw.  ``rng.random`` gives U in [0, 1), so every factor
    lies in (0, 1] and the product is at least 2**-159; the logarithm is
    always finite, and U = 0 gives exactly delta0.  The uniforms come from
    one ``rng.random((3, size))`` call (contiguous rows) and the product,
    logarithm and scaling run in place in its first row.  Returns a float
    for ``size=None``, else an array of the given length.
    """
    u = rng.random((3, 1 if size is None else size))
    np.subtract(1.0, u, out=u)
    g = u[0]
    g *= u[1]
    g *= u[2]
    np.log(g, out=g)
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
            raise DomainError("sigmas must be a non-empty one-dimensional list")
        if np.any(sigmas < 0):
            raise DomainError("all sigma_i must be >= 0")
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
            raise DomainError(f"sigma_sig must be >= 0, got {sigma_sig}")
        if n < 1:
            raise DomainError(f"need at least one interval, got n = {n}")
        return HomogeneousNoiseSpec(np.full(n, sigma_sig / np.sqrt(n)))


def sample_jump_phase(
    spec: HomogeneousNoiseSpec, tau: float, t: float, rng: np.random.Generator,
    size: int | None = None,
):
    """Draw the phase sum_i c_i * jump_i that the jumps leave at readout time t.

    The c_i are ``bloch.jump_weights(tau, spec.n, t)``.  A weighted sum of
    independent zero-mean Gaussians is one Gaussian with standard deviation
    sqrt(sum_i c_i**2 * sigma_i**2), so one standard normal per shot replaces
    n.  Returns a float for ``size=None``, else an array.
    """
    c = jump_weights(tau, spec.n, t)
    scale = float(np.sqrt(np.sum((c * spec.sigmas) ** 2)))
    return scale * rng.standard_normal(size)


@dataclass(frozen=True)
class DetuningTrace:
    """Piecewise representation of a detuning time-trace delta(t).

    ``kind="sampled"``: ``values[j]`` is delta at ``times[j]`` and the trace
    is linearly interpolated between samples (trapezoidal integration).
    ``kind="piecewise_constant"``: ``values[j]`` holds on
    [times[j], times[j+1]), so ``len(values) == len(times) - 1`` (exact
    integration).  Times are seconds, values rad/s.
    """

    times: np.ndarray
    values: np.ndarray
    kind: str = "sampled"

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if self.kind not in ("sampled", "piecewise_constant"):
            raise DomainError(f"unknown trace kind {self.kind!r}")
        if times.ndim != 1 or times.shape[0] < 2:
            raise DomainError("trace needs at least two time points")
        if np.any(np.diff(times) <= 0):
            raise DomainError("trace times must be strictly increasing")
        expected = times.shape[0] if self.kind == "sampled" else times.shape[0] - 1
        if values.shape != (expected,):
            raise DomainError(
                f"{self.kind} trace with {times.shape[0]} times needs {expected} "
                f"values, got {values.shape}"
            )
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def integrate(self, a: float, b: float) -> float:
        """Integral of delta(t) over [a, b], which must lie inside the trace."""
        if a > b:
            raise DomainError(f"empty integration window [{a}, {b}]")
        if a < self.times[0] or b > self.times[-1]:
            raise DomainError(
                f"window [{a}, {b}] outside trace support "
                f"[{self.times[0]}, {self.times[-1]}]"
            )
        if self.kind == "piecewise_constant":
            lo = np.maximum(self.times[:-1], a)
            hi = np.minimum(self.times[1:], b)
            return float(np.sum(self.values * np.clip(hi - lo, 0.0, None)))
        inner = self.times[(self.times > a) & (self.times < b)]
        grid = np.concatenate(([a], inner, [b]))
        return float(np.trapezoid(np.interp(grid, self.times, self.values), grid))


def reduce_trace(trace: DetuningTrace, tau: float, n: int) -> SegmentDetunings:
    """Reduce a detuning trace to per-interval averages and jumps.

    For each pulse i (at time (2i-1)*tau) the trace is averaged over the
    interval before, [(2i-2)*tau, (2i-1)*tau], and the interval after,
    [(2i-1)*tau, 2i*tau]; the jump is the difference of the two averages.
    The trace must cover the whole window [0, 2*n*tau].
    """
    if n < 1:
        raise DomainError(f"need n >= 1 pulses, got {n}")
    if not tau > 0:
        raise DomainError(f"tau must be positive, got {tau}")
    if trace.times[0] > 0.0 or trace.times[-1] < 2 * n * tau:
        raise DomainError(
            f"trace covers [{trace.times[0]}, {trace.times[-1]}] but the sequence "
            f"window is [0, {2 * n * tau}]"
        )
    base = np.empty(n)
    jumps = np.empty(n)
    for i in range(n):
        before = trace.integrate((2 * i) * tau, (2 * i + 1) * tau) / tau
        after = trace.integrate((2 * i + 1) * tau, (2 * i + 2) * tau) / tau
        base[i] = before
        jumps[i] = after - before
    return SegmentDetunings(base, jumps)


def white_piecewise_trace(
    std: float, tau: float, n: int, rng: np.random.Generator
) -> DetuningTrace:
    """Piecewise-constant trace with an independent N(0, std**2) level per half-interval.

    Reducing such a trace yields jumps with variance 2*std**2 (difference of
    two independent interval averages).
    """
    edges = np.arange(2 * n + 1) * tau
    return DetuningTrace(edges, rng.normal(0.0, std, 2 * n), kind="piecewise_constant")

"""Bloch-vector evolution for pulsed two-level interferometry.

The qubit state is a classical Bloch vector U = (u, v, w).  Pulses about the
drive axis are instantaneous quarter turns (pi/2) and half turns (pi); between
pulses the vector precesses freely about the vertical axis at the detuning
delta.  A CPMG sequence is a quarter-turn preparation pulse at time 0, n half
turns at times tau, 3*tau, ..., (2n-1)*tau, and a quarter-turn readout pulse
at time t >= (2n-1)*tau.  n = 1 is a spin echo; n = 0 is a Ramsey sequence.

Every pulse is a turn about the drive axis and every free evolution a turn
about the vertical axis, so the readout observable, the vertical component
w, collapses to one accumulated phase:

    w(t) = (-1)**n * cos(Phi),   Phi = delta*x + sum_i c_i * jump_i

with x = t - 2*n*tau (x = t for Ramsey) and weights c_i = (-1)**(n-i) * tau
for i < n and c_n = t - (2n-1)*tau.  Here the detuning is delta in the half
interval before half turn i and delta + jump_i in the half interval after it
(``SegmentDetunings`` with a uniform base).  With no jumps the train
refocuses everything except the interval x, and at the echo time
t = 2*n*tau the fringe reaches (-1)**n for any delta; with jumps exactly the
weighted jumps survive at the echo.

``accumulated_phase`` evaluates Phi for whole batches of draws; ``w_cpmg`` and
``w_cpmg_perturbed`` are its special cases.  The explicit matrix products in
``evolve_cpmg`` and ``evolve_cpmg_perturbed`` are kept as the oracle the closed
form is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "BlochVector",
    "SequenceSpec",
    "SegmentDetunings",
    "INITIAL_STATE",
    "SEQUENCE_KINDS",
    "rotate_pi_half",
    "rotate_pi",
    "free_precession",
    "evolve_cpmg",
    "evolve_cpmg_perturbed",
    "jump_weights",
    "accumulated_phase",
    "w_cpmg",
    "w_cpmg_perturbed",
]


@dataclass(frozen=True)
class BlochVector:
    """A point (u, v, w) on or inside the unit sphere."""

    u: float
    v: float
    w: float

    def as_array(self) -> np.ndarray:
        return np.array([self.u, self.v, self.w], dtype=float)

    @staticmethod
    def from_array(arr) -> "BlochVector":
        u, v, w = np.asarray(arr, dtype=float)
        return BlochVector(float(u), float(v), float(w))

    def norm(self) -> float:
        return float(np.sqrt(self.u**2 + self.v**2 + self.w**2))


#: State prepared before the first pulse.
INITIAL_STATE = BlochVector(0.0, 0.0, -1.0)

SEQUENCE_KINDS = ("ramsey", "spin_echo", "cpmg")


@dataclass(frozen=True)
class SequenceSpec:
    """Pulse-sequence geometry and set detuning.

    Parameters
    ----------
    kind : str
        One of ``"ramsey"`` (n = 0), ``"spin_echo"`` (n = 1), ``"cpmg"``.
    n : int
        Number of half-turn refocusing pulses.
    tau : float
        Time of the first half-turn pulse in seconds; pulse i sits at
        (2i - 1)*tau.  Ignored for Ramsey sequences.
    t : float or None
        Readout time (final quarter-turn pulse) in seconds.  May be left None
        when the readout time is supplied per point, e.g. by a time grid.
    delta : float
        Set detuning in rad/s.
    """

    kind: str
    n: int
    tau: float = 0.0
    t: float | None = None
    delta: float = 0.0

    def __post_init__(self):
        if self.kind not in SEQUENCE_KINDS:
            raise DomainError(
                f"unknown sequence kind {self.kind!r}; expected one of {SEQUENCE_KINDS}"
            )
        if not isinstance(self.n, (int, np.integer)) or isinstance(self.n, bool):
            raise DomainError(f"pulse count n must be an integer, got {self.n!r}")
        if self.kind == "ramsey" and self.n != 0:
            raise DomainError(f"ramsey sequence requires n = 0, got n = {self.n}")
        if self.kind == "spin_echo" and self.n != 1:
            raise DomainError(f"spin_echo sequence requires n = 1, got n = {self.n}")
        if self.kind == "cpmg" and self.n < 1:
            raise DomainError(f"cpmg sequence requires n >= 1, got n = {self.n}")
        if self.n >= 1 and not self.tau > 0.0:
            raise DomainError(f"tau must be positive for n >= 1, got tau = {self.tau}")
        if self.t is not None and self.t < self.earliest_readout:
            raise DomainError(
                f"readout time t = {self.t} violates t >= (2n-1)*tau = "
                f"{self.earliest_readout} (readout before the last refocusing pulse)"
            )

    @property
    def earliest_readout(self) -> float:
        """Time of the last half-turn pulse, (2n-1)*tau; 0 for Ramsey."""
        return (2 * self.n - 1) * self.tau if self.n >= 1 else 0.0

    @property
    def echo_time(self) -> float:
        """Refocusing time 2*n*tau (equals 0 for Ramsey)."""
        return 2 * self.n * self.tau

    @property
    def pulse_times(self) -> np.ndarray:
        """Times of the half-turn pulses, (2i-1)*tau for i = 1..n."""
        return (2 * np.arange(1, self.n + 1) - 1) * self.tau


@dataclass(frozen=True)
class SegmentDetunings:
    """Per-interval detunings for a CPMG train with n half-turn pulses.

    ``base[i]`` is the average detuning (rad/s) during the interval before
    pulse i + 1; ``base[i] + jumps[i]`` holds during the interval after it.
    """

    base: np.ndarray
    jumps: np.ndarray

    def __post_init__(self):
        base = np.atleast_1d(np.asarray(self.base, dtype=float))
        jumps = np.atleast_1d(np.asarray(self.jumps, dtype=float))
        if base.ndim != 1 or jumps.ndim != 1:
            raise DomainError("segment detunings must be one-dimensional")
        if base.shape != jumps.shape:
            raise DomainError(
                f"base and jumps lengths differ: {base.shape[0]} vs {jumps.shape[0]}"
            )
        if base.shape[0] < 1:
            raise DomainError("segment detunings require at least one interval")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "jumps", jumps)

    @property
    def n(self) -> int:
        return self.base.shape[0]

    @staticmethod
    def uniform(delta: float, n: int) -> "SegmentDetunings":
        """Constant detuning, no jumps: the unperturbed sequence."""
        return SegmentDetunings(np.full(n, float(delta)), np.zeros(n))


# Pulse matrices.  The quarter turn is the proper rotation generated by the
# drive: applying it twice gives the half turn, four times the identity.
_PI_HALF = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
_PI = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]])


def _as_vec(U) -> np.ndarray:
    if isinstance(U, BlochVector):
        return U.as_array()
    arr = np.asarray(U, dtype=float)
    if arr.shape != (3,):
        raise DomainError(f"Bloch vector must have three components, got shape {arr.shape}")
    return arr


def rotate_pi_half(U) -> BlochVector:
    """Apply a quarter-turn pulse about the drive axis.

    Maps (u, v, w) to (u, -w, v): the vertical component is tipped into the
    precession plane and vice versa.
    """
    return BlochVector.from_array(_PI_HALF @ _as_vec(U))


def rotate_pi(U) -> BlochVector:
    """Apply a half-turn refocusing pulse: (u, v, w) -> (u, -v, -w)."""
    return BlochVector.from_array(_PI @ _as_vec(U))


def _precession_matrix(delta: float, t: float) -> np.ndarray:
    c, s = np.cos(delta * t), np.sin(delta * t)
    return np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])


def free_precession(U, delta: float, t: float) -> BlochVector:
    """Precess freely about the vertical axis for a duration t >= 0.

    Parameters
    ----------
    U : BlochVector or array-like of shape (3,)
    delta : float
        Detuning in rad/s.
    t : float
        Duration in seconds; negative durations are rejected.
    """
    if t < 0:
        raise DomainError(f"free precession duration must be >= 0, got {t}")
    return BlochVector.from_array(_precession_matrix(delta, t) @ _as_vec(U))


def evolve_cpmg(spec: SequenceSpec) -> BlochVector:
    """Evolve the initial state through the full pulse sequence.

    The product is chronological: quarter turn, precession tau, then n times
    (half turn, precession) with the last precession lasting t - (2n-1)*tau,
    and a final quarter turn at the readout time t.  For ``n = 0`` the two
    quarter turns are separated by a single precession of duration t.

    Returns
    -------
    BlochVector
        Final state; its w component is the fringe observable.
    """
    if spec.t is None:
        raise DomainError("sequence has no readout time t set")
    if spec.n == 0:
        U = rotate_pi_half(INITIAL_STATE)
        U = free_precession(U, spec.delta, spec.t)
        return rotate_pi_half(U)
    return evolve_cpmg_perturbed(
        spec.tau, spec.n, SegmentDetunings.uniform(spec.delta, spec.n), t=spec.t
    )


def evolve_cpmg_perturbed(
    tau: float, n: int, seg: SegmentDetunings, t: float | None = None
) -> BlochVector:
    """Evolve through a CPMG train whose detuning changes between intervals.

    Interval i (before half-turn pulse i) precesses at ``seg.base[i-1]``; the
    interval after pulse i precesses at ``seg.base[i-1] + seg.jumps[i-1]``.
    The final interval, after the last pulse, lasts t - (2n-1)*tau and keeps
    the last perturbed detuning.

    Parameters
    ----------
    tau : float
        First-pulse time in seconds (> 0).
    n : int
        Number of half-turn pulses (>= 1); must equal the number of intervals
        described by ``seg``.
    seg : SegmentDetunings
    t : float, optional
        Readout time; defaults to the echo time 2*n*tau.

    Returns
    -------
    BlochVector
    """
    if n < 1:
        raise DomainError(f"perturbed evolution requires n >= 1, got n = {n}")
    if not tau > 0:
        raise DomainError(f"tau must be positive, got {tau}")
    if seg.n != n:
        raise DomainError(
            f"segment detunings describe {seg.n} intervals but the sequence has n = {n}"
        )
    if t is None:
        t = 2 * n * tau
    last_pulse = (2 * n - 1) * tau
    if t < last_pulse:
        raise DomainError(
            f"readout time t = {t} violates t >= (2n-1)*tau = {last_pulse}"
        )
    U = rotate_pi_half(INITIAL_STATE)
    for i in range(n):
        U = free_precession(U, seg.base[i], tau)
        U = rotate_pi(U)
        duration = tau if i < n - 1 else t - last_pulse
        U = free_precession(U, seg.base[i] + seg.jumps[i], duration)
    return rotate_pi_half(U)


def _check_timing(tau: float, n: int, t) -> np.ndarray:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise DomainError(f"pulse count n must be an integer, got {n!r}")
    if n < 0:
        raise DomainError(f"pulse count n must be >= 0, got {n}")
    if n >= 1 and not tau > 0:
        raise DomainError(f"tau must be positive for n >= 1, got {tau}")
    t = np.asarray(t, dtype=float)
    earliest = (2 * n - 1) * tau if n >= 1 else 0.0
    if np.any(t < earliest):
        raise DomainError(
            f"readout time violates t >= (2n-1)*tau = {earliest} (minimum t given: {t.min()})"
        )
    return t


def jump_weights(tau: float, n: int, t: float) -> np.ndarray:
    """Weights c_i with which the jump across half turn i enters the phase.

    c_i = (-1)**(n-i) * tau for i < n and c_n = t - (2n-1)*tau, the time
    from the last half turn to the readout; empty for n = 0.
    """
    c = tau * (-1.0) ** (n - np.arange(1, n + 1))
    if n >= 1:
        c[-1] = t - (2 * n - 1) * tau
    return c


def accumulated_phase(delta_eff, tau: float, n: int, t, jumps=None):
    """Phase Phi = delta_eff*x + sum_i c_i*jumps[i] at readout time t.

    The fringe is w = (-1)**n * cos(Phi).  x = t - 2*n*tau, and for n = 0
    the phase is delta_eff*t.  ``delta_eff`` and ``t`` broadcast against each
    other, so a batch of draws or a grid of readout times (all satisfying
    t >= (2n-1)*tau) evaluates in one call.

    Parameters
    ----------
    delta_eff : float or array
        Base detuning delta, rad/s.
    tau : float
    n : int
        Number of half-turn pulses (>= 0).
    t : float or array
        Readout time(s); must be a scalar when ``jumps`` is given.
    jumps : array-like, shape (..., n), optional
        Detuning change across each half turn, rad/s.
    """
    t_arr = _check_timing(tau, n, t)
    phase = delta_eff * (t_arr - 2 * n * tau)
    if jumps is not None:
        arr = np.asarray(jumps, dtype=float)
        if arr.shape[-1:] != (n,):
            raise DomainError(
                f"jumps must have {n} entries along the last axis, got shape {arr.shape}"
            )
        phase = phase + arr @ jump_weights(tau, n, float(t_arr))
    return phase


def w_cpmg(delta: float, tau: float, n: int, t):
    """Closed-form fringe of the unperturbed sequence.

    Returns (-1)**n * cos(delta * (t - 2*n*tau)); accepts a scalar or an
    array of readout times t (all must satisfy t >= (2n-1)*tau).
    """
    out = (-1.0) ** n * np.cos(accumulated_phase(delta, tau, n, t))
    return float(out) if np.ndim(out) == 0 else out


def w_cpmg_perturbed(tau: float, n: int, jumps):
    """Closed-form fringe at the echo time with per-interval detuning jumps.

    Returns (-1)**n * cos(tau * sum_i (-1)**(n-i) * jumps[i]) where i runs
    from 1 to n over the last axis of ``jumps``.  Only the jumps enter: the
    per-interval base detunings refocus completely at t = 2*n*tau.

    Parameters
    ----------
    tau : float
    n : int
        Number of half-turn pulses (>= 1).
    jumps : array-like, shape (..., n)
        Detuning change across each pulse, rad/s.  Leading axes broadcast,
        so a batch of draws evaluates in one call.
    """
    if n < 1:
        raise DomainError(f"perturbed fringe requires n >= 1, got n = {n}")
    if not tau > 0:
        raise DomainError(f"tau must be positive, got {tau}")
    out = (-1.0) ** n * np.cos(accumulated_phase(0.0, tau, n, 2 * n * tau, jumps))
    return float(out) if out.ndim == 0 else out

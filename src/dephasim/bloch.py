"""Phase propagation for pulsed two-level interferometry.

The qubit state is a Bloch vector U = (u, v, w).  Pulses about the drive
axis are instantaneous quarter turns (pi/2) and half turns (pi); between
pulses the vector precesses freely about the vertical axis at the detuning
delta.  A CPMG sequence is a quarter-turn preparation pulse at time 0, n half
turns at times tau, 3*tau, ..., (2n-1)*tau, and a quarter-turn readout pulse
at time t >= (2n-1)*tau.  n = 1 is a spin echo; n = 0 is a Ramsey sequence.

Every pulse is a turn about the drive axis and every free evolution a turn
about the vertical axis, so the readout observable, the vertical component
w, collapses to one accumulated phase:

    w(t) = (-1)**n * cos(Phi),   Phi = delta*x + sum_i c_i * jump_i

with x = t - 2*n*tau (x = t for Ramsey) and weights c_i = (-1)**(n-i) * tau
for i < n and c_n = t - (2n-1)*tau (``jump_weights``).  Here the detuning is
delta in the half interval before half turn i and delta + jump_i in the half
interval after it.  With no jumps the train refocuses everything except the
interval x, and at the echo time t = 2*n*tau the fringe reaches (-1)**n for
any delta; with jumps exactly the weighted jumps survive at the echo.

``accumulated_phase`` evaluates delta*x for whole batches of detunings or
readout times; it is the one way the program propagates a sequence.  The
ensemble average takes the jump term in closed form, so nothing here draws
it.  The tests check both against the explicit chronological product of 3x3
pulse and precession matrices.  ``_check_timing`` is the one place that
enforces the timing rule: n is an integer >= 0, tau > 0 when n >= 1, and
t >= (2n-1)*tau (t >= 0 for Ramsey).  Sequences that differ only in tau are
evaluated together with tau a (B, 1) column against a (B, N) stack of
readout times; the rule then holds for every row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "SequenceSpec",
    "SEQUENCE_KINDS",
    "jump_weights",
    "accumulated_phase",
]

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
        (2i - 1)*tau.  Ignored for Ramsey sequences.  A (B, 1) column of
        spacings describes B sequences that differ only in tau, evaluated
        together on a (B, N) stack of readout times (a visibility scan).
        Readout times come per point, from a time grid.
    delta : float
        Set detuning in rad/s.
    """

    kind: str
    n: int
    tau: float = 0.0
    delta: float = 0.0

    def __post_init__(self):
        if self.kind not in SEQUENCE_KINDS:
            raise DomainError(
                f"unknown sequence kind {self.kind!r}; expected one of {SEQUENCE_KINDS}"
            )
        _check_timing(self.tau, self.n)
        if self.kind == "ramsey" and self.n != 0:
            raise DomainError(f"ramsey sequence requires n = 0, got n = {self.n}")
        if self.kind == "spin_echo" and self.n != 1:
            raise DomainError(f"spin_echo sequence requires n = 1, got n = {self.n}")
        if self.kind == "cpmg" and self.n < 1:
            raise DomainError(f"cpmg sequence requires n >= 1, got n = {self.n}")

    @property
    def echo_time(self) -> float:
        """Refocusing time 2*n*tau (equals 0 for Ramsey)."""
        return 2 * self.n * self.tau


def _check_timing(tau, n: int, t=None):
    """Enforce the timing rule; return t as a float array (None when t is None).

    ``tau`` is a number, or a (B, 1) column with one spacing per row of a
    (B, N) stack of readout times: the rule then holds row by row, and the
    message names the first row that breaks it.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise DomainError(f"pulse count n must be an integer, got {n!r}")
    if n < 0:
        raise DomainError(f"pulse count n must be >= 0, got {n}")
    column = isinstance(tau, np.ndarray)
    if n >= 1 and not (np.all(tau > 0) if column else tau > 0):
        if column:
            tau = tau.flat[int(np.argmin(tau > 0))]
        raise DomainError(f"tau must be positive for n >= 1, got {tau}")
    if t is None:
        return None
    t = np.asarray(t, dtype=float)
    earliest = (2 * n - 1) * tau if n >= 1 else 0.0
    early = t < earliest
    if early.any():
        shown = t
        if np.ndim(earliest):  # a column of spacings: the first row read out too early
            row = int(np.argmax(early.any(axis=-1)))
            earliest, shown = earliest[row, 0], np.broadcast_to(t, early.shape)[row]
        raise DomainError(
            f"readout time violates t >= (2n-1)*tau = {earliest} (minimum t given: "
            f"{shown.min()}; readout before the last refocusing pulse)"
        )
    return t


def jump_weights(tau, n: int, t) -> np.ndarray:
    """Weights c_i with which the jump across half turn i enters the phase.

    c_i = (-1)**(n-i) * tau for i < n and c_n = t - (2n-1)*tau, the time from the
    last half turn to the readout, along a last axis: shape t.shape + (n,), empty for n = 0.
    ``tau`` may be a (B, 1) column of spacings, one per row of a (B, N) t.
    """
    t = np.asarray(t, dtype=float)
    signs = (-1.0) ** (n - np.arange(1, n + 1))
    c = np.empty(np.broadcast_shapes(np.shape(tau), t.shape) + (n,))
    c[...] = np.multiply.outer(tau, signs)
    if n >= 1:
        c[..., -1] = t - (2 * n - 1) * tau
    return c


def accumulated_phase(delta_eff, tau, n: int, t):
    """Phase Phi = delta_eff*x at readout time t, x = t - 2*n*tau.

    The fringe is w = (-1)**n * cos(Phi); for n = 0 the phase is
    delta_eff*t.  Jumps across the half turns add sum_i c_i*jump_i with
    c = ``jump_weights(tau, n, t)``.  ``delta_eff`` and ``t`` broadcast
    against each other, so a batch of draws or a grid of readout times (all
    satisfying t >= (2n-1)*tau) evaluates in one call; with ``tau`` a (B, 1)
    column, a (B, N) stack of grids, one pulse spacing per row.

    Parameters
    ----------
    delta_eff : float or array
        Base detuning delta, rad/s.
    tau : float or (B, 1) array
    n : int
        Number of half-turn pulses (>= 0).
    t : float or array
        Readout time(s).
    """
    t_arr = _check_timing(tau, n, t)
    return delta_eff * (t_arr - 2 * n * tau)

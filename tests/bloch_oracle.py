"""Explicit 3x3 matrix oracle for the pulse sequences of ``dephasim.bloch``.

A Bloch vector is a plain array (u, v, w).  A sequence is the chronological
product of its pulse and precession matrices applied to the prepared state,
written out step by step with no phase algebra, so the closed-form phase
kernel can be checked against it.
"""

import numpy as np

#: State prepared before the first pulse.
INITIAL_STATE = np.array([0.0, 0.0, -1.0])

# Quarter turn about the drive axis, (u, v, w) -> (u, -w, v), and the half
# turn (u, v, w) -> (u, -v, -w), each written out rather than composed.
PI_HALF = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
PI = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]])


def precession(delta, t):
    """Free precession about the vertical axis at detuning delta for a time t."""
    c, s = np.cos(delta * t), np.sin(delta * t)
    return np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])


def evolve(base, tau, n, t, jumps=None):
    """Final Bloch vector of an n-pulse sequence read out at time t.

    The interval before half turn i precesses at ``base[i]`` (a scalar is
    used for every interval) and the interval after it at
    ``base[i] + jumps[i]``; the last interval lasts t - (2n-1)*tau.  For
    n = 0 the two quarter turns enclose one precession of duration t.
    """
    base = np.broadcast_to(np.asarray(base, dtype=float), (max(n, 1),))
    jumps = np.zeros(n) if jumps is None else np.asarray(jumps, dtype=float)
    if n == 0:
        return PI_HALF @ precession(base[0], t) @ PI_HALF @ INITIAL_STATE
    u = PI_HALF @ INITIAL_STATE
    for i in range(n):
        u = precession(base[i], tau) @ u
        u = PI @ u
        u = precession(base[i] + jumps[i], tau if i < n - 1 else t - (2 * n - 1) * tau) @ u
    return PI_HALF @ u

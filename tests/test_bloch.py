"""Pulse algebra and sequence evolution: closed forms vs explicit matrix products."""

import numpy as np
import pytest

from dephasim.bloch import (
    INITIAL_STATE,
    BlochVector,
    SegmentDetunings,
    SequenceSpec,
    accumulated_phase,
    evolve_cpmg,
    evolve_cpmg_perturbed,
    free_precession,
    jump_weights,
    rotate_pi,
    rotate_pi_half,
)
from dephasim.errors import DomainError


def vec(u, v, w):
    return BlochVector(u, v, w)


def w_cpmg(delta, tau, n, t, jumps=None):
    """Readout w = (-1)**n * cos(Phi) from the production phase kernel."""
    return (-1.0) ** n * np.cos(accumulated_phase(delta, tau, n, t, jumps))


def w_cpmg_perturbed(tau, n, jumps):
    """The kernel at the echo time t = 2*n*tau, where only the jumps survive."""
    return w_cpmg(0.0, tau, n, 2 * n * tau, jumps)


# ---------------------------------------------------------------- pulses


def test_pi_half_tips_initial_state_into_precession_plane():
    out = rotate_pi_half(INITIAL_STATE)
    assert out.as_array() == pytest.approx([0.0, 1.0, 0.0], abs=1e-15)


def test_pi_half_leaves_drive_axis_fixed():
    out = rotate_pi_half((1.0, 0.0, 0.0))
    assert out.as_array() == pytest.approx([1.0, 0.0, 0.0], abs=1e-15)


def test_pi_half_twice_is_pi_pulse_and_four_times_is_identity():
    # The quarter turn composes like a rotation: two give the half turn,
    # four give the identity.
    rng = np.random.default_rng(11)
    for _ in range(20):
        start = vec(*rng.normal(size=3))
        twice = rotate_pi_half(rotate_pi_half(start))
        assert twice.as_array() == pytest.approx(rotate_pi(start).as_array(), abs=1e-15)
        four = rotate_pi_half(rotate_pi_half(twice))
        assert four.as_array() == pytest.approx(start.as_array(), abs=1e-13)


def test_pi_pulse_is_an_involution():
    rng = np.random.default_rng(12)
    for _ in range(20):
        start = vec(*rng.normal(size=3))
        out = rotate_pi(rotate_pi(start))
        assert out.as_array() == pytest.approx(start.as_array(), abs=1e-15)


def test_pi_pulse_flips_v_and_w():
    out = rotate_pi((0.3, -0.5, 0.7))
    assert out.as_array() == pytest.approx([0.3, 0.5, -0.7], abs=1e-15)


def test_pulses_accept_tuples_and_vectors():
    assert rotate_pi((0, 0, 1)).as_array() == pytest.approx([0, 0, -1])
    assert rotate_pi(BlochVector(0, 0, 1)).as_array() == pytest.approx([0, 0, -1])
    with pytest.raises(DomainError):
        rotate_pi((1.0, 2.0))


# ---------------------------------------------------------------- precession


def test_precession_quarter_period():
    out = free_precession((1.0, 0.0, 0.0), delta=1.0, t=np.pi / 2)
    assert out.as_array() == pytest.approx([0.0, -1.0, 0.0], abs=1e-15)


def test_precession_zero_detuning_is_identity():
    start = (0.2, -0.4, 0.8)
    out = free_precession(start, delta=0.0, t=12.5)
    assert out.as_array() == pytest.approx(start, abs=1e-15)


def test_precession_preserves_w():
    rng = np.random.default_rng(13)
    for _ in range(50):
        start = rng.normal(size=3)
        out = free_precession(start, delta=rng.normal() * 1e3, t=rng.uniform(0, 1e-2))
        assert out.w == pytest.approx(start[2], abs=1e-15)


def test_precession_rejects_negative_duration():
    with pytest.raises(DomainError):
        free_precession((0, 1, 0), delta=100.0, t=-1e-9)


# ---------------------------------------------------------------- sequence spec


def test_sequence_spec_kind_constraints():
    with pytest.raises(DomainError):
        SequenceSpec("hahn", 1, tau=1e-3, t=2e-3)
    with pytest.raises(DomainError):
        SequenceSpec("ramsey", 1, tau=1e-3, t=2e-3)
    with pytest.raises(DomainError):
        SequenceSpec("spin_echo", 2, tau=1e-3, t=4e-3)
    with pytest.raises(DomainError):
        SequenceSpec("cpmg", 0, tau=1e-3, t=2e-3)
    with pytest.raises(DomainError):
        SequenceSpec("cpmg", 2, tau=0.0, t=4e-3)


def test_sequence_spec_rejects_readout_before_last_pulse():
    with pytest.raises(DomainError):
        SequenceSpec("cpmg", 3, tau=1e-3, t=4.9e-3)
    spec = SequenceSpec("cpmg", 3, tau=1e-3, t=5e-3)  # exactly (2n-1)*tau is allowed
    assert spec.earliest_readout == pytest.approx(5e-3)
    assert spec.echo_time == pytest.approx(6e-3)
    # pulses at (2i-1)*tau: read out at the last one, the last jump has no weight
    assert jump_weights(spec.tau, spec.n, spec.t) == pytest.approx([1e-3, -1e-3, 0.0], abs=1e-15)


# ---------------------------------------------------------------- ideal evolution


def test_spin_echo_refocuses_at_echo_time():
    for delta in (0.0, 321.0, -2 * np.pi * 8.6e3):
        spec = SequenceSpec("spin_echo", 1, tau=1.5e-3, t=3e-3, delta=delta)
        assert evolve_cpmg(spec).w == pytest.approx(-1.0, abs=1e-12)


def test_zero_detuning_fringe_alternates_with_pulse_count():
    for n in range(1, 7):
        spec = SequenceSpec("cpmg", n, tau=1e-3, t=(2 * n + 0.3) * 1e-3, delta=0.0)
        assert evolve_cpmg(spec).w == pytest.approx((-1.0) ** n, abs=1e-12)


def test_ramsey_fringe_is_cosine_of_accumulated_phase():
    delta, t = 2 * np.pi * 100.0, 3.7e-3
    spec = SequenceSpec("ramsey", 0, t=t, delta=delta)
    assert evolve_cpmg(spec).w == pytest.approx(np.cos(delta * t), abs=1e-12)
    assert w_cpmg(delta, 0.0, 0, t) == pytest.approx(np.cos(delta * t), abs=1e-15)


def test_cpmg_two_pulse_matches_closed_form_value():
    # Frozen expected: (-1)^2 * cos(2*pi*100 * (4.25e-3 - 4e-3)) = cos(0.05*pi)
    delta, tau, t = 2 * np.pi * 100.0, 1e-3, 4.25e-3
    spec = SequenceSpec("cpmg", 2, tau=tau, t=t, delta=delta)
    expected = 0.9876883405951378
    assert evolve_cpmg(spec).w == pytest.approx(expected, abs=1e-12)
    assert w_cpmg(delta, tau, 2, t) == pytest.approx(expected, abs=1e-12)


def test_evolution_matches_closed_form_on_random_grid():
    rng = np.random.default_rng(101)
    for n in range(1, 9):
        for _ in range(50):
            tau = 10.0 ** rng.uniform(-4, -2)
            t = (2 * n - 1) * tau + rng.uniform(0, 2) * tau
            delta = rng.normal(0.0, 2 * np.pi * 500.0)
            spec = SequenceSpec("cpmg", n, tau=tau, t=t, delta=delta)
            assert evolve_cpmg(spec).w == pytest.approx(
                w_cpmg(delta, tau, n, t), abs=1e-12
            )


def test_evolution_preserves_norm():
    rng = np.random.default_rng(102)
    for _ in range(10_000):
        n = int(rng.integers(0, 7))
        tau = 10.0 ** rng.uniform(-4, -2)
        kind = "ramsey" if n == 0 else ("spin_echo" if n == 1 else "cpmg")
        t = ((2 * n - 1) * tau if n else 0.0) + rng.uniform(0, 2) * max(tau, 1e-4)
        spec = SequenceSpec(kind, n, tau=tau, t=t, delta=rng.normal(0, 5e3))
        assert evolve_cpmg(spec).norm() == pytest.approx(1.0, abs=1e-12)


def test_evolve_requires_readout_time():
    spec = SequenceSpec("cpmg", 2, tau=1e-3, delta=100.0)
    with pytest.raises(DomainError):
        evolve_cpmg(spec)


def test_w_cpmg_accepts_time_arrays_and_checks_timing():
    delta, tau, n = 300.0, 1e-3, 2
    times = np.array([3e-3, 4e-3, 5e-3])
    out = w_cpmg(delta, tau, n, times)
    assert out == pytest.approx(np.cos(delta * (times - 4e-3)), abs=1e-15)
    with pytest.raises(DomainError):
        w_cpmg(delta, tau, n, 2.9e-3)
    with pytest.raises(DomainError):
        w_cpmg(delta, tau, -1, 1e-3)


# ---------------------------------------------------------------- perturbed evolution


def test_perturbed_with_zero_jumps_refocuses():
    rng = np.random.default_rng(103)
    for n in range(1, 7):
        seg = SegmentDetunings(rng.normal(0, 1e3, n), np.zeros(n))
        out = evolve_cpmg_perturbed(2e-3, n, seg)
        assert out.w == pytest.approx((-1.0) ** n, abs=1e-12)


def test_single_echo_jump_closed_form():
    tau, x = 1e-3, 77.0
    seg = SegmentDetunings([55.0], [x])
    assert evolve_cpmg_perturbed(tau, 1, seg).w == pytest.approx(
        -np.cos(tau * x), abs=1e-14
    )
    assert w_cpmg_perturbed(tau, 1, [x]) == pytest.approx(-np.cos(tau * x), abs=1e-15)


def test_perturbed_rejects_length_mismatch():
    seg = SegmentDetunings([1.0, 2.0], [0.0, 0.0])
    with pytest.raises(DomainError):
        evolve_cpmg_perturbed(1e-3, 3, seg)
    with pytest.raises(DomainError):
        SegmentDetunings([1.0, 2.0], [0.0])
    with pytest.raises(DomainError):
        w_cpmg_perturbed(1e-3, 3, [1.0, 2.0])


def test_perturbed_closed_form_matches_matrix_product():
    # The surviving sign pattern alternates with the pulse index; the
    # per-interval base detunings must drop out entirely at the echo time.
    rng = np.random.default_rng(104)
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        tau = 10.0 ** rng.uniform(-4, -2)
        base = rng.normal(0.0, 300.0, n)
        jumps = rng.normal(0.0, 2.0 / (n * tau), n)
        seg = SegmentDetunings(base, jumps)
        assert evolve_cpmg_perturbed(tau, n, seg).w == pytest.approx(
            w_cpmg_perturbed(tau, n, jumps), abs=1e-12
        )


def test_perturbed_closed_form_batches_over_leading_axes():
    rng = np.random.default_rng(105)
    tau, n = 2e-3, 3
    jumps = rng.normal(0, 100.0, size=(40, n))
    batch = w_cpmg_perturbed(tau, n, jumps)
    assert batch.shape == (40,)
    for row, expected in zip(jumps, batch):
        assert w_cpmg_perturbed(tau, n, row) == pytest.approx(expected, abs=1e-15)


def test_perturbed_general_readout_time_extends_last_interval():
    # With no jumps the general-time perturbed evolution must coincide with
    # the unperturbed closed form away from the echo time too.
    rng = np.random.default_rng(106)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        tau = 10.0 ** rng.uniform(-4, -2)
        delta = rng.normal(0, 1e3)
        t = (2 * n - 1) * tau + rng.uniform(0, 2.5) * tau
        seg = SegmentDetunings.uniform(delta, n)
        assert evolve_cpmg_perturbed(tau, n, seg, t=t).w == pytest.approx(
            w_cpmg(delta, tau, n, t), abs=1e-12
        )
    with pytest.raises(DomainError):
        evolve_cpmg_perturbed(1e-3, 2, SegmentDetunings.uniform(0.0, 2), t=2.9e-3)

"""Pulse algebra and sequence evolution: closed forms vs explicit matrix products."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bloch_oracle import INITIAL_STATE, PI, PI_HALF, evolve, precession
from dephasim.bloch import SequenceSpec, accumulated_phase, jump_weights
from dephasim.errors import DomainError


def w_cpmg(delta, tau, n, t, jumps=None):
    """Readout w = (-1)**n * cos(Phi) from the production phase kernel.

    Jumps add their weighted sum ``jumps @ jump_weights`` (t scalar).
    """
    phase = accumulated_phase(delta, tau, n, t)
    if jumps is not None:
        phase = phase + np.asarray(jumps, dtype=float) @ jump_weights(tau, n, t)
    return (-1.0) ** n * np.cos(phase)


def w_cpmg_perturbed(tau, n, jumps):
    """The kernel at the echo time t = 2*n*tau, where only the jumps survive."""
    return w_cpmg(0.0, tau, n, 2 * n * tau, jumps)


# ---------------------------------------------------------------- pulses


def test_pi_half_tips_initial_state_into_precession_plane():
    assert PI_HALF @ INITIAL_STATE == pytest.approx([0.0, 1.0, 0.0], abs=1e-15)


def test_pi_half_leaves_drive_axis_fixed():
    assert PI_HALF @ [1.0, 0.0, 0.0] == pytest.approx([1.0, 0.0, 0.0], abs=1e-15)


def test_pi_half_twice_is_pi_pulse_and_four_times_is_identity():
    # The quarter turn composes like a rotation: two give the half turn,
    # four give the identity.
    rng = np.random.default_rng(11)
    for _ in range(20):
        start = rng.normal(size=3)
        twice = PI_HALF @ (PI_HALF @ start)
        assert twice == pytest.approx(PI @ start, abs=1e-15)
        four = PI_HALF @ (PI_HALF @ twice)
        assert four == pytest.approx(start, abs=1e-13)


def test_pi_pulse_is_an_involution():
    rng = np.random.default_rng(12)
    for _ in range(20):
        start = rng.normal(size=3)
        assert PI @ (PI @ start) == pytest.approx(start, abs=1e-15)


def test_pi_pulse_flips_v_and_w():
    assert PI @ [0.3, -0.5, 0.7] == pytest.approx([0.3, 0.5, -0.7], abs=1e-15)


# ---------------------------------------------------------------- precession


def test_precession_quarter_period():
    out = precession(1.0, np.pi / 2) @ [1.0, 0.0, 0.0]
    assert out == pytest.approx([0.0, -1.0, 0.0], abs=1e-15)


def test_precession_zero_detuning_is_identity():
    start = (0.2, -0.4, 0.8)
    out = precession(0.0, 12.5) @ start
    assert out == pytest.approx(start, abs=1e-15)


def test_precession_preserves_w():
    rng = np.random.default_rng(13)
    for _ in range(50):
        start = rng.normal(size=3)
        out = precession(rng.normal() * 1e3, rng.uniform(0, 1e-2)) @ start
        assert out[2] == pytest.approx(start[2], abs=1e-15)


# ---------------------------------------------------------------- sequence spec


def test_sequence_spec_kind_constraints():
    with pytest.raises(DomainError):
        SequenceSpec("hahn", 1, tau=1e-3)
    with pytest.raises(DomainError):
        SequenceSpec("ramsey", 1, tau=1e-3)
    with pytest.raises(DomainError):
        SequenceSpec("spin_echo", 2, tau=1e-3)
    with pytest.raises(DomainError):
        SequenceSpec("cpmg", 0, tau=1e-3)
    with pytest.raises(DomainError):
        SequenceSpec("cpmg", 2, tau=0.0)


def test_sequence_spec_rejects_readout_before_last_pulse():
    spec = SequenceSpec("cpmg", 3, tau=1e-3)
    with pytest.raises(DomainError):
        accumulated_phase(spec.delta, spec.tau, spec.n, 4.9e-3)
    t = 5e-3  # exactly (2n-1)*tau is allowed
    accumulated_phase(spec.delta, spec.tau, spec.n, t)
    assert (2 * spec.n - 1) * spec.tau == pytest.approx(5e-3)
    assert spec.echo_time == pytest.approx(6e-3)
    # pulses at (2i-1)*tau: read out at the last one, the last jump has no weight
    assert jump_weights(spec.tau, spec.n, t) == pytest.approx([1e-3, -1e-3, 0.0], abs=1e-15)


# ---------------------------------------------------------------- ideal evolution


def test_spin_echo_refocuses_at_echo_time():
    for delta in (0.0, 321.0, -2 * np.pi * 8.6e3):
        assert evolve(delta, 1.5e-3, 1, 3e-3)[2] == pytest.approx(-1.0, abs=1e-12)


def test_zero_detuning_fringe_alternates_with_pulse_count():
    for n in range(1, 7):
        assert evolve(0.0, 1e-3, n, (2 * n + 0.3) * 1e-3)[2] == pytest.approx(
            (-1.0) ** n, abs=1e-12)


def test_ramsey_fringe_is_cosine_of_accumulated_phase():
    delta, t = 2 * np.pi * 100.0, 3.7e-3
    assert evolve(delta, 0.0, 0, t)[2] == pytest.approx(np.cos(delta * t), abs=1e-12)
    assert w_cpmg(delta, 0.0, 0, t) == pytest.approx(np.cos(delta * t), abs=1e-15)


def test_cpmg_two_pulse_matches_closed_form_value():
    # Frozen expected: (-1)^2 * cos(2*pi*100 * (4.25e-3 - 4e-3)) = cos(0.05*pi)
    delta, tau, t = 2 * np.pi * 100.0, 1e-3, 4.25e-3
    expected = 0.9876883405951378
    assert evolve(delta, tau, 2, t)[2] == pytest.approx(expected, abs=1e-12)
    assert w_cpmg(delta, tau, 2, t) == pytest.approx(expected, abs=1e-12)


def test_evolution_matches_closed_form_on_random_grid():
    rng = np.random.default_rng(101)
    for n in range(1, 9):
        for _ in range(50):
            tau = 10.0 ** rng.uniform(-4, -2)
            t = (2 * n - 1) * tau + rng.uniform(0, 2) * tau
            delta = rng.normal(0.0, 2 * np.pi * 500.0)
            assert evolve(delta, tau, n, t)[2] == pytest.approx(
                w_cpmg(delta, tau, n, t), abs=1e-12
            )


def test_evolution_preserves_norm():
    rng = np.random.default_rng(102)
    for _ in range(10_000):
        n = int(rng.integers(0, 7))
        tau = 10.0 ** rng.uniform(-4, -2)
        t = ((2 * n - 1) * tau if n else 0.0) + rng.uniform(0, 2) * max(tau, 1e-4)
        final = evolve(rng.normal(0, 5e3), tau, n, t)
        assert np.linalg.norm(final) == pytest.approx(1.0, abs=1e-12)


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
        out = evolve(rng.normal(0, 1e3, n), 2e-3, n, 2 * n * 2e-3, np.zeros(n))
        assert out[2] == pytest.approx((-1.0) ** n, abs=1e-12)


def test_single_echo_jump_closed_form():
    tau, x = 1e-3, 77.0
    assert evolve([55.0], tau, 1, 2 * tau, [x])[2] == pytest.approx(
        -np.cos(tau * x), abs=1e-14
    )
    assert w_cpmg_perturbed(tau, 1, [x]) == pytest.approx(-np.cos(tau * x), abs=1e-15)


def test_perturbed_closed_form_matches_matrix_product():
    # The surviving sign pattern alternates with the pulse index; the
    # per-interval base detunings must drop out entirely at the echo time.
    rng = np.random.default_rng(104)
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        tau = 10.0 ** rng.uniform(-4, -2)
        base = rng.normal(0.0, 300.0, n)
        jumps = rng.normal(0.0, 2.0 / (n * tau), n)
        assert evolve(base, tau, n, 2 * n * tau, jumps)[2] == pytest.approx(
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
        assert evolve(delta, tau, n, t, np.zeros(n))[2] == pytest.approx(
            w_cpmg(delta, tau, n, t), abs=1e-12
        )
    with pytest.raises(DomainError):
        w_cpmg(0.0, 1e-3, 2, 2.9e-3, np.zeros(2))


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(0, 8),
    delta=st.floats(-2e4, 2e4),
    log_tau=st.floats(-4.0, -2.0),
    readout=st.floats(0.0, 2.0),
    jump_scale=st.floats(0.0, 2.0),
    jump_draw=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
)
def test_matrix_product_equals_closed_form_with_jumps(n, delta, log_tau, readout,
                                                      jump_scale, jump_draw):
    # Any detuning, spacing and readout time t >= (2n-1)*tau, and jumps of
    # up to 2 rad per interval: the product of 3x3 matrices gives
    # (-1)**n cos(accumulated_phase + jumps @ jump_weights).
    tau = 10.0**log_tau
    t = ((2 * n - 1) * tau if n else 0.0) + readout * tau
    jumps = jump_scale / tau * np.array(jump_draw[:n])
    assert evolve(delta, tau, n, t, jumps)[2] == pytest.approx(
        w_cpmg(delta, tau, n, t, jumps), abs=1e-12
    )


@st.composite
def spacing_stacks(draw):
    """n, B pulse spacings and a (B, N) stack of readout times, each after its row's last pulse."""
    n = draw(st.integers(0, 6))
    rows, points = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    taus = np.array([10.0 ** draw(st.floats(-5.0, -2.0)) for _ in range(rows)])
    delays = np.array([[draw(st.floats(0.0, 3.0)) for _ in range(points)] for _ in range(rows)])
    earliest = (2 * n - 1) * taus if n else np.zeros(rows)
    return n, taus, earliest[:, None] + delays * taus[:, None]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(spacing_stacks(), st.floats(-2e4, 2e4))
def test_a_column_of_spacings_equals_each_row_alone(stack, delta):
    # A (B, 1) column of spacings against a (B, N) stack of times gives each row
    # the phase and jump weights of that row's own call, bit for bit.
    n, taus, t = stack
    phase = accumulated_phase(delta, taus[:, None], n, t)
    weights = jump_weights(taus[:, None], n, t)
    assert phase.shape == t.shape and weights.shape == t.shape + (n,)
    for b, tau in enumerate(taus.tolist()):
        assert phase[b].tobytes() == accumulated_phase(delta, tau, n, t[b]).tobytes()
        assert weights[b].tobytes() == jump_weights(tau, n, t[b]).tobytes()


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(spacing_stacks(), st.data())
def test_a_stack_with_one_row_read_out_early_is_refused(stack, data):
    # One readout time of one row before that row's last pulse is refused with the
    # message of that row's own call, however many rows read out in time; so is
    # one non-positive spacing, for n >= 1.
    n, taus, t = stack
    b = data.draw(st.integers(0, len(taus) - 1))
    earliest = (2 * n - 1) * taus[b] if n else 0.0
    t[b, data.draw(st.integers(0, t.shape[1] - 1))] = (
        earliest - data.draw(st.floats(1e-3, 1.0)) * taus[b])
    with pytest.raises(DomainError) as alone:
        accumulated_phase(0.0, taus[b], n, t[b])
    with pytest.raises(DomainError) as stacked:
        accumulated_phase(0.0, taus[:, None], n, t)
    assert str(stacked.value) == str(alone.value)
    if n:
        taus[b] = data.draw(st.sampled_from([0.0, -taus[b]]))
        with pytest.raises(DomainError) as alone:
            SequenceSpec("cpmg", n, tau=taus[b])
        with pytest.raises(DomainError) as stacked:
            SequenceSpec("cpmg", n, tau=taus[:, None])
        assert str(stacked.value) == str(alone.value)


@pytest.mark.parametrize("n", [1.0, 1.5, True, "2"])
def test_a_pulse_count_that_is_not_an_integer_is_refused(n):
    with pytest.raises(DomainError, match="pulse count n must be an integer"):
        SequenceSpec("cpmg", n, tau=1e-3)
    with pytest.raises(DomainError, match="pulse count n must be an integer"):
        accumulated_phase(0.0, 1e-3, n, 5e-3)

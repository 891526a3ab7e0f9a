"""Closed-form models: direct values, asymptotics, and quadrature oracles."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from dephasim.analytic import (
    T2_STAR_PER_ETA,
    _fringe,
    envelope_alpha,
    envelope_kappa,
    fraction_from_w,
    fringe_inhomogeneous,
    homogeneous_factor,
    rabi_fraction,
    t1_fraction,
    t2_prime,
    visibility_cpmg,
    w_from_fraction,
)
from dephasim.bloch import accumulated_phase, jump_weights
from dephasim.errors import DomainError
from dephasim.noise import LightShiftDistribution, lightshift_pdf

T2_STAR = 1.4e-3
ETA = T2_STAR / 0.97


def visibility_spin_echo(t, c0, sigma_sig):
    """The single-echo decay: the n = 1 case of visibility_cpmg."""
    return visibility_cpmg(t, c0, sigma_sig, 1)


def quadrature_fringe_transform(x, dist):
    """Magnitude and phase of E[exp(-i*(delta_ls - delta0)*x)] by quadrature."""
    hi = dist.delta0 + 60.0 / dist.eta
    cos_part, _ = quad(
        lambda d: lightshift_pdf(dist, d) * np.cos((d - dist.delta0) * x),
        dist.delta0, hi, limit=800,
    )
    sin_part, _ = quad(
        lambda d: lightshift_pdf(dist, d) * np.sin((d - dist.delta0) * x),
        dist.delta0, hi, limit=800,
    )
    return math.hypot(cos_part, sin_part), math.atan2(-sin_part, cos_part)


# ---------------------------------------------------------------- envelopes


def test_alpha_anchor_values():
    assert envelope_alpha(0.0, T2_STAR) == 1.0
    # (1 + k**2)**(-3/2) with k = 0.97: 0.370 at x = T2*, not exactly 1/e
    assert envelope_alpha(T2_STAR, T2_STAR) == pytest.approx(0.3698241433631481, rel=1e-12)


def test_kappa_anchor_and_asymptote():
    assert envelope_kappa(0.0, T2_STAR) == 0.0
    assert envelope_kappa(1e6 * T2_STAR, T2_STAR) == pytest.approx(
        -3 * np.pi / 2, rel=1e-5
    )


def test_kappa_equals_exact_characteristic_phase():
    # -3*arctan(k*x/T2*) is identically -3*arctan(x/eta) for eta = T2*/k,
    # and [1 + (k*x/T2*)**2]**(-3/2) is the magnitude (1 + (x/eta)**2)**(-3/2).
    x = np.linspace(-5 * T2_STAR, 5 * T2_STAR, 101)
    assert T2_STAR_PER_ETA == 0.97
    assert envelope_kappa(x, T2_STAR) == pytest.approx(-3 * np.arctan(x / ETA), abs=1e-15)
    assert envelope_alpha(x, T2_STAR) == pytest.approx((1 + (x / ETA) ** 2) ** -1.5, rel=1e-14)


def test_envelopes_match_quadrature_of_the_distribution():
    dist = LightShiftDistribution(delta0=2 * np.pi * 500.0, eta=ETA)
    xs = np.linspace(0.05 * T2_STAR, 3 * T2_STAR, 13)
    mags, phases = zip(*(quadrature_fringe_transform(x, dist) for x in xs))
    phases = np.unwrap(phases)
    for x, mag, phase in zip(xs, mags, phases):
        # the envelopes are the characteristic function's magnitude and phase
        assert envelope_alpha(x, T2_STAR) == pytest.approx(mag, rel=1e-7)
        assert abs(envelope_kappa(x, T2_STAR) - phase) < 1e-7


def test_envelope_rejects_bad_scale():
    with pytest.raises(DomainError):
        envelope_alpha(1.0, 0.0)
    with pytest.raises(DomainError):
        envelope_kappa(1.0, -1.0)


# ---------------------------------------------------------------- fringe


def test_fringe_at_echo_time_alternates():
    for n in range(0, 5):
        tau = 2e-3 if n else 0.0
        w = fringe_inhomogeneous(2 * n * tau, 2 * np.pi * 300, T2_STAR, n, tau)
        assert w == pytest.approx((-1.0) ** n, abs=1e-12)


@pytest.mark.parametrize("t2_star", [T2_STAR, math.inf])
@pytest.mark.parametrize("n", range(7))
def test_fringe_is_the_unit_visibility_zero_phase_formula(n, t2_star):
    # The public model and the fringe fit share one formula: the public one
    # is _fringe at visibility 1 and phase 0, bit for bit.
    tau = 0.7e-3 if n else 0.0
    delta_prime = 2 * np.pi * 1.3e3
    t = np.linspace(max(2 * n - 1, 0) * tau, 2 * n * tau + 3 * T2_STAR, 101)
    expected = _fringe(t - 2 * n * tau, 1.0, delta_prime, 0.0, t2_star, n)
    assert np.array_equal(fringe_inhomogeneous(t, delta_prime, t2_star, n, tau), expected)
    scalar = _fringe(t[7] - 2 * n * tau, 1.0, delta_prime, 0.0, t2_star, n)
    assert fringe_inhomogeneous(t[7], delta_prime, t2_star, n, tau) == scalar


def zero_crossing_spacing(delta_prime, t2_star, t_max):
    t = np.linspace(0.0, t_max, 200_001)
    y = fringe_inhomogeneous(t, delta_prime, t2_star, 0)
    idx = np.where(np.diff(np.sign(y)) != 0)[0]
    crossings = t[idx] - y[idx] * (t[idx + 1] - t[idx]) / (y[idx + 1] - y[idx])
    return np.diff(crossings)


def test_ramsey_zero_crossing_spacing():
    # Pure carrier (no envelope): spacing exactly half a detuning period, 58.14 us.
    spacing = zero_crossing_spacing(2 * np.pi * 8.6e3, math.inf, 0.4e-3)
    assert spacing[0] == pytest.approx(1.0 / (2 * 8.6e3), rel=1e-3)
    # With the envelope and its phase chirp, the near-zero spacing stretches by ~4%.
    spacing = zero_crossing_spacing(2 * np.pi * 8.6e3, T2_STAR, 0.4e-3)
    assert spacing[0] == pytest.approx(1.0 / (2 * 8.6e3), rel=0.05)


def test_fringe_matches_quadrature_pointwise():
    dist = LightShiftDistribution(delta0=2 * np.pi * 1.2e3, eta=ETA)
    delta_set_minus_b = 2 * np.pi * 9.0e3
    n, tau = 2, 0.8e-3
    delta_prime = delta_set_minus_b - dist.delta0
    hi = dist.delta0 + 60.0 / dist.eta
    for t in np.linspace(2 * n * tau, 2 * n * tau + 2 * T2_STAR, 9):
        x = t - 2 * n * tau
        target, _ = quad(
            lambda d: lightshift_pdf(dist, d) * np.cos((delta_set_minus_b - d) * x),
            dist.delta0, hi, limit=800,
        )
        assert fringe_inhomogeneous(t, delta_prime, T2_STAR, n, tau) == pytest.approx(
            (-1.0) ** n * target, abs=0.02
        )


def test_fringe_rejects_early_readout():
    with pytest.raises(DomainError):
        fringe_inhomogeneous(2.9e-3, 100.0, T2_STAR, 2, 1e-3)
    with pytest.raises(DomainError):
        fringe_inhomogeneous(-1e-6, 100.0, T2_STAR, 0)


def test_fringe_envelope_off_mode_is_pure_cosine():
    delta_prime = 2 * np.pi * 250
    t = np.linspace(5e-3, 15e-3, 50)
    assert fringe_inhomogeneous(t, delta_prime, math.inf, 1, 5e-3) == pytest.approx(
        -np.cos(delta_prime * (t - 0.01)), abs=1e-12
    )


# ---------------------------------------------------------------- visibility


def test_spin_echo_visibility_anchors():
    assert visibility_spin_echo(0.0, 0.687, 27.6) == pytest.approx(0.687)
    t_e = 2 * math.sqrt(2) / 27.6
    assert visibility_spin_echo(t_e, 0.687, 27.6) == pytest.approx(
        0.687 * math.exp(-1.0), rel=1e-12
    )
    assert visibility_spin_echo(0.05, 0.687, 27.6) == visibility_cpmg(0.05, 0.687, 27.6, 1)


def test_cpmg_visibility_table_row_six():
    assert visibility_cpmg(0.0, 0.602, 55.7, 6) == pytest.approx(0.602)
    assert visibility_cpmg(0.3045, 0.602, 55.7, 6) == pytest.approx(
        0.602 * math.exp(-0.998832112578125), rel=1e-12
    )


def test_visibility_monotonicity_properties():
    rng = np.random.default_rng(301)
    for _ in range(200):
        c0 = rng.uniform(0.1, 1.0)
        sigma = rng.uniform(1.0, 100.0)
        t = np.sort(rng.uniform(0.0, 0.5, size=8))
        n = int(rng.integers(1, 8))
        v = visibility_cpmg(t, c0, sigma, n)
        assert np.all(np.diff(v) <= 1e-15)  # non-increasing in t
        v_more_pulses = visibility_cpmg(t, c0, sigma, n + 1)
        assert np.all(v_more_pulses >= v - 1e-15)  # more pulses never decay faster
        assert np.all((v >= 0) & (v <= c0) & np.isfinite(v))


def test_visibility_params_validated():
    with pytest.raises(DomainError):
        visibility_cpmg(0.0, 1.2, 10.0, 1)
    with pytest.raises(DomainError):
        visibility_cpmg(0.0, 0.5, -1.0, 1)
    with pytest.raises(DomainError):
        visibility_cpmg(0.0, 0.5, 10.0, 0)


# ---------------------------------------------------------------- homogeneous factor


def test_homogeneous_factor_anchors():
    assert homogeneous_factor(5e-3, [0.0, 0.0]) == 1.0
    assert homogeneous_factor(0.0, [50.0, 60.0]) == 1.0
    assert homogeneous_factor(0.01, [10.0, 20.0, 30.0]) == pytest.approx(
        0.9323938199059482, rel=1e-12
    )


def test_homogeneous_factor_matches_fringe_average():
    rng = np.random.default_rng(302)
    tau, sigmas = 0.01, np.array([10.0, 20.0, 30.0])
    draws = rng.normal(0.0, 1.0, size=(1_000_000, 3)) * sigmas
    # (-1)**n times the echo fringe (-1)**n * cos(Phi) of the phase kernel
    phase = accumulated_phase(0.0, tau, 3, 6 * tau) + draws @ jump_weights(tau, 3, 6 * tau)
    average = np.mean(np.cos(phase))
    assert average == pytest.approx(homogeneous_factor(tau, sigmas), rel=0.003)


# ---------------------------------------------------------------- T2'


def test_t2_prime_reference_values():
    assert t2_prime(1, 27.6) == pytest.approx(0.1024792, rel=1e-5)
    assert t2_prime(4, 57.4) == pytest.approx(0.1971029, rel=1e-5)
    assert t2_prime(6, 55.7) == pytest.approx(0.3046780, rel=1e-5)


def test_t2_prime_scaling_and_edge_cases():
    assert t2_prime(1, 0.0) == math.inf
    for n in range(1, 8):
        assert t2_prime(n, 40.0) == pytest.approx(n * t2_prime(1, 40.0), rel=1e-12)
    assert t2_prime(3, 20.0) == pytest.approx(2 * t2_prime(3, 40.0), rel=1e-12)
    with pytest.raises(DomainError):
        t2_prime(0, 10.0)
    with pytest.raises(DomainError):
        t2_prime(2, -5.0)


# ---------------------------------------------------------------- auxiliary models


def test_rabi_model_anchors():
    omega = 2 * np.pi * 130e3
    assert rabi_fraction(0.0, omega, contrast=0.45, offset=0.5) == pytest.approx(0.95)
    half_period = math.pi / omega
    assert rabi_fraction(half_period, omega, 0.45, 0.5) == pytest.approx(0.05)


def test_t1_model_anchors():
    assert t1_fraction(0.0, 0.8308, 0.5, 0.45) == pytest.approx(0.95)
    assert t1_fraction(0.8308, 0.8308, 0.5, 0.45) == pytest.approx(0.45 + 0.5 / math.e, rel=1e-12)
    with pytest.raises(DomainError):
        t1_fraction(0.0, 0.0, 0.5, 0.45)


# ---------------------------------------------------------------- fraction map


def test_fraction_convention():
    assert fraction_from_w(-1.0) == 1.0
    assert fraction_from_w(1.0) == 0.0
    assert fraction_from_w(0.0) == 0.5
    assert fraction_from_w(-1.0, invert=True) == 0.0
    with pytest.raises(DomainError):
        fraction_from_w(1.01)
    with pytest.raises(DomainError):
        fraction_from_w(np.array([0.0, -1.2]))


def test_fraction_round_trip():
    w = np.linspace(-1, 1, 21)
    for invert in (False, True):
        back = w_from_fraction(fraction_from_w(w, invert=invert), invert=invert)
        assert back == pytest.approx(w, abs=1e-15)


def test_closed_forms_stay_in_range_on_random_grids():
    rng = np.random.default_rng(303)
    for _ in range(300):
        t2s = rng.uniform(1e-4, 1e-2)
        x = rng.uniform(-10 * t2s, 10 * t2s)
        a = envelope_alpha(x, t2s)
        assert 0.0 < a <= 1.0
        assert abs(envelope_kappa(x, t2s)) < 3 * np.pi / 2
        n = int(rng.integers(0, 6))
        tau = rng.uniform(1e-4, 1e-2) if n else 0.0
        delta_prime = rng.normal(0, 1e5)
        t = (2 * n - 1) * tau + rng.uniform(0, 3) * (tau if n else t2s)
        f = fringe_inhomogeneous(t, delta_prime, t2s, n, tau)
        assert np.isfinite(f) and -1.0 <= f <= 1.0
        assert 0.0 < homogeneous_factor(rng.uniform(0, 0.1), rng.uniform(0, 50, 3)) <= 1.0


# ---------------------------------------------------------------- refusals


@pytest.mark.parametrize("call, message", [
    (lambda: fringe_inhomogeneous(1e-3, 100.0, 0.0, 0), "t2_star must be positive"),
    (lambda: visibility_cpmg([0.1, -0.1], 0.5, 10.0, 1), "total time t must be >= 0"),
    (lambda: homogeneous_factor(-1e-3, [10.0]), "tau must be >= 0"),
    (lambda: homogeneous_factor(1e-3, [10.0, -1.0]), "all sigma_i must be >= 0"),
    (lambda: rabi_fraction(-1e-6, 1e6, 0.45, 0.5), "pulse duration must be >= 0"),
    (lambda: t1_fraction([0.0, -0.1], 0.8, 0.5, 0.45), "trapping time must be >= 0"),
    (lambda: w_from_fraction(1.5), r"fraction outside \[0, 1\]"),
], ids=["fringe-t2-star", "visibility-time", "factor-tau", "factor-sigma", "rabi-time",
        "t1-time", "fraction-range"])
def test_public_models_refuse_arguments_outside_their_domain(call, message):
    with pytest.raises(DomainError, match=message):
        call()

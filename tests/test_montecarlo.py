"""Ensemble simulation: kernel equivalence, convergence to closed forms,
measurement emulation, determinism, and the two-stage visibility pipeline."""

import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from bloch_oracle import evolve
import dephasim.montecarlo as montecarlo
from dephasim.analytic import (
    T2_STAR_PER_ETA,
    _gaussian_factor,
    _readout,
    envelope_alpha,
    envelope_kappa,
    fraction_from_w,
    homogeneous_factor,
    t2_prime,
)
from dephasim.bloch import SequenceSpec, accumulated_phase, jump_weights
from dephasim.errors import DataFormatError, DomainError, FitError
from dephasim.fit import fit_fringe, fit_visibility_decay, weighted_points
from dephasim.montecarlo import (
    ExperimentConfig,
    FringeDataset,
    VisibilityPoint,
    _DATASET_TABLE,
    _VISIBILITY_TABLE,
    _fringe_grids,
    _phasor,
    _read_table,
    _write_table,
    ensemble_probability,
    scan_visibility,
    simulate_dataset,
)
from dephasim.noise import HomogeneousNoiseSpec, LightShiftDistribution, gamma3_log
from test_noise import ConstantWords, sample_jump_phase

ETA = 1.4e-3 / 0.97      # light-shift rate giving the measured 1.4 ms envelope time


def oracle_w(seq, t):
    """The readout w of ``seq`` at time t from the 3x3 matrix products."""
    return evolve(seq.delta, seq.tau, seq.n, float(t))[2]


def exact_mean_cos(t, a, eta):
    """E[cos((a - G) t)] for G ~ Gamma(3, eta): the envelopes at T2* = k*eta."""
    t2_star = T2_STAR_PER_ETA * eta
    return envelope_alpha(t, t2_star) * np.cos(a * t + envelope_kappa(t, t2_star))


def echo_config(**overrides):
    seq = SequenceSpec("spin_echo", 1, tau=5e-3, delta=2 * math.pi * 300.0)
    base = dict(sequence=seq, time_grid=(0.0103,), rng_seed=0)
    base.update(overrides)
    return ExperimentConfig(**base)


# ------------------------------------------------ characteristic-function kernel


def kernel_bound(s, log_g):
    """Per-draw bound of ``_phasor`` against float64 cos and sin of the exact L*s.

    Fixed before any run.  With u = 2**-24, float32's unit roundoff, and L the
    exact log of the product of three factors 1 - U (each exact in float32):
    the product rounds twice, relative 2u, which moves its log by at most
    1.0001 * 2u; numpy's float32 log is within 4 ulp of its result, at most
    4 * 2u * |L|; rounding s to float32 and rounding theta = L*s cost relative
    u each, 2u * |L*s|.  So |theta - L*s| <= 2u * |s| * (1.0001 + 5.0001 |L|).
    numpy's float32 cosine and sine are within 2 ulp of a value in [-1, 1],
    2 * u = 2u, and both are 1-Lipschitz.  Sum 2u * (1 + |s| * (1.0001 +
    5.0001 |L|)); the bound 2u * (1 + |s| * (2 + 6 |L|)) also covers the
    float64 reference's own rounding.  It grows with s = x/eta: 3.0e-5 at
    s = 2.08 and |L| = 20.
    """
    return 2.0**-23 * (1 + np.abs(s) * (2 + 6 * np.abs(log_g)))


def reference_phasor(log_g, s):
    """cos and sin of theta = L*s in float64, for float64 L."""
    theta = log_g * s
    return np.cos(theta), np.sin(theta)


def test_float32_kernel_within_its_bound_per_draw():
    size = 10**6
    u = np.random.default_rng(2024).random(3 * size, dtype=np.float32).reshape(3, size)
    exact = np.log((1 - u[0].astype(float)) * (1 - u[1]) * (1 - u[2]))
    # the README grid's end (2.08), beyond it, negative x, and the largest s the
    # kernel takes (beyond it chi is 0 and no phasor is taken)
    for s in (0.035, 0.5, 2.08, 20.0, -7.3, 1e3, 2.0**121):
        cos, sin = _phasor(gamma3_log(np.random.default_rng(2024), size), s)
        assert cos.dtype == sin.dtype == np.float32
        cos_ref, sin_ref = reference_phasor(exact, s)
        bound = kernel_bound(s, exact)
        assert np.all(np.abs(cos - cos_ref) <= bound)
        assert np.all(np.abs(sin - sin_ref) <= bound)
    # the extreme uniforms: every factor 1 (L = 0), every factor 2**-24
    # (L = -72 ln 2), and draws with two or one factors 2**-24
    for word, smallest in ((0, [0, 0, 0]), (2**64 - 1, [3, 3, 3]), (2**32 - 1, [2, 1, 2])):
        exact = -24 * math.log(2) * np.array(smallest, dtype=float)
        for s in (0.035, 2.08, -20.0, 1e3, 2.0**121):
            cos, sin = _phasor(gamma3_log(ConstantWords(word), 3), s)
            cos_ref, sin_ref = reference_phasor(exact, s)
            bound = kernel_bound(s, exact)
            assert np.all(np.abs(cos - cos_ref) <= bound)
            assert np.all(np.abs(sin - sin_ref) <= bound)


@pytest.mark.parametrize("scaled", [0.035, 0.5, 2.08, 20.0])
def test_kernel_estimates_the_characteristic_function_within_four_standard_errors(scaled):
    # chi(x) = E[exp(i*L*x/eta)] = (1 + i*x/eta)**-3.  Over N draws the two means
    # have the standard errors sqrt(Var/N), with E[cos**2] = (1 + Re chi(2x))/2
    # and E[sin**2] = (1 - Re chi(2x))/2.
    size = 10**6
    cos, sin = _phasor(gamma3_log(np.random.default_rng(31), size), scaled)
    chi, chi_2 = (1 + 1j * scaled) ** -3.0, (1 + 2j * scaled) ** -3.0
    se_re = math.sqrt(((1 + chi_2.real) / 2 - chi.real**2) / size)
    se_im = math.sqrt(((1 - chi_2.real) / 2 - chi.imag**2) / size)
    assert abs(np.mean(cos, dtype=np.float64) - chi.real) <= 4 * se_re
    assert abs(np.mean(sin, dtype=np.float64) - chi.imag) <= 4 * se_im


# x = t - 2*n*tau: Ramsey (n = 0, tau = 0) gives x = t, and one pulse read out
# at t = tau gives x = -tau
@pytest.mark.parametrize("n, tau, t, eta", [
    (0, 0.0, np.nextafter(2.0**121, np.inf), 1.0),
    (1, 1e38, 1e38, 1.0),
    (0, 0.0, 1e300, 1.0),
    (0, 0.0, 1.0, 5e-324),    # x/eta overflows to inf
    (1, 1.0, 1.0, 5e-324),    # and to -inf
], ids=["past-2**121", "-1e38", "1e300", "inf", "-inf"])
def test_kernel_takes_chi_at_its_limit_beyond_float32_theta_range(n, tau, t, eta):
    # |L| <= 72 ln 2 < 2**6: beyond |x/eta| = 2**121, theta = L*x/eta could
    # overflow float32, and |chi| < 2**-363 there.  chi is its limit 0, so the
    # probability is the readout of 0; the point's draws are made all the same.
    seq = SequenceSpec("cpmg" if n else "ramsey", n, tau=tau, delta=2 * math.pi * 8.6e3)
    cfg = ExperimentConfig(sequence=seq, inhomogeneous=LightShiftDistribution(0.0, eta),
                           noise_draws=1000, contrast=0.9, time_grid=(t,))
    with np.errstate(over="ignore"):
        assert abs((t - 2 * n * tau) / eta) > 2.0**121
    rng, expected_rng = np.random.default_rng(7), np.random.default_rng(7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = ensemble_probability(cfg, t, rng)
    assert p == _readout(0.0, False)
    gamma3_log(expected_rng, cfg.noise_draws)
    assert rng.bit_generator.state == expected_rng.bit_generator.state


def test_noise_free_phases_keep_the_exact_float64_cosine():
    # No draw enters the phase (no noise, or homogeneous noise at n = 0): the
    # one evaluation is the float64 cosine, bit for bit, even at large phases.
    delta = 2 * math.pi * 8.6e3
    seq = SequenceSpec("ramsey", 0, delta=delta)
    rng = np.random.default_rng(1)
    for homogeneous in (None, HomogeneousNoiseSpec(np.array([50.0]))):
        cfg = ExperimentConfig(sequence=seq, homogeneous=homogeneous, time_grid=(1.0,))
        for t in (3.1e-4, 0.0217, 1.9):
            assert ensemble_probability(cfg, t, rng) == (1.0 - np.cos(delta * t)) / 2.0


# ------------------------------------------------------------ single draws


def test_no_noise_is_deterministic_and_exact():
    rng = np.random.default_rng(0)
    # Ramsey at zero detuning: perfect refocusing regardless of t
    cfg = ExperimentConfig(sequence=SequenceSpec("ramsey", 0, delta=0.0), time_grid=(1.0,))
    for t in (1e-4, 3.7e-3, 2.0):
        assert ensemble_probability(replace(cfg, noise_draws=1), t, rng) == fraction_from_w(1.0)
    # CPMG against the closed form
    seq = SequenceSpec("cpmg", 3, tau=2e-3, delta=2 * math.pi * 400.0)
    cfg = ExperimentConfig(sequence=seq, time_grid=(0.0123,))
    t = 0.0123
    expected = fraction_from_w(oracle_w(seq, t))
    one_draw = replace(cfg, noise_draws=1)
    assert ensemble_probability(one_draw, t, rng) == pytest.approx(expected, abs=1e-12)
    assert ensemble_probability(cfg, t, rng) == pytest.approx(expected, abs=1e-12)
    # identical on repeated calls: no randomness consumed
    assert ensemble_probability(one_draw, t, rng) == ensemble_probability(one_draw, t, rng)


def test_invalid_readout_time_rejected():
    cfg = echo_config()
    rng = np.random.default_rng(1)
    with pytest.raises(DomainError):
        ensemble_probability(replace(cfg, noise_draws=1), 2e-3, rng)  # before the refocusing pulse
    with pytest.raises(DomainError):
        ensemble_probability(cfg, 2e-3, rng)


def test_batch_kernel_matches_per_draw_evolution():
    # readout times from the last half turn to past the echo, never on it
    rng = np.random.default_rng(2)
    tau = 1e-3
    for n in (0, 1, 2, 3, 6, 12):
        delta_eff = rng.uniform(-3e3, 3e3, size=200)
        jumps = rng.normal(0.0, 40.0, size=(200, n))
        times = ((2 * n - 0.9) * tau, (2 * n - 0.3) * tau, 2 * n * tau + 0.4e-3) if n \
            else (0.1e-3, 0.7e-3, 1.4e-3)
        for t in times:
            phase = accumulated_phase(delta_eff, tau, n, t) + jumps @ jump_weights(tau, n, t)
            batch = (-1.0) ** n * np.cos(phase)
            for k in range(0, 200, 17):
                oracle = evolve(delta_eff[k], tau, n, t, jumps[k])[2]
                assert batch[k] == pytest.approx(oracle, abs=1e-12)


# Bound on the float64 rounding between two evaluations of the same closed
# form on values of magnitude <= 1, fixed before any run: each side rounds a
# dozen operations (the jump variance, exp, cos, their product, the readout),
# each within 2**-53 = 1.1e-16 relative, so they agree within about 3e-15.
ROUNDING_BOUND = 1e-14


def filter_factor_case(n):
    """Sequence, unequal per-interval sigmas and two off-echo readout times."""
    tau, delta = 2e-3, 2 * math.pi * 60.0
    sigmas = np.linspace(50.0, 200.0, n)
    seq = SequenceSpec("spin_echo" if n == 1 else "cpmg", n, tau=tau, delta=delta)
    return seq, sigmas, (2 * n * tau - 0.6 * tau, 2 * n * tau + 0.4e-3)


def filter_factor_w(seq, sigmas, t):
    """(-1)**n cos(delta x) exp(-(1/2) sum_i c_i**2 sigma_i**2), x = t - 2 n tau."""
    c = jump_weights(seq.tau, seq.n, t)
    return (-1.0) ** seq.n * math.cos(seq.delta * (t - 2 * seq.n * seq.tau)) \
        * math.exp(-0.5 * np.sum(c**2 * sigmas**2))


@pytest.mark.parametrize("n", [1, 3, 6])
def test_one_gaussian_per_shot_matches_filter_factor_off_echo(n):
    # Per-interval sigmas differ, so the readout-dependent last weight must
    # pair with the last sigma.  With jumps only, the estimate is the exact
    # filter factor, one deterministic evaluation: equal within rounding, and
    # no random number is drawn.
    seq, sigmas, times = filter_factor_case(n)
    cfg = ExperimentConfig(sequence=seq, homogeneous=HomogeneousNoiseSpec(sigmas),
                           time_grid=(2 * n * seq.tau,))
    rng = np.random.default_rng(40 + n)
    state = rng.bit_generator.state
    for t in times:
        p = ensemble_probability(cfg, t, rng)
        assert abs(p - fraction_from_w(filter_factor_w(seq, sigmas, t))) <= ROUNDING_BOUND
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("n", [1, 3, 6])
def test_sampled_jump_phase_averages_to_the_filter_factor_off_echo(n):
    # The draw-level check behind the exact average: the mean of
    # cos(delta x + S) over one Gaussian S per shot, drawn by the test-side
    # sampler, lies within 4 standard errors of the same factor.
    seq, sigmas, times = filter_factor_case(n)
    spec = HomogeneousNoiseSpec(sigmas)
    rng = np.random.default_rng(40 + n)
    for t in times:
        x = t - 2 * n * seq.tau
        cosines = np.cos(seq.delta * x + sample_jump_phase(spec, seq.tau, t, rng, size=400_000))
        se = np.std(cosines, ddof=1) / math.sqrt(cosines.size)
        assert abs((-1.0) ** n * np.mean(cosines) - filter_factor_w(seq, sigmas, t)) <= 4 * se


@pytest.mark.parametrize("light_shift", [False, True])
def test_overflowing_jump_variance_is_fully_dephased(light_shift):
    # sigma**2 is finite but (c_n sigma)**2 with c_n = t - tau ~ 10 s is not:
    # the jump factor is exp(-inf) = 0, so w = 0 and the fraction is the
    # fully dephased 1/2, without a warning (warnings fail the suite).
    seq = SequenceSpec("spin_echo", 1, tau=5e-3, delta=2 * math.pi * 300.0)
    cfg = ExperimentConfig(
        sequence=seq, homogeneous=HomogeneousNoiseSpec([1.3e154]),
        inhomogeneous=LightShiftDistribution(0.0, ETA) if light_shift else None,
        time_grid=(10.0,), noise_draws=1000, contrast=0.8,
    )
    assert ensemble_probability(cfg, 10.0, np.random.default_rng(5)) == fraction_from_w(0.0)
    dataset = simulate_dataset(cfg)
    assert dataset.trials[0] == cfg.cycles_per_point
    # On a grid the overflow stays with its own time: at t = tau the last
    # weight is 0 and the factor 1, so that point keeps its fringe.
    grid = np.array([5e-3, 10.0, 20.0])
    p = ensemble_probability(cfg, grid, np.random.default_rng(5))
    rng = np.random.default_rng(5)
    assert np.array_equal(p, [ensemble_probability(cfg, t, rng) for t in grid])
    assert np.all(p[1:] == fraction_from_w(0.0)) and p[0] != fraction_from_w(0.0)


@st.composite
def grid_configs(draw):
    """A config with jumps of unequal sigmas and a readout grid valid for its n."""
    n = draw(st.integers(0, 6))
    tau = draw(st.floats(1e-4, 1e-2))
    kind = {0: "ramsey", 1: "spin_echo"}.get(n, "cpmg")
    seq = SequenceSpec(kind, n, tau=tau if n else 0.0,
                       delta=draw(st.floats(-2 * math.pi * 2e3, 2 * math.pi * 2e3)))
    sigmas = draw(st.lists(st.floats(0.0, 400.0), min_size=max(n, 1), max_size=max(n, 1),
                           unique=True))
    earliest = (2 * n - 1) * seq.tau
    offsets = draw(st.lists(st.floats(0.0, 4 * max(tau, 1e-3)), min_size=1, max_size=25,
                            unique=True))
    return ExperimentConfig(
        sequence=seq, homogeneous=HomogeneousNoiseSpec(sigmas),
        time_grid=tuple(sorted({earliest + x for x in offsets})),
        zeeman_shift=draw(st.floats(-2 * math.pi * 500.0, 2 * math.pi * 500.0)),
        contrast=draw(st.floats(0.0, 1.0)), invert_fraction=draw(st.booleans()),
        noise_draws=64, rng_seed=draw(st.integers(0, 2**32)),
    )


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(cfg=grid_configs(), light_shift=st.booleans())
def test_grid_call_equals_the_per_point_calls(cfg, light_shift):
    # One call over the whole grid is the per-point calls in grid order.  With
    # jumps only, each point is one deterministic float64 evaluation and no
    # random number is drawn; with a light shift, each point's draws come from
    # the stream in grid order, so two generators of one seed agree exactly.
    grid = np.array(cfg.time_grid)
    if light_shift:
        cfg = replace(cfg, inhomogeneous=LightShiftDistribution(2 * math.pi * 50.0, ETA))
    first, second = np.random.default_rng(cfg.rng_seed), np.random.default_rng(cfg.rng_seed)
    state = first.bit_generator.state
    p = ensemble_probability(cfg, grid, first)
    per_point = np.array([ensemble_probability(cfg, t, second) for t in grid])
    assert p.shape == grid.shape and np.all((p >= 0.0) & (p <= 1.0))
    if light_shift:
        assert np.array_equal(p, per_point)
        assert first.bit_generator.state == second.bit_generator.state
    else:
        assert np.all(np.abs(p - per_point) <= ROUNDING_BOUND)
        assert first.bit_generator.state == state


def noise_free_reference(config, t):
    """The ensemble average without a light shift, written as its own branch.

    The exact float64 cosine of the one phase per time, times the jump factor G
    when the config has jumps: readout(contrast * (-1)**n * cos(phase) * G).
    """
    seq = config.sequence
    mean_cos = np.cos(accumulated_phase(seq.delta - config.zeeman_shift, seq.tau, seq.n, t))
    if config.homogeneous is not None and seq.n >= 1:
        mean_cos = mean_cos * _gaussian_factor(jump_weights(seq.tau, seq.n, t),
                                               config.homogeneous.sigmas)
    return _readout(config.contrast * ((-1.0) ** seq.n * mean_cos), config.invert_fraction)


@st.composite
def noise_free_configs(draw):
    """A config without a light shift and readout times on or off the echo.

    Ramsey without noise, or n = 1..6 with or without jumps; a CPMG config may
    take a (B, 1) column of spacings against a (B, N) grid.
    """
    n = draw(st.integers(0, 6))
    rows = draw(st.integers(1, 4)) if n and draw(st.booleans()) else 0
    spacings = draw(st.lists(st.floats(1e-4, 1e-2), min_size=max(rows, 1),
                             max_size=max(rows, 1)))
    tau = np.array(spacings)[:, None] if rows else (spacings[0] if n else 0.0)
    seq = SequenceSpec({0: "ramsey", 1: "spin_echo"}.get(n, "cpmg"), n, tau=tau,
                       delta=draw(st.floats(-2 * math.pi * 2e3, 2 * math.pi * 2e3)))
    jumps = n and draw(st.booleans())
    offsets = [0.0] if n and draw(st.booleans()) else draw(  # on the echo, or off it
        st.lists(st.floats(0.0 if n == 0 else -0.99, 4.0), min_size=1, max_size=9))
    t = 2 * n * tau + np.array(offsets) * (tau if n else 1e-3)
    config = ExperimentConfig(
        sequence=seq,
        homogeneous=HomogeneousNoiseSpec(draw(st.lists(st.floats(0.0, 400.0), min_size=n,
                                                       max_size=n))) if jumps else None,
        zeeman_shift=draw(st.sampled_from([0.0, 2 * math.pi * 37.0, -2 * math.pi * 500.0])),
        contrast=draw(st.floats(0.0, 1.0)), invert_fraction=draw(st.booleans()),
    )
    return config, t


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(case=noise_free_configs())
def test_the_ensemble_average_without_a_light_shift_is_the_exact_cosine_bit_for_bit(case):
    # With chi = 1 exactly, cos(a)*Re(chi) - sin(a)*Im(chi) is cos(a), and the
    # carrier (delta_eff - 0)*(1*x) is the phase delta_eff*x: the one formula
    # gives the noise-free branch bit for bit and draws nothing.
    config, t = case
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    assert np.array_equal(ensemble_probability(config, t, rng), noise_free_reference(config, t))
    assert rng.bit_generator.state == state


def test_contrast_and_inversion_flow_through():
    seq = SequenceSpec("ramsey", 0, delta=2 * math.pi * 500.0)
    rng = np.random.default_rng(3)
    t = 4e-4
    w = math.cos(seq.delta * t)
    cfg = ExperimentConfig(sequence=seq, time_grid=(t,), contrast=0.6, noise_draws=1)
    assert ensemble_probability(cfg, t, rng) == \
        pytest.approx((1 - 0.6 * w) / 2, abs=1e-12)
    cfg = replace(cfg, invert_fraction=True)
    assert ensemble_probability(cfg, t, rng) == \
        pytest.approx((1 + 0.6 * w) / 2, abs=1e-12)


def test_zeeman_shift_offsets_the_carrier():
    shift = 2 * math.pi * 200.0
    seq = SequenceSpec("ramsey", 0, delta=2 * math.pi * 1200.0)
    cfg = ExperimentConfig(sequence=seq, time_grid=(1e-3,), zeeman_shift=shift)
    rng = np.random.default_rng(4)
    t = 7e-4
    expected = (1 - math.cos((seq.delta - shift) * t)) / 2
    assert ensemble_probability(replace(cfg, noise_draws=1), t, rng) == \
        pytest.approx(expected, abs=1e-12)


# ------------------------------------------------------ ensemble averages


def test_ramsey_ensemble_matches_characteristic_function():
    # inhomogeneous only: 1e5 draws against the exact Gamma characteristic
    # function envelope, within 1% everywhere
    delta = 2 * math.pi * 8.6e3
    cfg = ExperimentConfig(
        sequence=SequenceSpec("ramsey", 0, delta=delta),
        inhomogeneous=LightShiftDistribution(0.0, ETA),
        time_grid=(1e-3,), noise_draws=100_000,
    )
    rng = np.random.default_rng(3)
    for t in np.linspace(0.05e-3, 3e-3, 12):
        p = ensemble_probability(cfg, float(t), rng)
        w = exact_mean_cos(t, delta, ETA)
        assert p == pytest.approx((1 - w) / 2, abs=0.01)


@pytest.mark.parametrize("contrast, invert", [(1.0, False), (0.73, True)])
def test_ramsey_ensemble_within_five_standard_errors_of_exact_oracle(contrast, invert):
    # Phi = (delta - zeeman - delta0 - G) t with G ~ Gamma(3, eta), so
    # E[cos Phi] = alpha(t) cos(a t + kappa(t)) with a = delta - zeeman - delta0,
    # and E[cos 2 Phi] is the same at 2t.  Var[cos Phi] = (1 + E[cos 2 Phi])/2
    # - E[cos Phi]**2 gives the standard error of the estimated fraction,
    # contrast/2 * sqrt(Var/draws); the bound is 5 of them.
    delta, zeeman, delta0 = 2 * math.pi * 2.4e3, 2 * math.pi * 350.0, 2 * math.pi * 600.0
    draws = 100_000
    cfg = ExperimentConfig(
        sequence=SequenceSpec("ramsey", 0, delta=delta),
        inhomogeneous=LightShiftDistribution(delta0, ETA),
        time_grid=(1e-3,), noise_draws=draws, zeeman_shift=zeeman,
        contrast=contrast, invert_fraction=invert,
    )
    rng = np.random.default_rng(12)
    a = delta - zeeman - delta0

    def mean_cos(t):
        return exact_mean_cos(t, a, ETA)

    for t in (0.1e-3, 0.45e-3, 0.9e-3, 1.6e-3, 2.7e-3, 4.0e-3):
        variance = (1 + mean_cos(2 * t)) / 2 - mean_cos(t) ** 2
        se = contrast / 2 * math.sqrt(variance / draws)
        exact = fraction_from_w(contrast * mean_cos(t), invert=invert)
        assert abs(ensemble_probability(cfg, t, rng) - exact) <= 5 * se


@pytest.mark.parametrize("n, invert", [(1, True), (4, False), (6, True)])
def test_full_noisy_cpmg_within_five_standard_errors_of_exact_oracle(n, invert):
    # Both channels at n >= 1: Phi = (delta - zeeman - delta0 - G) x + S with
    # x = t - 2 n tau, G ~ Gamma(3, eta) and S ~ N(0, s**2),
    # s**2 = sum_i c_i**2 sigma_i**2, independent, so E[exp(i Phi)] =
    # exp(i a x) (1 + i x/eta)**-3 exp(-s**2/2) with a = delta - zeeman - delta0.
    # The estimator draws G only and multiplies by exp(-s**2/2), so its
    # variance per draw is exp(-s**2) Var[cos phi] = exp(-s**2) [(1 + g(2x))/2
    # - g(x)**2] with g(kx) = Re[exp(i k a x) (1 + i k x/eta)**-3].  The
    # standard error of the fraction is contrast/2 * sqrt(variance/draws); the
    # bound, fixed before the run, is 5 of them.  At the echo (x = 0) every
    # draw has phi = 0: the estimate is deterministic, equal within rounding.
    tau, contrast, draws = 1e-3, 0.73, 100_000
    delta, zeeman, delta0 = 2 * math.pi * 1.5e3, 2 * math.pi * 200.0, 2 * math.pi * 300.0
    sigmas = np.linspace(40.0, 90.0, n)
    cfg = ExperimentConfig(
        sequence=SequenceSpec("spin_echo" if n == 1 else "cpmg", n, tau=tau, delta=delta),
        inhomogeneous=LightShiftDistribution(delta0, ETA),
        homogeneous=HomogeneousNoiseSpec(sigmas),
        time_grid=(2 * n * tau,), noise_draws=draws, zeeman_shift=zeeman,
        contrast=contrast, invert_fraction=invert,
    )
    rng = np.random.default_rng(70 + n)
    a = delta - zeeman - delta0

    def g(x, k=1):
        return (np.exp(1j * k * a * x) * (1 + 1j * k * x / ETA) ** -3).real

    for x in (-0.8 * tau, -0.3 * tau, 0.0, 0.25 * tau, 0.9 * tau):
        t = 2 * n * tau + x
        s2 = float(np.sum((jump_weights(tau, n, t) * sigmas) ** 2))
        exact = fraction_from_w(contrast * (-1) ** n * g(x) * math.exp(-0.5 * s2),
                                invert=invert)
        p = ensemble_probability(cfg, t, rng)
        if x == 0.0:
            assert abs(p - exact) <= ROUNDING_BOUND
            continue
        variance = math.exp(-s2) * ((1 + g(x, 2)) / 2 - g(x) ** 2)
        se = contrast / 2 * math.sqrt(variance / draws)
        assert abs(p - exact) <= 5 * se


def test_lightshift_onset_shifts_the_fringe_phase():
    # a nonzero distribution onset delta0 acts as a carrier offset
    delta0 = 2 * math.pi * 300.0
    delta = 2 * math.pi * 2e3
    cfg = ExperimentConfig(
        sequence=SequenceSpec("ramsey", 0, delta=delta),
        inhomogeneous=LightShiftDistribution(delta0, ETA),
        time_grid=(1e-3,), noise_draws=200_000,
    )
    rng = np.random.default_rng(9)
    t = 0.8e-3
    w = exact_mean_cos(t, delta - delta0, ETA)
    assert ensemble_probability(cfg, t, rng) == pytest.approx((1 - w) / 2, abs=0.01)


@pytest.mark.parametrize("n", [1, 3])
def test_homogeneous_echo_matches_closed_form(n):
    tau, sigma_i = 5e-3, 30.0
    seq = SequenceSpec("spin_echo" if n == 1 else "cpmg", n, tau=tau, delta=0.0)
    cfg = ExperimentConfig(
        sequence=seq,
        homogeneous=HomogeneousNoiseSpec(np.full(n, sigma_i)),
        time_grid=(2 * n * tau,), noise_draws=200_000,
    )
    rng = np.random.default_rng(4)
    p = ensemble_probability(cfg, 2 * n * tau, rng)
    w = (-1.0) ** n * homogeneous_factor(tau, np.full(n, sigma_i))
    assert p == pytest.approx((1 - w) / 2, abs=0.002)


# ----------------------------------------------------------- datasets


def test_dataset_deterministic_across_runs_and_workers():
    cfg = echo_config(
        inhomogeneous=LightShiftDistribution(0.0, ETA),
        time_grid=tuple(0.01 + np.linspace(-1e-3, 1e-3, 15)),
        rng_seed=99, noise_draws=2000,
    )
    first = simulate_dataset(cfg)
    again = simulate_dataset(cfg)
    assert np.array_equal(first.successes, again.successes)
    other = simulate_dataset(replace(cfg, rng_seed=100))
    assert not np.array_equal(first.successes, other.successes)


def test_dataset_is_one_stream_keyed_by_the_seed():
    # noise for each grid point in grid order, then one binomial call
    cfg = echo_config(
        inhomogeneous=LightShiftDistribution(0.0, ETA),
        homogeneous=HomogeneousNoiseSpec(np.array([40.0])),
        time_grid=tuple(0.01 + np.linspace(-1e-3, 1e-3, 9)),
        rng_seed=31, noise_draws=500, cycles_per_point=150,
    )
    rng = np.random.default_rng(cfg.rng_seed)
    p_hat = [ensemble_probability(cfg, t, rng) for t in cfg.time_grid]
    reference = rng.binomial(cfg.cycles_per_point, p_hat)
    dataset = simulate_dataset(cfg)
    assert np.array_equal(dataset.successes, reference)
    assert np.array_equal(dataset.times, cfg.time_grid)
    assert np.all(dataset.trials == cfg.cycles_per_point)


def test_ramsey_dataset_counts_pass_chi_square_against_exact_moments():
    # The README Ramsey config.  Each count is binomial given the estimated
    # fraction p_hat = (1 - c m)/2, m the mean of D cosines, so
    # E[k] = N p and Var[k] = N p (1 - p) + N (N - 1) Var[p_hat], with
    # p = E[p_hat] from the exact Gamma characteristic function and
    # Var[p_hat] = c**2/4 * Var[cos Phi]/D as in the 5-SE test above.  The
    # points are independent, so the sum of squared standardized counts is
    # chi-square with one degree of freedom per point; two-sided, alpha = 1e-6.
    delta, contrast = 2 * math.pi * 8600.0, 0.9
    cfg = ExperimentConfig(
        sequence=SequenceSpec("ramsey", 0, delta=delta),
        inhomogeneous=LightShiftDistribution.from_t2_star(0.0014),
        cycles_per_point=200, time_grid=tuple(np.linspace(5e-5, 0.003, 120)),
        rng_seed=19, contrast=contrast,
    )
    eta, draws, trials = cfg.inhomogeneous.eta, cfg.noise_draws, cfg.cycles_per_point
    t = np.array(cfg.time_grid)

    def mean_cos(t):
        return exact_mean_cos(t, delta, eta)

    p = fraction_from_w(contrast * mean_cos(t))
    var_p_hat = contrast**2 / 4 * ((1 + mean_cos(2 * t)) / 2 - mean_cos(t) ** 2) / draws
    variance = trials * p * (1 - p) + trials * (trials - 1) * var_p_hat
    counts = simulate_dataset(cfg).successes
    statistic = float(np.sum((counts - trials * p) ** 2 / variance))
    alpha = 1e-6
    assert chi2.ppf(alpha / 2, t.size) <= statistic <= chi2.isf(alpha / 2, t.size)


def test_binomial_variance_calibration():
    # 5000 seeded repetitions of one deterministic-probability point:
    # empirical fraction variance equals p(1-p)/trials within 10%.  At
    # p = 0.922 and 100 trials the fraction has excess kurtosis
    # (1 - 6p(1-p))/(100 p(1-p)) = 0.079, so the sample variance of R
    # repetitions has relative SE sqrt(2/(R-1) + 0.079/R): 0.0456 at R = 1000
    # (the 10% bound is 2.19 SE) and 0.0204 at R = 5000 (4.9 SE).
    seq = SequenceSpec("spin_echo", 1, tau=5e-3, delta=2 * math.pi * 300.0)
    t = 0.0103
    p_true = fraction_from_w(oracle_w(seq, t))
    fractions = []
    for seed in range(5000):
        cfg = ExperimentConfig(sequence=seq, time_grid=(t,), cycles_per_point=100, rng_seed=seed)
        fractions.append(simulate_dataset(cfg).fractions[0])
    empirical = np.var(fractions, ddof=1)
    assert empirical == pytest.approx(p_true * (1 - p_true) / 100, rel=0.10)


def test_large_trials_converge_to_analytic_curve():
    seq = SequenceSpec("spin_echo", 1, tau=5e-3, delta=2 * math.pi * 300.0)
    grid = tuple(0.01 + np.linspace(-1.5e-3, 1.5e-3, 21))
    cfg = ExperimentConfig(sequence=seq, time_grid=grid, cycles_per_point=10**6, rng_seed=5)
    dataset = simulate_dataset(cfg)
    exact = (1 - np.array([oracle_w(seq, t) for t in grid])) / 2
    assert np.max(np.abs(dataset.fractions - exact)) < 0.003


def test_zero_noise_echo_fringe_fits_to_unit_visibility():
    delta = 2 * math.pi * 1.5e3
    seq = SequenceSpec("spin_echo", 1, tau=5e-3, delta=delta)
    grid = tuple(0.01 + np.linspace(-1e-3, 1e-3, 31))
    cfg = ExperimentConfig(sequence=seq, time_grid=grid, cycles_per_point=100, rng_seed=12)
    dataset = simulate_dataset(cfg)
    fit = fit_fringe(dataset.points(), n=1, tau=5e-3, t2_star=math.inf)
    v, se = fit.params["visibility"], fit.errors["visibility"]
    assert abs(v - 1.0) <= 3 * se
    assert 0.0 <= v <= 1.0 + 3 * se


def test_dataset_validation_and_config_invariants():
    with pytest.raises(DataFormatError):
        FringeDataset(np.array([0.0]), np.array([5]), np.array([3]))   # successes > trials
    with pytest.raises(DataFormatError):
        FringeDataset(np.array([0.0, 1.0]), np.array([1]), np.array([3]))
    seq = SequenceSpec("spin_echo", 1, tau=1e-3)
    with pytest.raises(DomainError):
        ExperimentConfig(sequence=seq, cycles_per_point=0)
    with pytest.raises(DomainError):
        ExperimentConfig(sequence=seq, noise_draws=0)
    with pytest.raises(DomainError):
        ExperimentConfig(sequence=seq, contrast=1.2)
    with pytest.raises(DomainError):
        ExperimentConfig(sequence=seq, time_grid=(2.0, 1.0))
    wide = ExperimentConfig(sequence=seq, time_grid=(-1e308, 1e308))  # order check cannot overflow
    assert wide.time_grid == (-1e308, 1e308)
    with pytest.raises(DomainError):
        ExperimentConfig(sequence=seq, homogeneous=HomogeneousNoiseSpec([1.0, 2.0]))
    with pytest.raises(DomainError):
        simulate_dataset(ExperimentConfig(sequence=seq))   # empty grid


def test_simulate_dataset_rejects_bad_probabilities():
    cfg = ExperimentConfig(sequence=SequenceSpec("ramsey", 0, delta=1e308), time_grid=(10.0,))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DomainError):
        simulate_dataset(cfg)  # an overflowed phase
    ds = simulate_dataset(replace(cfg, sequence=SequenceSpec("ramsey", 0), time_grid=(0.0, 1.0)))
    assert np.all(ds.trials == 100)


def test_csv_round_trip_and_malformed_rows(tmp_path):
    rng = np.random.default_rng(6)
    ds = FringeDataset(np.linspace(0, 1e-3, 7), rng.binomial(100, np.full(7, 0.4)),
                       np.full(7, 100))
    path = tmp_path / "fringe.csv"
    ds.write_csv(path)
    back = FringeDataset.read_csv(path)
    assert np.array_equal(back.times, ds.times)
    assert np.array_equal(back.successes, ds.successes)
    assert np.array_equal(back.trials, ds.trials)

    bad = tmp_path / "bad.csv"
    bad.write_text("time_s,fraction,trials,successes\n0.0,0.5,100,200\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="row 1"):
        FringeDataset.read_csv(bad)
    bad.write_text("time_s,fraction,trials,successes\n0.0,0.9,100,50\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="fraction"):
        FringeDataset.read_csv(bad)
    bad.write_text("wrong,header\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="header"):
        FringeDataset.read_csv(bad)
    bad.write_text("time_s,fraction,trials,successes\nx,0.5,100,50\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="row 1"):
        FringeDataset.read_csv(bad)


@pytest.mark.parametrize("row", [
    "0.002,0.0,0,0",        # no trials
    "nan,0.5,100,50",
    "inf,0.5,100,50",
    "0.002,nan,100,50",
])
def test_csv_rejects_empty_and_non_finite_rows(tmp_path, row):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"time_s,fraction,trials,successes\n0.001,0.5,100,50\n{row}\n",
                   encoding="utf-8")
    with pytest.raises(DataFormatError, match="row 2"):
        FringeDataset.read_csv(bad)


def test_json_round_trip():
    rng = np.random.default_rng(7)
    ds = FringeDataset(np.linspace(0, 1e-3, 5), rng.binomial(80, np.full(5, 0.3)),
                       np.full(5, 80))
    back = FringeDataset.from_json(ds.to_json())
    assert np.array_equal(back.times, ds.times)
    assert np.array_equal(back.successes, ds.successes)
    with pytest.raises(DataFormatError):
        FringeDataset.from_json("[1, 2, 3]")


ROW = {"time_s": 0.001, "fraction": 0.5, "trials": 100, "successes": 50}


@pytest.mark.parametrize("field, value", [
    ("time_s", math.nan),
    ("time_s", math.inf),
    ("trials", 0),
    ("successes", 101),
    ("successes", -1),
])
def test_json_rejects_bad_rows_naming_the_row(field, value):
    rows = [ROW, dict(ROW, time_s=0.002), dict(ROW, time_s=0.003)]
    rows[1][field] = value
    with pytest.raises(DataFormatError, match="row 2"):
        FringeDataset.from_json(json.dumps({"rows": rows}))


def test_json_rejects_rows_missing_a_column():
    rows = [ROW, {"time_s": 0.002, "trials": 100}]
    with pytest.raises(DataFormatError, match="successes"):
        FringeDataset.from_json(json.dumps({"rows": rows}))


@pytest.mark.parametrize("field, value, message", [
    ("time_s", "abc", "time must be a number; got 'abc'"),
    ("time_s", None, "time must be a number"),
    ("trials", 2.7, "trials must be an integer; got 2.7"),
    ("trials", True, "trials must be a number; got True"),
    ("successes", 50.5, "successes must be an integer"),
    ("successes", False, "successes must be a number; got False"),
])
def test_json_rejects_non_numeric_and_non_integral_cells(field, value, message):
    rows = [ROW, dict(ROW, time_s=0.002), dict(ROW, time_s=0.003)]
    rows[1][field] = value
    with pytest.raises(DataFormatError, match=f"row 2: {message}"):
        FringeDataset.from_json(json.dumps({"rows": rows}))


def test_constructor_rejects_bools_and_truncation():
    with pytest.raises(DataFormatError, match="row 1: trials must be a number"):
        FringeDataset(np.array([0.0]), np.array([0]), np.array([True]))
    with pytest.raises(DataFormatError, match="row 2: trials must be an integer"):
        FringeDataset([0.0, 1.0], [1, 1], [2.0, 2.5])
    ds = FringeDataset([0.0, 1.0], [1, 2], [2.0, 4.0])
    assert ds.trials.dtype == np.int64 and list(ds.trials) == [2, 4]


def test_constructor_shares_the_row_checks():
    with pytest.raises(DataFormatError, match="row 3"):
        FringeDataset(np.array([0.0, 1.0, np.nan]), np.array([1, 1, 1]), np.array([2, 2, 2]))
    with pytest.raises(DataFormatError, match="row 1"):
        FringeDataset(np.array([0.0, 1.0]), np.array([0, 1]), np.array([0, 2]))


TABLES = {"dataset": _DATASET_TABLE, "visibility": _VISIBILITY_TABLE}
#: Cells at the edges of each kind: signed zeros, subnormals, the largest finite
#: magnitudes and the int64 extremes.
EDGE_CELLS = {
    float: [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
            1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308],
    int: [-2**63, -2**63 + 1, -1, 0, 1, 2**63 - 2, 2**63 - 1],
}
CELLS = {float: st.one_of(st.sampled_from(EDGE_CELLS[float]), st.floats(allow_nan=False)),
         int: st.one_of(st.sampled_from(EDGE_CELLS[int]), st.integers(-2**63, 2**63 - 1))}


@pytest.fixture(scope="module")
def table_file(tmp_path_factory):
    return tmp_path_factory.mktemp("tables") / "table.csv"


@pytest.mark.parametrize("name", sorted(TABLES))
@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_every_written_table_is_read_back_bit_for_bit(table_file, name, data):
    # _write_table and _read_table work from one declaration of each table.
    table = TABLES[name]
    rows = data.draw(st.lists(st.tuples(*(CELLS[kind] for kind in table.values())),
                              max_size=20))
    _write_table(table_file, table, rows)
    columns = _read_table(table_file, table, name)
    assert len(columns) == len(table)
    for j, (kind, back) in enumerate(zip(table.values(), columns)):
        expected = np.array([row[j] for row in rows],
                            dtype=np.float64 if kind is float else np.int64)
        assert back.size == expected.size and back.tobytes() == expected.tobytes()
        assert not rows or back.dtype == expected.dtype


# ------------------------------------------------------- visibility scans


def pipeline_config(n, sigma_sig, contrast, seed):
    kind = "spin_echo" if n == 1 else "cpmg"
    seq = SequenceSpec(kind, n, tau=1e-3, delta=2 * math.pi * 1.5e3)
    return ExperimentConfig(
        sequence=seq,
        homogeneous=HomogeneousNoiseSpec.from_sigma_sig(sigma_sig, n),
        cycles_per_point=200, noise_draws=4000, rng_seed=seed, contrast=contrast,
    )


def run_pipeline(n, sigma_sig, contrast, seed):
    cfg = pipeline_config(n, sigma_sig, contrast, seed)
    taus = t2_prime(n, sigma_sig) * np.linspace(0.15, 1.1, 10) / (2 * n)
    points = scan_visibility(cfg, taus)
    usable = [p for p in points if p.ok]
    assert len(usable) >= 8
    fit = fit_visibility_decay(
        weighted_points([p.total_time for p in usable],
                        [p.visibility for p in usable],
                        yerr=[p.error for p in usable]), n=n)
    return points, fit


def test_scan_recovers_sigma_through_full_pipeline():
    points, fit = run_pipeline(1, 27.6, 0.687, seed=7)
    assert abs(fit.params["sigma_sig"] - 27.6) / 27.6 < 0.10
    for p in points:
        assert 0.0 <= p.visibility <= 1.0 + 3 * p.error   # fringe visibility sanity


def test_scan_t2_prime_scales_linearly_in_n_at_fixed_sigma():
    _, fit1 = run_pipeline(1, 27.6, 0.7, seed=7)
    _, fit6 = run_pipeline(6, 27.6, 0.7, seed=7)
    ratio = fit6.params["t2_prime"] / fit1.params["t2_prime"]
    assert ratio == pytest.approx(6.0, abs=0.5)


def test_scan_flat_at_contrast_without_homogeneous_noise():
    seq = SequenceSpec("spin_echo", 1, tau=1e-3, delta=2 * math.pi * 1.5e3)
    cfg = ExperimentConfig(sequence=seq, cycles_per_point=400, rng_seed=11, contrast=0.7)
    points = scan_visibility(cfg, np.linspace(5e-3, 30e-3, 6))
    assert all(p.ok for p in points)
    for p in points:
        assert abs(p.visibility - 0.7) <= 4 * p.error
    mean_v = np.mean([p.visibility for p in points])
    assert mean_v == pytest.approx(0.7, abs=0.015)


def test_scan_reports_fit_failures_per_point():
    cfg = pipeline_config(1, 27.6, 0.687, seed=7)
    points = scan_visibility(cfg, [5e-3, 10e-3], points_per_fringe=2)
    assert len(points) == 2
    assert all(isinstance(p, VisibilityPoint) and not p.ok for p in points)
    assert all(math.isnan(p.visibility) and p.message for p in points)


def scan_visibility_reference(config, tau_grid, points_per_fringe=31):
    """The scan as a loop over its fringes, from one stream keyed by (seed, n).

    The probabilities of one fringe after another (each at its own scalar tau,
    in the default readout), then every count in one binomial call, then
    ``fit_fringe`` on one fringe after another.  scan_visibility simulates the
    stack in one call and fits it in one stacked call; this is its reference.
    """
    seq = config.sequence
    t2_star = T2_STAR_PER_ETA * config.inhomogeneous.eta if config.inhomogeneous else math.inf
    taus = [float(tau) for tau in tau_grid]
    grids = _fringe_grids(config, taus, points_per_fringe)
    rng = np.random.default_rng([config.rng_seed, seq.n])
    default = replace(config, invert_fraction=False)
    probabilities = [ensemble_probability(replace(default, sequence=replace(seq, tau=tau)),
                                          grid, rng) for tau, grid in zip(taus, grids)]
    successes = rng.binomial(config.cycles_per_point, np.array(probabilities))
    points = []
    for tau, grid, counts in zip(taus, grids, successes):
        dataset = FringeDataset(grid, counts, np.full(grid.shape, config.cycles_per_point))
        try:
            fit = fit_fringe(dataset.points(), n=seq.n, tau=tau, t2_star=t2_star)
            points.append(VisibilityPoint(
                2 * seq.n * tau, fit.params["visibility"], fit.errors["visibility"],
                fit.converged, "" if fit.converged else f"fit stopped: {fit.stop_reason}"))
        except FitError as exc:
            points.append(VisibilityPoint(2 * seq.n * tau, math.nan, math.nan, False, str(exc)))
    return points


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(n=st.integers(1, 6), sigma_sig=st.floats(5.0, 80.0),
       contrast=st.sampled_from([0.0, 0.3, 0.7, 1.0]), cycles=st.sampled_from([1, 5, 100]),
       points_per_fringe=st.sampled_from([2, 3, 9, 31]), tau_points=st.integers(1, 9),
       light_shift=st.booleans(), invert=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_scan_equals_the_per_fringe_loop(n, sigma_sig, contrast, cycles, points_per_fringe,
                                         tau_points, light_shift, invert, seed):
    # Every point, message included, bit for bit; contrast 0 gives flat fringes (no
    # frequency to start from), 2 points too few for three parameters, and at one
    # cycle some fits run to the iteration cap.
    config = replace(pipeline_config(n, sigma_sig, contrast, seed), cycles_per_point=cycles,
                     invert_fraction=invert, noise_draws=64,
                     inhomogeneous=LightShiftDistribution(delta0=0.0, eta=ETA)
                     if light_shift else None)
    taus = t2_prime(n, sigma_sig) * np.linspace(0.15, 1.1, tau_points) / (2 * n)
    points = scan_visibility(config, taus, points_per_fringe)
    assert repr(points) == repr(scan_visibility_reference(config, taus, points_per_fringe))


def test_scan_preconditions():
    seq = SequenceSpec("ramsey", 0, delta=2 * math.pi * 1e3)
    cfg = ExperimentConfig(sequence=seq)
    with pytest.raises(DomainError):
        scan_visibility(cfg, [1e-3])      # no refocusing pulse
    seq = SequenceSpec("spin_echo", 1, tau=1e-3, delta=0.0)
    cfg = ExperimentConfig(sequence=seq)
    with pytest.raises(DomainError):
        scan_visibility(cfg, [1e-3])      # zero carrier, no fringe to fit


@pytest.mark.parametrize("seq, field", [
    (SequenceSpec("ramsey", 0, delta=2 * math.pi * 1e3), "n"),
    (SequenceSpec("spin_echo", 1, tau=1e-3, delta=0.0), "delta"),
], ids=["no-refocusing-pulse", "zero-carrier"])
def test_a_scan_names_the_field_its_grid_rule_refuses(seq, field):
    with pytest.raises(DomainError) as caught:
        scan_visibility(ExperimentConfig(sequence=seq), [1e-3])
    assert caught.value.field == field


@pytest.mark.parametrize("tau", [math.inf, 1e300, math.nan, 0.0])
def test_a_scan_refuses_a_spacing_without_a_finite_increasing_grid_before_any_draw(
        monkeypatch, tau):
    # An infinite spacing gives infinite readout times, one near 1e300 s rounds its
    # readout times together, NaN gives NaN times and 0 one time: the scan's own grid
    # rule refuses each, naming tau, before anything is drawn.
    def no_draws(*args):
        raise AssertionError("drew before the grid rule refused the scan")

    monkeypatch.setattr(montecarlo, "_simulate", no_draws)
    with pytest.raises(DomainError, match=r"pulse spacing .* s gives no finite, strictly "
                                          r"increasing fringe grid") as caught:
        scan_visibility(pipeline_config(2, 40.0, 0.7, 3), [5e-3, tau])
    assert caught.value.field == "tau"


def test_a_scan_over_no_pulse_spacings_is_empty():
    # a (0, N) stack takes the one path through the scan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert scan_visibility(pipeline_config(2, 40.0, 0.7, 3), []) == []


def test_the_rows_of_one_sweep_draw_independent_noise():
    # The scans of n = 1 and n = 2 from one config seed, over 100 seeds: each
    # spacing's fitted visibilities must not correlate between the two rows.
    # Under independence each of the 9 Pearson r has mean 0 and SD about
    # 1/sqrt(99), so their mean lies within 4 SE = 4/sqrt(9*99) of 0 (bound
    # fixed before any run).  Streams shared between rows read about 0.6.
    rows = [(1, 27.6, 0.687), (2, 42.4, 0.721)]
    visibilities = np.empty((2, 100, 9))
    for seed in range(100):
        for k, (n, sigma_sig, contrast) in enumerate(rows):
            cfg = replace(pipeline_config(n, sigma_sig, contrast, seed), cycles_per_point=100)
            taus = t2_prime(n, sigma_sig) * np.linspace(0.15, 1.1, 9) / (2 * n)
            points = scan_visibility(cfg, taus)
            assert all(p.ok for p in points)
            visibilities[k, seed] = [p.visibility for p in points]
    r = [np.corrcoef(visibilities[0, :, j], visibilities[1, :, j])[0, 1] for j in range(9)]
    assert abs(np.mean(r)) <= 4 / math.sqrt(9 * 99)

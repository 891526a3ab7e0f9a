"""Noise-source distributions and trace reduction."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from dephasim.bloch import SegmentDetunings, jump_weights
from dephasim.errors import DomainError
from dephasim.noise import (
    DetuningTrace,
    HomogeneousNoiseSpec,
    LightShiftDistribution,
    lightshift_cdf,
    lightshift_pdf,
    lightshift_sample,
    reduce_trace,
    sample_jump_phase,
    white_piecewise_trace,
)

DIST = LightShiftDistribution(delta0=2 * np.pi * 1.0e3, eta=1.4e-3 / 0.97)


# ---------------------------------------------------------------- light shift


def test_pdf_vanishes_at_onset_and_below():
    assert lightshift_pdf(DIST, DIST.delta0) == 0.0
    assert lightshift_pdf(DIST, DIST.delta0 - 1.0) == 0.0
    assert lightshift_pdf(DIST, DIST.delta0 - 1e9) == 0.0


def test_pdf_normalizes_to_one():
    total, err = quad(
        lambda x: lightshift_pdf(DIST, x), DIST.delta0, DIST.delta0 + 50.0 / DIST.eta
    )
    assert total == pytest.approx(1.0, abs=1e-9)


def test_pdf_mean_matches_moment():
    mean, _ = quad(
        lambda x: x * lightshift_pdf(DIST, x),
        DIST.delta0,
        DIST.delta0 + 60.0 / DIST.eta,
        limit=200,
    )
    assert mean == pytest.approx(DIST.delta0 + 3.0 / DIST.eta, rel=1e-8)
    assert DIST.mean() == pytest.approx(DIST.delta0 + 3.0 / DIST.eta)


def test_cdf_matches_integrated_pdf():
    for frac in (0.3, 1.0, 2.5, 7.0):
        x = DIST.delta0 + frac / DIST.eta
        integral, _ = quad(lambda y: lightshift_pdf(DIST, y), DIST.delta0, x)
        assert lightshift_cdf(DIST, x) == pytest.approx(integral, abs=1e-10)
    assert lightshift_cdf(DIST, DIST.delta0 - 5.0) == 0.0


def test_sampling_moments_and_support():
    rng = np.random.default_rng(201)
    draws = lightshift_sample(DIST, rng, size=1_000_000)
    assert np.all(draws >= DIST.delta0)
    assert np.mean(draws) == pytest.approx(DIST.mean(), rel=0.005)
    assert np.var(draws) == pytest.approx(DIST.var(), rel=0.01)
    single = lightshift_sample(DIST, rng)
    assert isinstance(single, float) and single >= DIST.delta0


def test_sampling_matches_pdf_by_kolmogorov_smirnov():
    rng = np.random.default_rng(202)
    draws = np.sort(lightshift_sample(DIST, rng, size=100_000))
    cdf = lightshift_cdf(DIST, draws)
    k = draws.size
    empirical_hi = np.arange(1, k + 1) / k
    empirical_lo = np.arange(0, k) / k
    statistic = max(np.max(empirical_hi - cdf), np.max(cdf - empirical_lo))
    assert statistic < 0.01


class ConstantUniforms:
    """Generator stand-in whose ``random`` fills every cell with one value."""

    def __init__(self, value):
        self.value = value

    def random(self, size=None):
        return np.full(size, self.value)


def test_zero_uniforms_give_exactly_the_onset():
    stub = ConstantUniforms(0.0)
    assert np.all(lightshift_sample(DIST, stub, size=7) == DIST.delta0)
    assert lightshift_sample(DIST, stub) == DIST.delta0


def test_largest_uniform_gives_a_finite_draw():
    # every factor 1 - U is 2**-53, so G = 159*ln(2)/eta
    stub = ConstantUniforms(1.0 - 2.0**-53)
    expected = DIST.delta0 + 159 * math.log(2.0) / DIST.eta
    draws = lightshift_sample(DIST, stub, size=4)
    assert np.all(np.isfinite(draws))
    assert draws == pytest.approx(np.full(4, expected), rel=1e-12)
    assert lightshift_sample(DIST, stub) == pytest.approx(expected, rel=1e-12)


def test_sampler_inverts_three_uniforms_per_draw():
    u = np.random.default_rng(208).random((3, 5))
    expected = DIST.delta0 - np.log((1 - u[0]) * (1 - u[1]) * (1 - u[2])) / DIST.eta
    draws = lightshift_sample(DIST, np.random.default_rng(208), size=5)
    assert draws == pytest.approx(expected, rel=1e-13)
    u = np.random.default_rng(208).random(3)
    single = lightshift_sample(DIST, np.random.default_rng(208))
    assert type(single) is float
    assert single == pytest.approx(DIST.delta0 - np.log(np.prod(1 - u)) / DIST.eta, rel=1e-13)


def test_sampling_within_dkw_bound_of_cdf():
    # Dvoretzky-Kiefer-Wolfowitz: P(sup|F_n - F| > eps) <= 2 exp(-2 n eps**2),
    # so eps = sqrt(ln(2/alpha) / (2n)) fails a correct sampler with
    # probability at most alpha
    n, alpha = 200_000, 1e-6
    draws = np.sort(lightshift_sample(DIST, np.random.default_rng(209), size=n))
    cdf = lightshift_cdf(DIST, draws)
    statistic = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
    assert statistic < math.sqrt(math.log(2 / alpha) / (2 * n))


def test_eta_constructors():
    with pytest.raises(DomainError):
        LightShiftDistribution(delta0=0.0, eta=0.0)
    d = LightShiftDistribution.from_t2_star(1.4e-3, delta0=5.0)
    assert d.eta == pytest.approx(1.4e-3 / 0.97)
    assert d.delta0 == 5.0
    # eta = 2*hbar*delta_eff / (k_B * T * omega_hfs)
    phys = LightShiftDistribution.from_physical(
        delta_eff=2 * np.pi * 60e12, temperature=40e-6, omega_hfs=2 * np.pi * 9.19e9
    )
    expected = (
        2 * 1.054571817e-34 * 2 * np.pi * 60e12
        / (1.380649e-23 * 40e-6 * 2 * np.pi * 9.19e9)
    )
    assert phys.eta == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------- interval jumps


def test_zero_sigmas_give_zero_jumps():
    spec = HomogeneousNoiseSpec(np.zeros(4))
    rng = np.random.default_rng(203)
    assert sample_jump_phase(spec, 1e-3, 7.5e-3, rng) == 0.0
    assert np.all(sample_jump_phase(spec, 1e-3, 7.5e-3, rng, size=10) == 0.0)
    assert spec.sigma_sig == 0.0


def test_jump_statistics_match_spec():
    # n = 3 read out off the echo (t = 5.5 tau): weights (tau, -tau, tau/2).
    # tau = 1 s puts the phase on the scale of the jumps themselves: std
    # sqrt(10**2 + 25**2 + 20**2) = 33.5, so with 10**6 draws the std bound
    # is 7 standard errors and the mean bound of 0.2 is 6.
    sigmas = np.array([10.0, 25.0, 40.0])
    spec = HomogeneousNoiseSpec(sigmas)
    tau, t = 1.0, 5.5
    scale = np.sqrt(np.sum((jump_weights(tau, 3, t) * sigmas) ** 2))
    rng = np.random.default_rng(204)
    draws = sample_jump_phase(spec, tau, t, rng, size=1_000_000)
    assert draws.shape == (1_000_000,)
    assert np.std(draws) == pytest.approx(scale, rel=0.005)
    assert np.mean(draws) == pytest.approx(0.0, abs=0.2)
    # successive shots are independent
    assert abs(np.corrcoef(draws[:-1], draws[1:])[0, 1]) < 0.005


def test_sigma_sig_is_recomputed_quadrature_sum():
    spec = HomogeneousNoiseSpec([3.0, 4.0])
    assert spec.sigma_sig == pytest.approx(5.0)
    even = HomogeneousNoiseSpec.from_sigma_sig(55.7, 6)
    assert even.n == 6
    assert even.sigma_sig == pytest.approx(55.7)
    assert np.all(even.sigmas == even.sigmas[0])
    with pytest.raises(DomainError):
        HomogeneousNoiseSpec([1.0, -2.0])


# ---------------------------------------------------------------- trace reduction


def test_constant_trace_reduces_to_zero_jumps():
    trace = DetuningTrace([0.0, 1.0], [7.5, 7.5], kind="sampled")
    seg = reduce_trace(trace, tau=0.1, n=4)
    assert seg.base == pytest.approx(np.full(4, 7.5), abs=1e-12)
    assert seg.jumps == pytest.approx(np.zeros(4), abs=1e-12)


def test_step_trace_jump_equals_step_height():
    a, b, tau = -3.0, 11.0, 2e-3
    trace = DetuningTrace([0.0, tau, 2 * tau], [a, b], kind="piecewise_constant")
    seg = reduce_trace(trace, tau=tau, n=1)
    assert seg.base[0] == pytest.approx(a, abs=1e-12)
    assert seg.jumps[0] == pytest.approx(b - a, abs=1e-12)


def test_linear_drift_jump_is_rate_times_tau():
    # delta(t) = gamma*t: averages gamma*tau/2 and 3*gamma*tau/2, difference gamma*tau.
    gamma, tau = 250.0, 4e-3
    times = np.linspace(0.0, 2 * tau, 2)
    trace = DetuningTrace(times, gamma * times, kind="sampled")
    seg = reduce_trace(trace, tau=tau, n=1)
    assert seg.base[0] == pytest.approx(gamma * tau / 2, rel=1e-12)
    assert seg.jumps[0] == pytest.approx(gamma * tau, rel=1e-12)


def test_reduce_rejects_short_trace():
    trace = DetuningTrace([0.0, 1e-3], [1.0, 1.0], kind="sampled")
    with pytest.raises(DomainError):
        reduce_trace(trace, tau=1e-3, n=1)  # needs coverage to 2e-3
    with pytest.raises(DomainError):
        reduce_trace(DetuningTrace([1e-4, 5e-3], [1.0, 1.0]), tau=1e-3, n=1)


def test_reduce_is_linear_in_the_trace():
    rng = np.random.default_rng(205)
    tau, n = 1.3e-3, 3
    times = np.linspace(0.0, 2 * n * tau, 41)
    f = rng.normal(0, 50, times.size)
    g = rng.normal(0, 50, times.size)
    a, b = 2.5, -0.7
    seg_f = reduce_trace(DetuningTrace(times, f), tau, n)
    seg_g = reduce_trace(DetuningTrace(times, g), tau, n)
    seg_mix = reduce_trace(DetuningTrace(times, a * f + b * g), tau, n)
    assert seg_mix.base == pytest.approx(a * seg_f.base + b * seg_g.base, abs=1e-10)
    assert seg_mix.jumps == pytest.approx(a * seg_f.jumps + b * seg_g.jumps, abs=1e-10)


def test_white_trace_jump_variance_is_twice_level_variance():
    rng = np.random.default_rng(206)
    std, tau, n = 35.0, 2e-3, 2
    jumps = np.array(
        [
            reduce_trace(white_piecewise_trace(std, tau, n, rng), tau, n).jumps
            for _ in range(20_000)
        ]
    )
    assert np.var(jumps, axis=0) == pytest.approx(2 * std**2, rel=0.02)


def test_reduce_returns_segment_detunings_consumable_by_bloch():
    rng = np.random.default_rng(207)
    tau, n = 1e-3, 2
    trace = white_piecewise_trace(20.0, tau, n, rng)
    seg = reduce_trace(trace, tau, n)
    assert isinstance(seg, SegmentDetunings)
    assert seg.n == n

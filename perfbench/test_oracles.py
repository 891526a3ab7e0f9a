"""Pins each closed form in ``oracles.py`` to quadrature or to brute-force draws.

Run with ``python3 -m pytest perfbench/test_oracles.py``.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

sys.path.insert(0, str(Path(__file__).resolve().parent))
import oracles  # noqa: E402

ETA = 1.4e-3 / 0.97
DELTA = 2 * math.pi * 8.6e3


def _gamma_expectation(f, delta0: float, eta: float) -> float:
    """E[f(L)] for L = delta0 + Gamma(shape 3, rate eta), by quadrature in u = eta*(L - delta0)."""
    return quad(lambda u: 0.5 * u**2 * math.exp(-u) * f(delta0 + u / eta),
                0.0, 80.0, limit=800)[0]


@pytest.mark.parametrize("harmonic", [1, 2])
@pytest.mark.parametrize("delta0", [0.0, 2 * math.pi * 300.0])
def test_ramsey_mean_cos_matches_quadrature(harmonic, delta0):
    for t in (0.0, 2e-4, 1e-3, 3e-3):
        expected = _gamma_expectation(
            lambda light: math.cos(harmonic * (DELTA - light) * t), delta0, ETA)
        got = float(oracles.ramsey_mean_cos(t, DELTA, delta0, ETA, harmonic))
        assert got == pytest.approx(expected, abs=1e-9)


def test_ramsey_count_moments_match_two_stage_draws():
    rng = np.random.default_rng(12)
    t, contrast, cycles, draws, reps = 7e-4, 0.9, 200, 40, 40000
    light = rng.gamma(3.0, 1.0 / ETA, size=(reps, draws))
    p_hat = np.mean((1.0 - contrast * np.cos((DELTA - light) * t)) / 2.0, axis=1)
    counts = rng.binomial(cycles, p_hat)
    mean, var = oracles.ramsey_count_moments(t, DELTA, 0.0, ETA, contrast, cycles, draws)
    assert abs(counts.mean() - mean) < 4 * math.sqrt(var / reps)
    # the sample variance of ~Gaussian counts has relative SE sqrt(2/reps)
    assert abs(counts.var(ddof=1) / var - 1.0) < 4 * math.sqrt(2.0 / reps)
    # the finite-draw term must matter at these sizes, or the test shows nothing
    binomial_only = cycles * (mean / cycles) * (1 - mean / cycles)
    assert var > 1.2 * binomial_only


@pytest.mark.parametrize("n, sigma_sig", [(1, 27.6), (3, 53.5), (6, 55.7)])
def test_cpmg_visibility_matches_gaussian_jump_draws(n, sigma_sig):
    rng = np.random.default_rng(100 + n)
    tau = 0.6 * 2 * math.sqrt(2) * n / sigma_sig / (2 * n)
    jumps = rng.normal(0.0, sigma_sig / math.sqrt(n), size=(400000, n))
    signs = (-1.0) ** (n - np.arange(n))
    samples = np.cos(tau * (jumps @ signs))
    expected = float(oracles.cpmg_visibility(2 * n * tau, 1.0, sigma_sig, n))
    se = samples.std(ddof=1) / math.sqrt(samples.size)
    assert abs(samples.mean() - expected) < 4 * se


def test_fit_model_envelope_is_within_two_percent_of_the_exact_one():
    t2_star = 0.97 * ETA
    grid = np.linspace(0.0, 3 * t2_star, 13)
    exact = np.array([complex(
        _gamma_expectation(lambda light: math.cos(light * t), 0.0, ETA),
        _gamma_expectation(lambda light: -math.sin(light * t), 0.0, ETA)) for t in grid])
    alpha = oracles.envelope_alpha(grid, t2_star)
    assert np.all(np.abs(alpha - np.abs(exact)) <= 0.02 * np.abs(exact))
    kappa = oracles.envelope_kappa(grid, t2_star)
    assert np.all(np.abs(kappa - np.unwrap(np.angle(exact))) <= 0.02)


def test_wrapped_difference_folds_whole_turns():
    assert oracles.wrapped_difference(0.1 + 4 * math.pi, 0.0) == pytest.approx(0.1)
    assert oracles.wrapped_difference(-0.2, 2 * math.pi) == pytest.approx(-0.2)

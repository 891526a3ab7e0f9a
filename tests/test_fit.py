"""Optimizer behaviour, wrapper recovery at realistic statistics, calibration."""

import json
import math
import threading
import tracemalloc

import numpy as np
import pytest

from dephasim import fit as fit_module
from dephasim.analytic import (
    _fringe,
    _readout,
    envelope_alpha,
    envelope_kappa,
    fringe_inhomogeneous,
    rabi_fraction,
    t1_fraction,
    visibility_cpmg,
)
from dephasim.bloch import SequenceSpec
from dephasim.errors import FitError
from dephasim.fit import (
    FITTERS,
    FitResult,
    binomial_weights,
    dominant_frequency,
    fit_curve,
    fit_fringe,
    fit_rabi,
    fit_t1,
    fit_visibility_decay,
    numeric_jacobian,
    points_from_counts,
    weighted_points,
)
from dephasim.montecarlo import ExperimentConfig, simulate_dataset
from dephasim.noise import HomogeneousNoiseSpec, LightShiftDistribution

OMEGA_RABI = 2 * math.pi * 130e3          # rad/s
T2_STAR = 1.4e-3                           # s

# Table rows: (n, C0, sigma_sig 1/s, printed T2' ms, quoted uncertainty ms)
TABLE_ROWS = [
    (1, 0.687, 27.6, 102.7, 7.6),
    (2, 0.721, 42.4, 133.3, 4.0),
    (3, 0.749, 53.5, 158.7, 8.3),
    (4, 0.666, 57.4, 197.1, 10.8),
    (5, 0.652, 67.5, 209.4, 13.3),
    (6, 0.602, 55.7, 304.5, 17.0),
]


def visibility_model(t, c0, sigma, n):
    return c0 * np.exp(-0.5 * (np.asarray(t, dtype=float) / (2 * n)) ** 2 * sigma**2)


# ------------------------------------------------------------------ core


def test_line_fit_exact_within_three_iterations():
    x = np.linspace(0.0, 5.0, 11)
    data = weighted_points(x, 2.0 * x + 1.0)
    res = fit_curve(lambda t, th: th[0] * t + th[1], data, [0.5, 0.0],
                    param_names=("slope", "intercept"))
    assert res.converged
    assert res.iterations <= 3
    assert res.params["slope"] == pytest.approx(2.0, abs=1e-12)
    assert res.params["intercept"] == pytest.approx(1.0, abs=1e-12)
    assert res.gradient_norm < 1e-10


def test_visibility_round_trip_from_coarse_guess():
    n = 6
    t = np.linspace(0.05, 0.9, 15)
    data = weighted_points(t, visibility_model(t, 0.602, 55.7, n))
    res = fit_curve(
        lambda tt, th: visibility_model(tt, th[0], th[1], n),
        data, [0.5, 30.0], bounds=[(0.0, 1.5), (0.0, None)],
        param_names=("c0", "sigma_sig"))
    assert res.converged
    assert res.params["c0"] == pytest.approx(0.602, rel=1e-6)
    assert res.params["sigma_sig"] == pytest.approx(55.7, rel=1e-6)


def test_binomial_calibration_coverage():
    # 100 seeded repetitions of a binomial-noise decay at 100 trials/point:
    # estimates land within 10% and 2-standard-error intervals cover truth.
    n, c0_true, sigma_true = 2, 0.721, 42.4
    t2p = 2 * math.sqrt(2) * n / sigma_true
    t = t2p * np.linspace(0.15, 1.3, 12)
    v_true = visibility_model(t, c0_true, sigma_true, n)
    hits = covered = 0
    for ss in np.random.SeedSequence(818).spawn(100):
        rng = np.random.default_rng(ss)
        counts = rng.binomial(100, v_true)
        res = fit_visibility_decay(points_from_counts(t, counts, 100), n=n)
        s_hat, s_err = res.params["sigma_sig"], res.errors["sigma_sig"]
        hits += abs(s_hat - sigma_true) / sigma_true < 0.10
        covered += abs(s_hat - sigma_true) <= 2 * s_err
    assert hits >= 95          # observed 99/100 with this seed
    assert covered >= 95       # observed 96/100 with this seed


def test_cost_history_monotone_and_errors_nonnegative():
    rng = np.random.default_rng(5)
    x = np.linspace(0.0, 0.3, 30)
    y = visibility_model(x, 0.7, 40.0, 2) + rng.normal(0.0, 0.02, x.size)
    res = fit_curve(lambda t, th: visibility_model(t, th[0], th[1], 2),
                    weighted_points(x, y), [0.4, 20.0])
    drops = np.diff(res.cost_history)
    assert np.all(drops <= 0.0)
    assert all(e >= 0.0 for e in res.errors.values())


def test_insufficient_points_and_bad_initial_rejected():
    data = weighted_points([0.0], [1.0])
    with pytest.raises(FitError):
        fit_curve(lambda t, th: th[0] * t + th[1], data, [1.0, 0.0])
    data = weighted_points([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(FitError):
        fit_curve(lambda t, th: th[0] * t + th[1], data, [math.nan, 0.0])
    with pytest.raises(FitError):
        weighted_points([0.0], [1.0], weights=[0.0])


def test_an_error_whose_weight_overflows_is_rejected():
    # 1/(1e-200)**2 is inf: the weight rule names the point instead of fitting with it.
    with pytest.raises(FitError, match="point 0"):
        weighted_points([0.0, 1.0], [0.0, 1.0], yerr=[1e-200, 1.0])


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_nan_model_output_names_parameters():
    data = weighted_points([0.0, 2.0, 4.0], [0.0, 1.0, 2.0])
    with pytest.raises(FitError, match="parameters"):
        fit_curve(lambda t, th: np.sqrt(th[0] - t), data, [1.0])


def test_iteration_cap_returns_best_so_far():
    rng = np.random.default_rng(9)
    t = np.arange(1, 53) * 1e-6
    y = 0.5 - 0.45 * np.cos(OMEGA_RABI * t) + rng.normal(0, 0.03, t.size)
    data = weighted_points(t, y)
    curve = lambda tt, th: th[2] + th[1] * np.cos(th[0] * tt)
    start = [OMEGA_RABI * 1.3, 0.1, 0.4]
    res = fit_curve(curve, data, start, max_iterations=2)
    assert not res.converged
    assert res.iterations == 2
    start_cost = float(np.sum((y - curve(t, np.array(start))) ** 2))
    assert res.rss <= start_cost


def test_overflowing_normal_matrix_stops_at_start():
    # finite model and Jacobian, but design.T @ design overflows, so every step is NaN
    t = np.linspace(0.05, 1.0, 20)
    data = weighted_points(t, 0.5 * t)
    result = {}

    def run():
        with np.errstate(all="ignore"):
            result["fit"] = fit_curve(lambda tt, th: 1e160 * (th[0] + th[1]) * tt,
                                      data, [1e-170, 1e-170])

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=20.0)
    assert not worker.is_alive(), "fit_curve did not return within 20 s"
    fit = result["fit"]
    assert not fit.converged
    assert list(fit.params.values()) == [1e-170, 1e-170]


def test_stop_reason_gradient_when_started_at_the_optimum():
    x = np.linspace(0.0, 5.0, 11)
    res = fit_curve(lambda t, th: th[0] * t + th[1], weighted_points(x, 2.0 * x + 1.0),
                    [2.0, 1.0])
    assert (res.converged, res.stop_reason, res.iterations) == (True, "gradient", 1)
    assert json.loads(res.to_json())["stop_reason"] == "gradient"


def test_stop_reason_cost_on_noisy_data():
    # weights 1/0.02**2 keep the gradient norm far above its 1e-10 tolerance
    # at the optimum, so the relative cost drop ends the fit
    rng = np.random.default_rng(5)
    x = np.linspace(0.0, 0.3, 30)
    y = visibility_model(x, 0.7, 40.0, 2) + rng.normal(0.0, 0.02, x.size)
    res = fit_curve(lambda t, th: visibility_model(t, th[0], th[1], 2),
                    weighted_points(x, y, yerr=np.full(x.size, 0.02)), [0.4, 20.0])
    assert (res.converged, res.stop_reason) == (True, "cost")
    assert res.gradient_norm > 1e-10


def test_stop_reason_max_iterations_at_the_cap():
    t = np.arange(1, 53) * 1e-6
    y = 0.5 - 0.45 * np.cos(OMEGA_RABI * t)
    res = fit_curve(lambda tt, th: th[2] + th[1] * np.cos(th[0] * tt), weighted_points(t, y),
                    [OMEGA_RABI * 1.3, 0.1, 0.4], max_iterations=2)
    assert (res.converged, res.stop_reason, res.iterations) == (False, "max_iterations", 2)


def test_stop_reason_no_step_when_every_step_is_rejected():
    # design.T @ design overflows, so every trial step is non-finite and the
    # damping loop runs out at 1e8
    t = np.linspace(0.05, 1.0, 20)
    with np.errstate(all="ignore"):
        res = fit_curve(lambda tt, th: 1e160 * (th[0] + th[1]) * tt,
                        weighted_points(t, 0.5 * t), [1e-170, 1e-170])
    assert (res.converged, res.stop_reason) == (False, "no_step")


def test_jacobian_matches_closed_form_derivatives():
    # visibility model: dV/dc0 = exp(-(t/2n)^2 s^2/2), dV/ds = -c0 (t/2n)^2 s * exp(...)
    n = 3
    rng = np.random.default_rng(12)
    t = np.linspace(0.02, 0.5, 17)
    curve = lambda tt, th: visibility_model(tt, th[0], th[1], n)
    for _ in range(20):
        theta = np.array([rng.uniform(0.3, 1.0), rng.uniform(10.0, 80.0)])
        num = numeric_jacobian(curve, t, theta)
        shape = np.exp(-0.5 * (t / (2 * n)) ** 2 * theta[1] ** 2)
        exact = np.column_stack([shape, -theta[0] * (t / (2 * n)) ** 2 * theta[1] * shape])
        assert np.allclose(num, exact, rtol=1e-5, atol=1e-10)


def test_dominant_frequency_resolves_carrier():
    t = np.arange(0, 200) * 1e-5
    y = 0.3 * np.cos(2 * math.pi * 800.0 * t + 0.4)
    assert dominant_frequency(t, y) == pytest.approx(2 * math.pi * 800.0, rel=0.02)
    with pytest.raises(FitError):
        dominant_frequency([0.0, 1.0, 2.0], [0.5, 0.5, 0.5])
    with pytest.raises(FitError):
        dominant_frequency([1.0], [0.5])


def projection_oracle(x, y, oversample=8, max_grid=20000):
    """The frequency grid of dominant_frequency and its power by outer product."""
    x = np.asarray(x, dtype=float)
    centered = np.asarray(y, dtype=float) - np.mean(y)
    unique_x = np.unique(x)
    span, spacing = unique_x[-1] - unique_x[0], np.min(np.diff(unique_x))
    n_grid = min(max_grid, max(64, int(oversample * span / spacing)))
    omegas = 2 * np.pi * np.linspace(0.5 / span, 0.5 / spacing, n_grid)
    phases = np.outer(omegas, x)
    return omegas, (np.cos(phases) @ centered) ** 2 + (np.sin(phases) @ centered) ** 2


def assert_matches_oracle(x, y, on_lattice=True):
    omegas, power = projection_oracle(x, y)
    assert dominant_frequency(x, y) == omegas[np.argmax(power)]
    centered = np.asarray(y, dtype=float) - np.mean(y)
    fast = fit_module._lattice_power(np.asarray(x, dtype=float), centered, omegas)
    if not on_lattice:
        assert fast is None
        fast = fit_module._projection_power(np.asarray(x, dtype=float), centered, omegas)
    assert np.max(np.abs(fast - power)) <= 1e-9 * np.max(power)


def noisy_carrier(x, freq, seed):
    rng = np.random.default_rng(seed)
    x = np.asarray(x, dtype=float)
    return 0.5 + 0.4 * np.cos(2 * math.pi * freq * x + 0.3) + rng.normal(0, 0.05, x.size)


@pytest.mark.parametrize("start, stop, points, freq", [
    (0.0, 2e-3, 31, 4.2e3),
    (50e-6, 3e-3, 1000, 8.6e3),
    (11.2e-3, 14e-3, 1000, 1.5e3),
    (1e-6, 120e-6, 52, 130e3),
    (1.0, 1.001, 200, 8e3),   # off by > 1e-9 steps from the lattice of the smallest spacing
])
def test_dominant_frequency_matches_projection_on_linspace(start, stop, points, freq):
    x = np.linspace(start, stop, points)
    assert_matches_oracle(x, noisy_carrier(x, freq, seed=points))


def test_dominant_frequency_matches_projection_with_gaps_and_repeats():
    lattice = 0.4e-3 + 2.5e-6 * np.arange(600)
    x = np.concatenate([lattice[:150], lattice[260:], lattice[300:340], lattice[5:9]])
    assert_matches_oracle(x, noisy_carrier(x, 6.1e3, seed=3))


@pytest.mark.parametrize("jitter", [1e-6, 0.5])
def test_dominant_frequency_irregular_grid_takes_projection(jitter):
    rng = np.random.default_rng(4)
    x = np.sort(1e-5 * (np.arange(300) + rng.uniform(-jitter, jitter, 300)))
    assert_matches_oracle(x, noisy_carrier(x, 3.3e3, seed=5), on_lattice=False)


@pytest.mark.parametrize("sequence, noise, grid", [
    (SequenceSpec("ramsey", 0, delta=2 * math.pi * 8.6e3),
     dict(inhomogeneous=LightShiftDistribution(0.0, 3.0 / 1.4e-3)),
     np.linspace(50e-6, 3e-3, 120)),
    (SequenceSpec("spin_echo", 1, tau=5e-3, delta=2 * math.pi * 1.5e3),
     dict(homogeneous=HomogeneousNoiseSpec.from_sigma_sig(27.6, 1)),
     0.01 + np.linspace(-1.5e-3, 1.5e-3, 31)),
    (SequenceSpec("cpmg", 6, tau=1e-3, delta=2 * math.pi * 1.5e3),
     dict(homogeneous=HomogeneousNoiseSpec.from_sigma_sig(55.7, 6)),
     0.012 + np.linspace(-0.8e-3, 2e-3, 200)),
])
def test_dominant_frequency_matches_projection_on_simulated_fringes(sequence, noise, grid):
    cfg = ExperimentConfig(sequence=sequence, time_grid=tuple(grid), cycles_per_point=100,
                           noise_draws=200, rng_seed=21, **noise)
    dataset = simulate_dataset(cfg)
    assert_matches_oracle(dataset.times, dataset.fractions)


def test_dominant_frequency_memory_stays_linear():
    # the full projection of this record would hold three 20000 x 3000 arrays (1.4 GB)
    x = np.linspace(50e-6, 3e-3, 3000)
    y = noisy_carrier(x, 8.6e3, seed=6)
    dominant_frequency(x, y)   # load numpy.fft outside the measurement
    tracemalloc.start()
    try:
        omega = dominant_frequency(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    assert omega == pytest.approx(2 * math.pi * 8.6e3, rel=0.01)


def test_binomial_weights_floor():
    w = binomial_weights([0.0, 0.5, 1.0], 100)
    assert w[0] == w[2] == pytest.approx(100 / 1e-4)
    assert w[1] == pytest.approx(400.0)


def test_fit_result_serializes_with_units():
    res = FitResult(model="demo", params={"a": 1.0}, errors={"a": 0.1},
                    units={"a": "s"}, rss=0.0, iterations=1, converged=True,
                    n_points=3, gradient_norm=0.0)
    blob = res.to_json()
    assert '"unit": "s"' in blob
    assert "1-sigma" in res.error_convention


# ------------------------------------------------------------------ rabi / t1


def test_rabi_recovery_at_recorded_sampling():
    t = np.arange(1, 53) * 1e-6         # 1 us steps to 52 us
    p = 0.5 - 0.45 * np.cos(OMEGA_RABI * t)
    rng = np.random.default_rng(11)
    res = fit_rabi(points_from_counts(t, rng.binomial(100, p), 100))
    omega_hat = res.params["omega_r"]
    assert abs(omega_hat - OMEGA_RABI) / OMEGA_RABI < 0.005
    assert (math.pi / 2) / omega_hat == pytest.approx(1.92e-6, rel=0.01)


def test_rabi_flat_data_is_unidentifiable():
    t = np.arange(1, 20) * 1e-6
    with pytest.raises(FitError, match="unidentifiable"):
        fit_rabi(weighted_points(t, np.full(t.size, 0.5)))


def test_rabi_phase_shifted_contrast_folds_into_sign():
    t = np.arange(1, 53) * 1e-6
    y = 0.5 - 0.4 * np.cos(OMEGA_RABI * t)   # half-cycle phase shift
    res = fit_rabi(weighted_points(t, y))
    assert res.params["contrast"] == pytest.approx(-0.4, abs=1e-6)
    assert abs(res.params["contrast"]) == pytest.approx(0.4, abs=1e-6)
    model = res.params["offset"] + res.params["contrast"] * np.cos(res.params["omega_r"] * t)
    assert math.sqrt(np.mean((model - y) ** 2)) < 1e-8


@pytest.mark.parametrize("t1_true,t_max,seed", [(0.8308, 2.0, 21), (0.0871, 0.35, 22)])
def test_t1_recovery_at_200_trials(t1_true, t_max, seed):
    t = np.linspace(0.0, t_max, 25)
    p = np.clip(0.95 * np.exp(-t / t1_true) + 0.03, 0.0, 1.0)
    rng = np.random.default_rng(seed)
    res = fit_t1(points_from_counts(t, rng.binomial(200, p), 200))
    assert abs(res.params["t1"] - t1_true) / t1_true < 0.10


def test_t1_zero_amplitude_is_unidentifiable():
    t = np.linspace(0.0, 1.0, 12)
    with pytest.raises(FitError, match="unidentifiable"):
        fit_t1(weighted_points(t, np.full(t.size, 0.25)))


# ------------------------------------------------------------------ fringes


def test_echo_fringe_noiseless_unit_visibility():
    n, tau = 1, 0.005
    xs = 2 * n * tau + np.linspace(-2e-3, 2e-3, 41)
    frac = (1.0 - fringe_inhomogeneous(xs, 2 * math.pi * 500.0, T2_STAR, n, tau)) / 2.0
    res = fit_fringe(weighted_points(xs, frac), n=n, tau=tau, t2_star=T2_STAR)
    assert res.converged
    assert res.params["visibility"] == pytest.approx(1.0, abs=1e-6)


def test_cpmg_fringe_visibility_at_100_trials():
    n, tau = 2, 0.010
    xs = 2 * n * tau + np.linspace(-1.5e-3, 1.5e-3, 41)
    w = 0.55 * fringe_inhomogeneous(xs, 2 * math.pi * 1.5e3, T2_STAR, n, tau)
    rng = np.random.default_rng(31)
    counts = rng.binomial(100, (1.0 - w) / 2.0)
    res = fit_fringe(points_from_counts(xs, counts, 100), n=n, tau=tau, t2_star=T2_STAR)
    assert abs(res.params["visibility"] - 0.55) < 0.05


def test_ramsey_co_fits_t2_star():
    t = np.arange(1, 61) * 5e-5
    w = fringe_inhomogeneous(t, 2 * math.pi * 8.6e3, T2_STAR, 0)
    rng = np.random.default_rng(41)
    counts = rng.binomial(100, (1.0 - w) / 2.0)
    res = fit_fringe(points_from_counts(t, counts, 100), n=0, tau=0.0, t2_star=None)
    assert res.converged
    assert abs(res.params["t2_star"] - T2_STAR) / T2_STAR < 0.15
    assert res.params["delta_prime"] == pytest.approx(2 * math.pi * 8.6e3, rel=0.02)


def test_fixed_t2_star_is_reported_as_held():
    xs = np.linspace(1e-4, 2e-3, 21)
    frac = (1.0 - fringe_inhomogeneous(xs, 2 * math.pi * 2e3, T2_STAR, 0)) / 2.0
    res = fit_fringe(weighted_points(xs, frac), n=0, tau=0.0, t2_star=T2_STAR)
    assert res.params["t2_star"] == T2_STAR
    assert res.errors["t2_star"] == 0.0
    assert "fixed" in res.units["t2_star"]


def test_echo_fringe_fits_complementary_counts_on_the_flipped_branch():
    # 1 - (1 - c*w)/2 is the same fringe counted from the other state: its fit starts at
    # phase pi and finds the same visibility instead of walking it down to 0.
    n, tau = 1, 0.005
    seq = SequenceSpec("spin_echo", n, tau=tau, delta=2 * math.pi * 1.5e3)
    grid = tuple(2 * n * tau + np.linspace(-1.5e-3, 1.5e-3, 41))
    dataset = simulate_dataset(ExperimentConfig(
        sequence=seq, time_grid=grid, cycles_per_point=200, rng_seed=3, contrast=0.8))
    direct = fit_fringe(dataset.points(), n=n, tau=tau)
    flipped = fit_fringe(points_from_counts(dataset.times, dataset.trials - dataset.successes,
                                            dataset.trials), n=n, tau=tau)
    assert flipped.converged
    assert flipped.params["visibility"] == pytest.approx(direct.params["visibility"], rel=1e-6)
    turn = (flipped.params["phase"] - direct.params["phase"] - math.pi) % (2 * math.pi)
    assert min(turn, 2 * math.pi - turn) < 1e-4


# ------------------------------------------------------------------ visibility decay


def test_visibility_decay_reproduces_coherence_table():
    for n, c0, sigma, t2p_ms, err_ms in TABLE_ROWS:
        t2p = 2 * math.sqrt(2) * n / sigma
        t = t2p * np.linspace(0.2, 1.2, 9)
        res = fit_visibility_decay(weighted_points(t, visibility_model(t, c0, sigma, n)), n=n)
        assert res.converged
        assert abs(res.params["t2_prime"] * 1e3 - t2p_ms) < err_ms
        assert res.params["c0"] == pytest.approx(c0, abs=1e-6)
        # derived time is tied to the fitted width
        assert res.params["t2_prime"] == pytest.approx(
            2 * math.sqrt(2) * n / res.params["sigma_sig"], rel=1e-12)


def test_equal_sigma_t2_prime_scales_sixfold():
    sigma = 50.0
    results = []
    for n in (1, 6):
        t2p = 2 * math.sqrt(2) * n / sigma
        t = t2p * np.linspace(0.2, 1.2, 9)
        res = fit_visibility_decay(weighted_points(t, visibility_model(t, 0.7, sigma, n)), n=n)
        results.append(res.params["t2_prime"])
    assert results[1] / results[0] == pytest.approx(6.0, abs=0.1)


def test_two_point_decay_solved_exactly():
    # closed-form inversion of the two-point system (n=2):
    # sigma = sqrt(2 (2n)^2 ln(V1/V2) / (t2^2 - t1^2)), C0 = V1 e^{(t1/2n)^2 sigma^2/2}
    pts = weighted_points([0.05, 0.15], [0.6, 0.2])
    res = fit_visibility_decay(pts, n=2)
    assert res.params["sigma_sig"] == pytest.approx(41.9258829587282, rel=1e-9)
    assert res.params["c0"] == pytest.approx(0.6883216142639262, rel=1e-9)
    assert res.params["t2_prime"] == pytest.approx(0.134925107124422, rel=1e-9)


def test_visibility_decay_error_propagation():
    rng = np.random.default_rng(77)
    n, c0, sigma = 2, 0.7, 45.0
    t = np.linspace(0.02, 0.2, 10)
    v = visibility_model(t, c0, sigma, n) + rng.normal(0.0, 0.02, t.size)
    res = fit_visibility_decay(weighted_points(t, v, yerr=np.full(t.size, 0.02)), n=n)
    s, se = res.params["sigma_sig"], res.errors["sigma_sig"]
    assert res.errors["t2_prime"] == pytest.approx(res.params["t2_prime"] / s * se, rel=1e-12)
    with pytest.raises(FitError):
        fit_visibility_decay(weighted_points([0.1, 0.2], [0.5, 0.3]), n=0)


# ------------------------------------------------------------------ round trips


def test_round_trip_identifiability_all_wrappers():
    # noiseless data refit, then regenerated from the fitted parameters: <= 1e-8 RMS
    t = np.arange(1, 53) * 1e-6
    y = 0.52 + 0.44 * np.cos(OMEGA_RABI * t)
    res = fit_rabi(weighted_points(t, y))
    back = res.params["offset"] + res.params["contrast"] * np.cos(res.params["omega_r"] * t)
    assert math.sqrt(np.mean((back - y) ** 2)) < 1e-8

    t = np.linspace(0.0, 2.0, 25)
    y = 0.9 * np.exp(-t / 0.8308) + 0.05
    res = fit_t1(weighted_points(t, y))
    back = res.params["equilibrium"] + res.params["amplitude"] * np.exp(-t / res.params["t1"])
    assert math.sqrt(np.mean((back - y) ** 2)) < 1e-8

    n, tau = 2, 0.008
    xs = 2 * n * tau + np.linspace(-1.5e-3, 1.5e-3, 41)
    y = (1.0 - 0.62 * fringe_inhomogeneous(xs, 2 * math.pi * 1.2e3, T2_STAR, n, tau)) / 2.0
    res = fit_fringe(weighted_points(xs, y), n=n, tau=tau, t2_star=T2_STAR)
    x_rel = xs - 2 * n * tau
    w_back = (res.params["visibility"] * (-1.0) ** n * envelope_alpha(x_rel, T2_STAR)
              * np.cos(res.params["delta_prime"] * x_rel + res.params["phase"]
                       + envelope_kappa(x_rel, T2_STAR)))
    assert math.sqrt(np.mean(((1.0 - w_back) / 2.0 - y) ** 2)) < 1e-8

    t = np.linspace(0.02, 0.25, 12)
    y = visibility_model(t, 0.68, 48.0, 2)
    res = fit_visibility_decay(weighted_points(t, y), n=2)
    back = visibility_model(t, res.params["c0"], res.params["sigma_sig"], 2)
    assert math.sqrt(np.mean((back - y) ** 2)) < 1e-8


def _weighted_rss(data, model_y):
    """The cost fit_curve minimizes, in its arithmetic order: sum(w * r * r)."""
    r = data.y - model_y
    return float(np.sum(data.weight * r * r))


def test_fits_evaluate_the_public_models():
    # The fitted curve is the documented model: the returned rss is that of
    # the analytic function at the fitted parameters, bit for bit.
    rng = np.random.default_rng(53)
    t = np.linspace(0.0, 40e-6, 61)
    data = points_from_counts(t, rng.binomial(100, 0.5 + 0.45 * np.cos(OMEGA_RABI * t)), 100)
    res = fit_rabi(data)
    p = res.params
    assert res.rss == _weighted_rss(data, rabi_fraction(t, p["omega_r"], p["contrast"], p["offset"]))

    t = np.linspace(0.0, 3.0, 40)
    data = points_from_counts(t, rng.binomial(200, 0.45 + 0.5 * np.exp(-t / 0.83)), 200)
    res = fit_t1(data)
    p = res.params
    assert res.rss == _weighted_rss(data, t1_fraction(t, p["t1"], p["amplitude"], p["equilibrium"]))

    n = 6
    t = np.linspace(0.05, 0.35, 40)
    v = visibility_model(t, 0.6, 55.7, n) + rng.normal(0.0, 0.02, t.size)
    data = weighted_points(t, v, yerr=np.full(t.size, 0.02))
    res = fit_visibility_decay(data, n=n)
    p = res.params
    assert res.rss == _weighted_rss(data, visibility_cpmg(t, p["c0"], p["sigma_sig"], n))


@pytest.mark.parametrize("t2_star", [T2_STAR, None])
def test_fringe_fit_evaluates_the_analytic_fringe(t2_star):
    n, tau = 2, 0.008
    xs = 2 * n * tau + np.linspace(-1.5e-3, 1.5e-3, 41)
    w = 0.6 * fringe_inhomogeneous(xs, 2 * math.pi * 1.2e3, T2_STAR, n, tau)
    rng = np.random.default_rng(59)
    data = points_from_counts(xs, rng.binomial(100, (1.0 - w) / 2.0), 100)
    res = fit_fringe(data, n=n, tau=tau, t2_star=t2_star)
    p = res.params
    w_fit = _fringe(xs - 2 * n * tau, p["visibility"], p["delta_prime"], p["phase"],
                    p["t2_star"], n)
    assert res.rss == _weighted_rss(data, _readout(w_fit, False))


def test_fitter_registry_names_and_dispatch():
    assert set(FITTERS) == {"rabi", "t1", "ramsey", "echo_fringe", "cpmg_fringe", "visibility"}
    t = np.linspace(0.02, 0.25, 12)
    res = FITTERS["visibility"](weighted_points(t, visibility_model(t, 0.7, 40.0, 2)), n=2)
    assert res.model == "visibility"
    assert res.params["sigma_sig"] == pytest.approx(40.0, rel=1e-6)

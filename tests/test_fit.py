"""Optimizer behaviour, wrapper recovery at realistic statistics, calibration."""

import dataclasses
import inspect
import json
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dephasim import fit as fit_module
from dephasim.analytic import (
    _fringe,
    _fringe_jacobian,
    _rabi,
    _rabi_jacobian,
    _readout,
    _t1,
    _t1_jacobian,
    _visibility,
    _visibility_jacobian,
    envelope_alpha,
    envelope_kappa,
    fringe_inhomogeneous,
    rabi_fraction,
    t1_fraction,
    t2_prime,
    visibility_cpmg,
)
from dephasim.bloch import SequenceSpec
from dephasim.errors import DomainError, FitError
from dephasim.fit import (
    FITTERS,
    FitData,
    FitResult,
    binomial_weights,
    dominant_frequency,
    fit_curve,
    fit_fringe,
    fit_rabi,
    fit_t1,
    fit_visibility_decay,
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


def numeric_jacobian(curve, x, theta):
    """Central-difference Jacobian d curve / d theta, step max(1e-8, 1e-6*|param|).

    The reference the closed-form Jacobians of dephasim.analytic are checked against.
    """
    theta = np.asarray(theta, dtype=float)
    jac = np.empty((np.size(x), theta.size))
    for j in range(theta.size):
        step = max(1e-8, 1e-6 * abs(theta[j]))
        hi = theta.copy()
        lo = theta.copy()
        hi[j] += step
        lo[j] -= step
        jac[:, j] = (np.asarray(curve(x, hi)) - np.asarray(curve(x, lo))) / (2 * step)
    return jac


def central_differences(curve):
    """A fit_curve ``jacobian`` for ``curve`` taken from the central-difference oracle."""
    return lambda x, theta: numeric_jacobian(curve, x, theta)


def line(t, theta):
    return theta[0] * t + theta[1]


def line_jacobian(t, theta):
    return np.column_stack([t, np.ones_like(t)])


# ------------------------------------------------------------------ core


def test_line_fit_exact_within_three_iterations():
    x = np.linspace(0.0, 5.0, 11)
    data = weighted_points(x, 2.0 * x + 1.0)
    res = fit_curve(line, data, [0.5, 0.0], jacobian=line_jacobian,
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
    curve = lambda tt, th: visibility_model(tt, th[0], th[1], n)
    res = fit_curve(
        curve, data, [0.5, 30.0], bounds=[(0.0, 1.5), (0.0, None)],
        jacobian=central_differences(curve), param_names=("c0", "sigma_sig"))
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
    curve = lambda t, th: visibility_model(t, th[0], th[1], 2)
    res = fit_curve(curve, weighted_points(x, y), [0.4, 20.0],
                    jacobian=central_differences(curve))
    drops = np.diff(res.cost_history)
    assert np.all(drops <= 0.0)
    assert all(e >= 0.0 for e in res.errors.values())


def test_insufficient_points_and_bad_initial_rejected():
    data = weighted_points([0.0], [1.0])
    with pytest.raises(FitError):
        fit_curve(line, data, [1.0, 0.0], jacobian=line_jacobian)
    data = weighted_points([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(FitError):
        fit_curve(line, data, [math.nan, 0.0], jacobian=line_jacobian)
    with pytest.raises(FitError):
        weighted_points([0.0], [1.0], weights=[0.0])


def test_an_error_whose_weight_overflows_is_rejected():
    # 1/(1e-200)**2 is inf: the weight rule names the point instead of fitting with it.
    with pytest.raises(FitError, match="point 0"):
        weighted_points([0.0, 1.0], [0.0, 1.0], yerr=[1e-200, 1.0])


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_nan_model_output_names_parameters():
    data = weighted_points([0.0, 2.0, 4.0], [0.0, 1.0, 2.0])
    curve = lambda t, th: np.sqrt(th[0] - t)
    with pytest.raises(FitError, match="parameters"):
        fit_curve(curve, data, [1.0], jacobian=central_differences(curve))


def test_non_finite_or_misshapen_jacobian_rejected():
    data = weighted_points([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(FitError, match="Jacobian returned non-finite"):
        fit_curve(line, data, [1.0, 0.0],
                  jacobian=lambda t, th: np.column_stack([t, np.full(t.size, np.inf)]))
    with pytest.raises(FitError, match=r"shape \(3,\), expected \(3, 1\)"):
        fit_curve(lambda t, th: th[0] * t, data, [1.0], jacobian=lambda t, th: t)


def test_a_misshapen_non_finite_jacobian_is_reported_as_non_finite():
    data = weighted_points([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(FitError, match="Jacobian returned non-finite values"):
        fit_curve(lambda t, th: th[0] * t, data, [1.0], jacobian=lambda t, th: t * np.nan)


@pytest.mark.parametrize("x, y, weight", [
    ([0.0, 1.0], [0.0], [1.0, 1.0]),
    ([[0.0, 1.0]], [[0.0, 1.0]], [[1.0, 1.0]]),
], ids=["unequal-lengths", "two-dimensional"])
def test_fit_data_refuses_arrays_that_are_not_one_dimensional_of_one_length(x, y, weight):
    with pytest.raises(FitError, match="must be 1-D arrays of one length"):
        FitData(x, y, weight)


def test_iteration_cap_returns_best_so_far():
    rng = np.random.default_rng(9)
    t = np.arange(1, 53) * 1e-6
    y = 0.5 - 0.45 * np.cos(OMEGA_RABI * t) + rng.normal(0, 0.03, t.size)
    data = weighted_points(t, y)
    curve = lambda tt, th: th[2] + th[1] * np.cos(th[0] * tt)
    start = [OMEGA_RABI * 1.3, 0.1, 0.4]
    res = fit_curve(curve, data, start, jacobian=central_differences(curve), max_iterations=2)
    assert not res.converged
    assert res.iterations == 2
    start_cost = float(np.sum((y - curve(t, np.array(start))) ** 2))
    assert res.rss <= start_cost


def huge_line(t, theta):
    return 1e160 * (theta[0] + theta[1]) * t


def huge_line_jacobian(t, theta):
    return np.column_stack([1e160 * t, 1e160 * t])


def test_overflowing_normal_matrix_stops_at_start():
    # finite model and Jacobian, but design.T @ design overflows, so every step is NaN
    t = np.linspace(0.05, 1.0, 20)
    data = weighted_points(t, 0.5 * t)
    result = {}

    def run():
        with np.errstate(all="ignore"):
            result["fit"] = fit_curve(huge_line, data, [1e-170, 1e-170],
                                      jacobian=huge_line_jacobian)

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=20.0)
    assert not worker.is_alive(), "fit_curve did not return within 20 s"
    fit = result["fit"]
    assert not fit.converged
    assert list(fit.params.values()) == [1e-170, 1e-170]


def test_stop_reason_gradient_when_started_at_the_optimum():
    x = np.linspace(0.0, 5.0, 11)
    res = fit_curve(line, weighted_points(x, 2.0 * x + 1.0), [2.0, 1.0],
                    jacobian=line_jacobian)
    assert (res.converged, res.stop_reason, res.iterations) == (True, "gradient", 1)
    assert json.loads(res.to_json())["stop_reason"] == "gradient"


def test_stop_reason_cost_on_noisy_data():
    # weights 1/0.02**2 keep the gradient norm far above its 1e-10 tolerance
    # at the optimum, so the relative cost drop ends the fit
    rng = np.random.default_rng(5)
    x = np.linspace(0.0, 0.3, 30)
    y = visibility_model(x, 0.7, 40.0, 2) + rng.normal(0.0, 0.02, x.size)
    curve = lambda t, th: visibility_model(t, th[0], th[1], 2)
    res = fit_curve(curve, weighted_points(x, y, yerr=np.full(x.size, 0.02)), [0.4, 20.0],
                    jacobian=central_differences(curve))
    assert (res.converged, res.stop_reason) == (True, "cost")
    assert res.gradient_norm > 1e-10


def test_stop_reason_max_iterations_at_the_cap():
    t = np.arange(1, 53) * 1e-6
    y = 0.5 - 0.45 * np.cos(OMEGA_RABI * t)
    curve = lambda tt, th: th[2] + th[1] * np.cos(th[0] * tt)
    res = fit_curve(curve, weighted_points(t, y), [OMEGA_RABI * 1.3, 0.1, 0.4],
                    jacobian=central_differences(curve), max_iterations=2)
    assert (res.converged, res.stop_reason, res.iterations) == (False, "max_iterations", 2)


def test_stop_reason_no_step_when_every_step_is_rejected():
    # design.T @ design overflows, so every trial step is non-finite and the
    # damping loop runs out at 1e8
    t = np.linspace(0.05, 1.0, 20)
    with np.errstate(all="ignore"):
        res = fit_curve(huge_line, weighted_points(t, 0.5 * t), [1e-170, 1e-170],
                        jacobian=huge_line_jacobian)
    assert (res.converged, res.stop_reason) == (False, "no_step")


def test_jacobian_matches_closed_form_derivatives():
    # visibility model: dV/dc0 = exp(-(t/2n)^2 s^2/2), dV/ds = -c0 (t/2n)^2 s * exp(...)
    n = 3
    rng = np.random.default_rng(12)
    t = np.linspace(0.02, 0.5, 17)
    for _ in range(20):
        theta = np.array([rng.uniform(0.3, 1.0), rng.uniform(10.0, 80.0)])
        jac = _visibility_jacobian(t, *theta, n)
        shape = np.exp(-0.5 * (t / (2 * n)) ** 2 * theta[1] ** 2)
        exact = np.column_stack([shape, -theta[0] * (t / (2 * n)) ** 2 * theta[1] * shape])
        assert np.allclose(jac, exact, rtol=1e-5, atol=1e-10)


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
    x = np.asarray(x, dtype=float)
    centered = np.asarray(y, dtype=float) - np.mean(y)
    spacing = np.min(np.diff(np.unique(x)))
    index, step, lengths = fit_module._lattice(x[None], np.array([spacing]))
    k_len = int(lengths[0])
    if on_lattice:
        assert k_len
        fast = fit_module._chirp_z_power(index, step, centered[None], omegas[None], k_len)[0]
    else:
        assert not k_len
        fast = fit_module._projection_power(x, centered, omegas)
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


def test_chirp_z_fft_length_is_the_smallest_fast_length_that_fits():
    fast = sorted(m << k for m in (1, 3, 5, 9, 15) for k in range(20))
    for n in [*range(1, 3000), 8991, 2**16 - 1, 2**16 + 1, 123_457]:
        assert fit_module._fft_length(n) == next(length for length in fast if length >= n)


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


@st.composite
def record_stacks(draw):
    """A (B, N) stack of records of many kinds, one length.

    Linspace rows of various spans and spacings (so their frequency grids
    differ in size, and float rounding of span/spacing may too), lattice rows
    with gaps and repeated times, jittered rows off any lattice, flat rows and
    rows whose times are all equal.
    """
    points = draw(st.integers(2, 40))
    x, y = [], []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["linspace", "gaps", "off", "flat", "one_time"]))
        start, step = draw(st.floats(0.0, 2e-2)), 10.0 ** draw(st.floats(-6.0, -4.0))
        if kind == "gaps":
            index = sorted(draw(st.lists(st.integers(0, 3 * points), min_size=points,
                                         max_size=points)))
            times = start + step * np.array(index, dtype=float)
        elif kind == "off":
            jitter = draw(st.lists(st.floats(-0.4, 0.4), min_size=points, max_size=points))
            times = np.sort(start + step * (np.arange(points) + np.array(jitter)))
        elif kind == "one_time":
            times = np.full(points, start)
        else:
            times = np.linspace(start, start + step * (points - 1), points)
        freq = draw(st.floats(0.01, 0.5)) / step
        if kind == "flat":
            values = np.full(points, draw(st.floats(0.0, 1.0)))
        else:
            values = noisy_carrier(times, freq, seed=draw(st.integers(0, 2**32 - 1)))
        x.append(times)
        y.append(values)
    return np.array(x), np.array(y)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(record_stacks())
def test_stacked_start_frequencies_equal_each_row_alone(stack):
    # The start frequencies of a stack equal dominant_frequency of each row alone,
    # bit for bit, or raise its FitError message, whatever the other rows are.
    x, y = stack
    stacked = fit_module._frequencies(x, y)
    assert len(stacked) == len(x)
    for b, result in enumerate(stacked):
        try:
            alone = dominant_frequency(x[b], y[b])
        except FitError as exc:
            assert isinstance(result, FitError) and str(result) == str(exc)
        else:
            assert isinstance(result, float) and result.hex() == alone.hex()


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


def test_free_t2_star_fit_recovers_the_simulated_envelope_time():
    # The noise-free mean fraction of the README Ramsey config, taken from the
    # characteristic function of the light-shift law the simulator draws
    # (eta = T2*/k): a fit with a free T2* returns that T2*.  The bound,
    # relative 1e-6, is fixed before the run; a model envelope whose constants
    # disagree with the simulated law misses it by about 4e-3.
    delta, contrast = 2 * math.pi * 8600.0, 0.9
    eta = LightShiftDistribution.from_t2_star(T2_STAR).eta
    t = np.linspace(5e-5, 3e-3, 1000)
    w = contrast * (np.exp(1j * delta * t) * (1 + 1j * t / eta) ** -3).real
    res = fit_fringe(weighted_points(t, (1.0 - w) / 2.0), n=0, tau=0.0, t2_star=None)
    assert res.converged
    assert abs(res.params["t2_star"] / T2_STAR - 1) < 1e-6


def test_fixed_t2_star_is_reported_as_held():
    xs = np.linspace(1e-4, 2e-3, 21)
    frac = (1.0 - fringe_inhomogeneous(xs, 2 * math.pi * 2e3, T2_STAR, 0)) / 2.0
    res = fit_fringe(weighted_points(xs, frac), n=0, tau=0.0, t2_star=T2_STAR)
    assert res.params["t2_star"] == T2_STAR
    assert res.errors["t2_star"] == 0.0
    assert "fixed" in res.units["t2_star"]


@pytest.mark.parametrize("t2_star", [0.0, -1.0, math.nan])
def test_held_t2_star_that_is_not_positive_is_a_domain_error(t2_star):
    xs = np.linspace(1e-4, 2e-3, 21)
    frac = (1.0 - fringe_inhomogeneous(xs, 2 * math.pi * 2e3, T2_STAR, 0)) / 2.0
    with pytest.raises(DomainError) as raised:
        fit_fringe(weighted_points(xs, frac), n=0, tau=0.0, t2_star=t2_star)
    assert str(raised.value) == f"t2_star must be positive, got {t2_star}"


def test_flat_fringe_with_a_bad_t2_star_raises_its_fit_error_first():
    # The start frequency is sought before the held T2* is checked.
    xs = np.linspace(1e-4, 2e-3, 21)
    with pytest.raises(FitError, match="flat spectrum"):
        fit_fringe(weighted_points(xs, np.full(xs.size, 0.5)), n=0, tau=0.0, t2_star=-1.0)


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


# ------------------------------------------------------------------ Jacobians

# Each closed-form Jacobian is checked against numeric_jacobian in scaled
# coordinates: parameter j is theta_j + s_j*(u_j - 1) at u = 1, so the
# oracle's step of 1e-6 in u moves it by DELTA = 1e-6 of its own size
# s_j = |theta_j| (the phase, an angle, by 1e-6 rad: s = 1).  Unscaled, the
# oracle's 1e-8 step floor would step a 1e-9 s T2* below zero.
#
# A point's deviation is |J - J_num| over the largest |J| of its row: a row
# is the gradient of one residual, and the oracle's errors and the row both
# scale with the model's local amplitude.  The bound, derived before the
# test was first run:
#  - truncation, DELTA**2/6 times a third derivative.  The largest is that
#    of the delta_prime column, PHI**3 times the local amplitude, where
#    PHI = 2*pi * 10 kHz * 3.05 ms = 192 rad is the largest phase any
#    parameter sweeps over the grids below (the Rabi fit sweeps 38 rad; the
#    decays' third derivatives stay below 1e4 times their row scale, 2e-9
#    after the DELTA**2/6).  Every row holds an entry of at least its
#    amplitude / sqrt(2) (the visibility and phase columns, |cos| and
#    |sin|), so truncation <= sqrt(2) * DELTA**2/6 * PHI**3.
#  - rounding: each evaluation is within ROUNDING_ULPS ulp (three roundings
#    forming the cosine's argument, one in the cosine) of that argument,
#    at most PHI + 3*pi rad (the phase and kappa), times the amplitude; two
#    evaluations over 2*DELTA against the same row scale give
#    sqrt(2) * ROUNDING_ULPS * eps * (PHI + 3*pi) / DELTA.
# Together 1.66e-6 + 2.5e-7.  The readout's constant in a fitter's curve
# adds eps/(4*DELTA) over a row scale of at least 0.01 on the records of
# the fitter test below: 6e-9, within the margin.
DELTA = 1e-6
PHI = 2 * math.pi * 10e3 * 3.05e-3
ROUNDING_ULPS = 4
JACOBIAN_BOUND = (math.sqrt(2) * DELTA**2 / 6 * PHI**3
                  + math.sqrt(2) * ROUNDING_ULPS * np.finfo(float).eps * (PHI + 3 * math.pi) / DELTA)


def assert_jacobian_within_bound(curve, jacobian, x, theta, angles=()):
    """jacobian(x, theta) against the oracle in scaled coordinates, row by row."""
    theta = np.asarray(theta, dtype=float)
    scale = np.abs(theta)
    scale[list(angles)] = 1.0
    oracle = numeric_jacobian(lambda xx, u: curve(xx, theta + scale * (u - 1.0)),
                              x, np.ones(theta.size))
    jac = jacobian(x, theta) * scale
    deviation = np.abs(jac - oracle) / np.max(np.abs(jac), axis=1, keepdims=True)
    assert np.max(deviation) <= JACOBIAN_BOUND


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(n=st.integers(0, 6), visibility=st.floats(0.05, 1.5),
       delta_prime=st.floats(2 * math.pi * 100.0, 2 * math.pi * 10e3),
       phase=st.floats(-math.pi, math.pi),
       t2_star=st.one_of(st.just(math.inf),                        # held off: 3 columns
                         st.floats(-9.0, -2.0).map(lambda e: 10.0**e)),  # co-fit to its bound
       start=st.floats(-1.5e-3, 5e-5), span=st.floats(5e-4, 3e-3))
def test_fringe_jacobian_matches_central_differences(n, visibility, delta_prime, phase,
                                                     t2_star, start, span):
    x = np.linspace(start, start + span, 41)
    co_fit = t2_star < math.inf
    theta = [visibility, delta_prime, phase] + [t2_star] * co_fit
    envelope_time = (lambda th: th[3]) if co_fit else (lambda th: t2_star)
    assert_jacobian_within_bound(
        lambda xx, th: _fringe(xx, *th[:3], envelope_time(th), n),
        lambda xx, th: _fringe_jacobian(xx, *th[:3], envelope_time(th), n, co_fit),
        x, theta, angles=[2])


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(n=st.integers(1, 6), c0=st.floats(0.05, 1.2), sigma_sig=st.floats(1.0, 200.0),
       start=st.floats(0.0, 0.5), stop=st.floats(0.6, 3.0))
def test_visibility_jacobian_matches_central_differences(n, c0, sigma_sig, start, stop):
    t = t2_prime(n, sigma_sig) * np.linspace(start, stop, 12)
    assert_jacobian_within_bound(lambda tt, th: _visibility(tt, *th, n),
                                 lambda tt, th: _visibility_jacobian(tt, *th, n),
                                 t, [c0, sigma_sig])


SIGNED = st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(0.05, 0.95)).map(lambda p: p[0] * p[1])


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(omega_r=st.floats(2 * math.pi * 1e3, 2 * math.pi * 30e3), contrast=SIGNED,
       offset=st.floats(0.1, 0.9))
def test_rabi_jacobian_matches_central_differences(omega_r, contrast, offset):
    # the fit_records records: 20-30 kHz, |contrast| 0.38-0.45, offset near 0.5, 0-200 us
    t = np.linspace(0.0, 2e-4, 201)
    assert_jacobian_within_bound(lambda tt, th: _rabi(tt, *th),
                                 lambda tt, th: _rabi_jacobian(tt, *th),
                                 t, [omega_r, contrast, offset])


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(t1=st.floats(0.05, 2.0), amplitude=SIGNED, equilibrium=st.floats(0.01, 0.5))
def test_t1_jacobian_matches_central_differences(t1, amplitude, equilibrium):
    # the fit_records records: T1 0.7-0.95 s, amplitude 0.85-0.92, equilibrium 0.03, 0-2 s
    t = np.linspace(0.0, 2.0, 201)
    assert_jacobian_within_bound(lambda tt, th: _t1(tt, *th),
                                 lambda tt, th: _t1_jacobian(tt, *th),
                                 t, [t1, amplitude, equilibrium])


def _fringe_record(n, tau, t):
    return (1.0 - 0.8 * fringe_inhomogeneous(t, 2 * math.pi * 1.5e3, T2_STAR, n, tau)) / 2.0


FITTER_RECORDS = {
    "rabi": (np.linspace(0.0, 2e-4, 201), {},
             lambda t: rabi_fraction(t, 2 * math.pi * 25e3, 0.42, 0.5)),
    "t1": (np.linspace(0.0, 2.0, 201), {}, lambda t: t1_fraction(t, 0.8, 0.9, 0.03)),
    "ramsey": (np.linspace(5e-5, 3e-3, 201), {"t2_star": None},
               lambda t: _fringe_record(0, 0.0, t)),
    "echo_fringe": (0.01 + np.linspace(-1.5e-3, 1.5e-3, 41), {"tau": 5e-3, "t2_star": T2_STAR},
                    lambda t: _fringe_record(1, 5e-3, t)),
    "cpmg_fringe": (np.linspace(11.2e-3, 14e-3, 201), {"n": 6, "tau": 1e-3},
                    lambda t: _fringe_record(6, 1e-3, t)),
    "visibility": (t2_prime(6, 55.7) * np.linspace(0.2, 1.2, 9), {"n": 6},
                   lambda t: visibility_model(t, 0.602, 55.7, 6)),
}


def stack_row(function, x, theta, b):
    """Row b of a _fit_stack curve or Jacobian, as a function of that row's x and theta alone."""
    def row(xx, th):
        xs = xx if x.ndim == 1 else np.concatenate([x[:b], [xx], x[b + 1:]])
        thetas = theta.copy()
        thetas[b] = th
        return function(xs, thetas)[b]
    return row


@pytest.mark.parametrize("model", sorted(FITTER_RECORDS))
def test_every_fitter_refuses_data_without_points(model):
    # The readers read a header-only table as empty: no fitter takes a start value from
    # it, and none warns (the suite turns warnings into errors).
    _, kwargs, _ = FITTER_RECORDS[model]
    with pytest.raises(FitError, match="no data points to fit"):
        FITTERS[model](FitData(np.empty(0), np.empty(0), np.empty(0)), **kwargs)


@pytest.mark.parametrize("model", sorted(FITTER_RECORDS))
def test_each_fitter_hands_fit_curve_the_jacobian_of_its_curve(model, monkeypatch):
    # Every fitter reaches _fit_stack (fit_curve and fit_fringe as stacks of one);
    # each row's Jacobian is checked as a function of that row alone.
    calls = []
    real_fit_stack = fit_module._fit_stack

    def spy(curve, jacobian, x, y, weight, initial, lo, hi, **kwargs):
        results = real_fit_stack(curve, jacobian, x, y, weight, initial, lo, hi, **kwargs)
        calls.append((curve, jacobian, x, np.asarray(initial, dtype=float), results))
        return results

    monkeypatch.setattr(fit_module, "_fit_stack", spy)
    t, kwargs, truth = FITTER_RECORDS[model]
    rng = np.random.default_rng(61)
    FITTERS[model](points_from_counts(t, rng.binomial(2000, truth(t)), 2000), **kwargs)
    (stack_curve, stack_jacobian, stack_x, stack_initial, results), = calls
    for b, result in enumerate(results):
        curve = stack_row(stack_curve, stack_x, stack_initial, b)
        jacobian = stack_row(stack_jacobian, stack_x, stack_initial, b)
        x, initial = stack_x if stack_x.ndim == 1 else stack_x[b], stack_initial[b]
        fitted = np.array(list(result.params.values())[:initial.size])
        angles = [2] if "phase" in result.params else []
        for theta in (initial, fitted):
            assert_jacobian_within_bound(curve, jacobian, x, theta, angles)


# ------------------------------------------------------------------ termination

STOP_REASONS = {"gradient", "cost", "no_step", "max_iterations"}
GUARD_S = 20.0


def outcome_within_guard(call):
    """call()'s result, or the exception it raised, from a daemon thread joined for GUARD_S."""
    outcome = {}

    def run():
        try:
            with np.errstate(all="ignore"):   # overflow is part of the data, not a failure
                outcome["value"] = call()
        except Exception as exc:  # handed to the test thread, which decides
            outcome["value"] = exc

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=GUARD_S)
    assert not worker.is_alive(), f"the fit did not return within {GUARD_S} s"
    return outcome["value"]


@st.composite
def random_records(draw):
    """Finite records: any grid, flat or random values, unit or extreme weights."""
    size = draw(st.integers(1, 30))
    if draw(st.booleans()):
        start = draw(st.floats(-1.0, 1.0))
        x = start + draw(st.floats(1e-9, 1e3)) * np.linspace(0.0, 1.0, size)
    else:
        x = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=size, max_size=size)))
    if draw(st.booleans()):
        y = np.full(size, draw(st.floats(-2.0, 2.0)))                          # flat
    else:
        y = np.array(draw(st.lists(st.floats(-1e6, 1e6), min_size=size, max_size=size)))
    if draw(st.booleans()):
        weight = np.ones(size)
    else:
        weight = 10.0 ** np.array(draw(st.lists(st.floats(-150.0, 150.0),
                                                min_size=size, max_size=size)))
    return FitData(x, y, weight)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(model=st.sampled_from(sorted(FITTERS) + ["line"]), data=random_records(),
       n=st.integers(1, 6), tau=st.floats(0.0, 1e-2),
       t2_star=st.sampled_from([math.inf, None, T2_STAR]),
       curve_scale=st.sampled_from([1.0, 1e160, 1e-160]),
       initial=st.lists(st.one_of(st.floats(-1e3, 1e3), st.just(1e-170)), min_size=2,
                        max_size=2))
def test_fit_curve_terminates_on_random_finite_data(model, data, n, tau, t2_star, curve_scale,
                                                    initial):
    if model == "line":
        def call():
            return fit_curve(lambda t, th: curve_scale * line(t, th), data, initial,
                             jacobian=lambda t, th: curve_scale * line_jacobian(t, th))
    else:
        params = inspect.signature(FITTERS[model]).parameters
        kwargs = {name: value for name, value in (("n", n), ("tau", tau))
                  if name in params and params[name].default is inspect.Parameter.empty}
        if "t2_star" in params:
            kwargs["t2_star"] = t2_star

        def call():
            return FITTERS[model](data, **kwargs)

    outcome = outcome_within_guard(call)
    if isinstance(outcome, FitError):
        return
    if isinstance(outcome, Exception):
        raise outcome
    assert outcome.stop_reason in STOP_REASONS
    assert outcome.converged == (outcome.stop_reason in {"gradient", "cost"})


# ------------------------------------------------------------------ stacked fits


def outcome(result):
    """A fit's outcome for a bit-for-bit comparison: every field's repr, or the error's message."""
    if isinstance(result, FitError):
        return ("FitError", str(result))
    return ("FitResult", repr(dataclasses.asdict(result)))


def fit_fringe_alone(data, n, tau, t2_star):
    try:
        return fit_fringe(data, n=n, tau=tau, t2_star=t2_star)
    except FitError as exc:
        return exc


@st.composite
def fringe_stacks(draw):
    """1-9 fringes of one length, pulse number and T2*, held or co-fitted (None).

    The fringes lie around their echo times.  Each has its own pulse spacing,
    visibility, phase and trials; some are flat (every count equal), which leaves
    no frequency to start from, and some have no visibility at a few trials,
    whose fits can run to the iteration cap.  A co-fitted stack is drawn with
    the envelope time T2_STAR.
    """
    n = draw(st.integers(0, 6))
    points = draw(st.integers(3, 31))
    t2_star = draw(st.sampled_from([math.inf, T2_STAR, None]))
    envelope_time = T2_STAR if t2_star is None else t2_star
    carrier = 2 * math.pi * draw(st.floats(300.0, 3000.0))
    fringes, taus = [], []
    for _ in range(draw(st.integers(1, 9))):
        tau = draw(st.floats(2e-4, 5e-3)) if n else 0.0
        half = min(3 * math.pi / carrier, 0.95 * tau) if n else 3 * math.pi / carrier
        t = 2 * n * tau + (half + 5e-5) * (n == 0) + np.linspace(-half, half, points)
        trials = draw(st.sampled_from([1, 5, 100, 2000]))
        if draw(st.integers(0, 4)) == 0:
            successes = np.full(points, draw(st.integers(0, trials)))
        else:
            w = _fringe(t - 2 * n * tau, draw(st.sampled_from([0.0, 0.3, 0.9])), carrier,
                        draw(st.floats(-math.pi, math.pi)), envelope_time, n)
            successes = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).binomial(
                trials, (1.0 - w) / 2.0)
        fringes.append(points_from_counts(t, successes, trials))
        taus.append(tau)
    return n, taus, t2_star, fringes


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(fringe_stacks())
def test_stacked_fringe_fits_equal_each_fringe_fit_alone(stack):
    # One _fit_stack call over the stack gives each fringe what fit_fringe gives it:
    # the same parameters, errors, rss, iterations, stop reason, cost history and
    # gradient norm, bit for bit, or the same FitError message.
    n, taus, t2_star, fringes = stack
    x, y, weight = (np.stack([getattr(data, name) for data in fringes])
                    for name in ("x", "y", "weight"))
    stacked = fit_module._fit_fringes(x, y, weight, n, taus, t2_star)
    assert len(stacked) == len(fringes)
    for data, tau, result in zip(fringes, taus, stacked):
        assert outcome(result) == outcome(fit_fringe_alone(data, n, tau, t2_star))


def decay(x, amplitude, rate):
    return amplitude * np.exp(-rate * x)


def decay_columns(x, amplitude, rate):
    shape = np.exp(-rate * x)
    return [shape, -amplitude * x * shape]


def assert_each_row_fits_as_alone(stacked, curve_of_row, jacobian_of_row, x, y, weight,
                                  initial, bounds, max_iterations=200):
    """Every stacked outcome is fit_curve's on that row alone, bit for bit."""
    for b, result in enumerate(stacked):
        try:
            alone = fit_curve(curve_of_row(b), FitData(x[b], y[b], weight[b]), initial[b],
                              bounds, jacobian=jacobian_of_row(b),
                              max_iterations=max_iterations)
        except FitError as exc:
            alone = exc
        assert outcome(result) == outcome(alone)


@pytest.mark.parametrize("max_iterations", [0, 2, 200])
def test_stacked_problems_stop_and_fail_alone(max_iterations):
    # Four problems in one stack: a noisy decay (it stops on the cost), exact data
    # started at the optimum (gradient), one far from its optimum (it meets a low
    # cap) and one whose model turns infinite on the way (FitError).  Each row's
    # outcome is fit_curve's on that row alone, so the failure leaves its neighbours
    # as they were.
    rng = np.random.default_rng(71)
    x = np.tile(np.linspace(0.0, 3.0, 25), (4, 1))
    truth = np.array([[0.8, 1.3], [0.6, 0.7], [0.9, 2.0], [3.0, 1.0]])
    y = decay(x, truth[:, :1], truth[:, 1:]) + rng.normal(0.0, 0.01, x.shape)
    y[1] = decay(x[1], *truth[1])
    weight = np.full(x.shape, 1e4)
    initial = np.array([[0.5, 0.5], truth[1], [0.01, 9.0], [1.0, 1.0]])
    bounds = [(0.0, None), (0.0, None)]

    def infinite_past(limit, values, amplitude):
        return np.where(amplitude > limit, np.inf, values)

    def stacked_curve(xs, theta):  # the last row is infinite past amplitude 1.5
        values = decay(xs, theta[:, :1], theta[:, 1:])
        values[3] = infinite_past(1.5, values[3], theta[3, 0])
        return values

    def stacked_jacobian(xs, theta):
        return np.stack(decay_columns(xs, theta[:, :1], theta[:, 1:]), axis=-1)

    stacked = fit_module._fit_stack(stacked_curve, stacked_jacobian, x, y, weight, initial,
                                    *fit_module._bound_arrays(bounds, 2),
                                    max_iterations=max_iterations)
    assert_each_row_fits_as_alone(
        stacked,
        lambda b: lambda t, th: infinite_past(1.5 if b == 3 else math.inf, decay(t, *th), th[0]),
        lambda b: lambda t, th: np.column_stack(decay_columns(t, *th)),
        x, y, weight, initial, bounds, max_iterations)
    reasons = [r.stop_reason if isinstance(r, FitResult) else "FitError" for r in stacked]
    if max_iterations == 200:
        assert reasons == ["cost", "gradient", "cost", "FitError"]
        assert "model returned non-finite values at parameters" in str(stacked[3])
    if max_iterations == 2:
        assert reasons[2] == "max_iterations"


def test_stacked_problems_with_singular_or_overflowing_normal_matrices_run_alone():
    # a + b is fitted as two parameters, so the undamped normal matrix is singular:
    # the first solve of a well-scaled row fails and its damped retry succeeds.  In
    # the row scaled by 1e160 the normal matrix overflows, every step is non-finite
    # and the row stops with no step.  The stacked solve then fails for the whole
    # stack, and each row is solved alone.
    x = np.tile(np.linspace(0.05, 1.0, 20), (3, 1))
    scale = np.array([1.0, 1e160, 1.0])
    y = 0.5 * x
    initial = np.array([[0.1, 0.2], [1e-170, 1e-170], [0.3, -0.1]])
    weight = np.ones_like(x)
    with np.errstate(all="ignore"):
        stacked = fit_module._fit_stack(
            lambda xs, th: scale[:, None] * (th[:, :1] + th[:, 1:]) * xs,
            lambda xs, th: np.stack([scale[:, None] * xs] * 2, axis=-1),
            x, y, weight, initial, *fit_module._bound_arrays(None, 2))
        assert_each_row_fits_as_alone(
            stacked, lambda b: lambda t, th: scale[b] * (th[0] + th[1]) * t,
            lambda b: lambda t, th: np.column_stack([scale[b] * t] * 2),
            x, y, weight, initial, None)
    assert [r.stop_reason for r in stacked][1] == "no_step"
    assert stacked[0].params["p0"] + stacked[0].params["p1"] == pytest.approx(0.5)


def test_a_stack_reports_its_rows_that_cannot_start():
    # A non-finite start and too few points are reported per row, as fit_curve raises them.
    x = np.tile(np.linspace(0.0, 1.0, 4), (2, 1))
    curve = lambda xs, theta: theta[:, :1] * xs + theta[:, 1:2] * xs**2 + theta[:, 2:]
    jacobian = lambda xs, theta: np.stack([xs, xs**2, np.ones_like(xs)], axis=-1)
    lo, hi = fit_module._bound_arrays(None, 3)
    initial = np.array([[math.nan, 0.0, 0.0], [1.0, 0.0, 0.0]])
    stacked = fit_module._fit_stack(curve, jacobian, x, 2.0 * x, np.ones_like(x), initial, lo, hi)
    assert str(stacked[0]).startswith("initial guess must be finite")
    assert stacked[1].converged and stacked[1].params["p0"] == pytest.approx(2.0)
    few = fit_module._fit_stack(curve, jacobian, x[:, :2], x[:, :2], np.ones((2, 2)),
                                np.ones((2, 3)), lo, hi)
    assert [str(r) for r in few] == ["2 data points cannot constrain 3 parameters"] * 2

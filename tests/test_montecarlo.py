"""Ensemble simulation: kernel equivalence, convergence to closed forms,
measurement emulation, determinism, and the two-stage visibility pipeline."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import chi2

from dephasim.analytic import (
    envelope_alpha_exact,
    envelope_kappa_exact,
    fraction_from_w,
    homogeneous_factor,
    t2_prime,
)
from dephasim.bloch import (
    SegmentDetunings,
    SequenceSpec,
    accumulated_phase,
    evolve_cpmg,
    evolve_cpmg_perturbed,
    jump_weights,
)
from dephasim.errors import DataFormatError, DomainError
from dephasim.fit import fit_fringe, fit_visibility_decay, weighted_points
from dephasim.montecarlo import (
    ExperimentConfig,
    FringeDataset,
    VisibilityPoint,
    binomial_dataset,
    ensemble_probability,
    scan_visibility,
    simulate_dataset,
)
from dephasim.noise import HomogeneousNoiseSpec, LightShiftDistribution

ETA = 1.4e-3 / 0.97      # light-shift rate giving the measured 1.4 ms envelope time


def oracle_w(seq, t):
    """The readout w of ``seq`` at time t from the 3x3 matrix products."""
    return evolve_cpmg(replace(seq, t=float(t))).w


def echo_config(**overrides):
    seq = SequenceSpec("spin_echo", 1, tau=5e-3, delta=2 * math.pi * 300.0)
    base = dict(sequence=seq, time_grid=(0.0103,), rng_seed=0)
    base.update(overrides)
    return ExperimentConfig(**base)


# ------------------------------------------------------------ single draws


def test_no_noise_is_deterministic_and_exact():
    rng = np.random.default_rng(0)
    # Ramsey at zero detuning: perfect refocusing regardless of t
    cfg = ExperimentConfig(sequence=SequenceSpec("ramsey", 0, delta=0.0), time_grid=(1.0,))
    for t in (1e-4, 3.7e-3, 2.0):
        assert ensemble_probability(cfg, t, rng, draws=1) == fraction_from_w(1.0)
    # CPMG against the closed form
    seq = SequenceSpec("cpmg", 3, tau=2e-3, delta=2 * math.pi * 400.0)
    cfg = ExperimentConfig(sequence=seq, time_grid=(0.0123,))
    t = 0.0123
    expected = fraction_from_w(oracle_w(seq, t))
    assert ensemble_probability(cfg, t, rng, draws=1) == pytest.approx(expected, abs=1e-12)
    assert ensemble_probability(cfg, t, rng) == pytest.approx(expected, abs=1e-12)
    # identical on repeated calls: no randomness consumed
    assert ensemble_probability(cfg, t, rng, draws=1) == ensemble_probability(cfg, t, rng, draws=1)


def test_invalid_readout_time_rejected():
    cfg = echo_config()
    rng = np.random.default_rng(1)
    with pytest.raises(DomainError):
        ensemble_probability(cfg, 2e-3, rng, draws=1)   # before the refocusing pulse
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
            batch = (-1.0) ** n * np.cos(accumulated_phase(delta_eff, tau, n, t, jumps))
            for k in range(0, 200, 17):
                if n == 0:
                    seq = SequenceSpec("ramsey", 0, t=t, delta=float(delta_eff[k]))
                    oracle = evolve_cpmg(seq).w
                else:
                    seg = SegmentDetunings(np.full(n, delta_eff[k]), jumps[k])
                    oracle = evolve_cpmg_perturbed(tau, n, seg, t=t).w
                assert batch[k] == pytest.approx(oracle, abs=1e-12)


@pytest.mark.parametrize("n", [1, 3, 6])
def test_one_gaussian_per_shot_matches_filter_factor_off_echo(n):
    # Per-interval sigmas differ, so the readout-dependent last weight must
    # pair with the last sigma.  The bound is 4 standard errors of the mean
    # over independent batches of draws.
    tau, delta = 2e-3, 2 * math.pi * 60.0
    sigmas = np.linspace(50.0, 200.0, n)
    seq = SequenceSpec("spin_echo" if n == 1 else "cpmg", n, tau=tau, delta=delta)
    cfg = ExperimentConfig(sequence=seq, homogeneous=HomogeneousNoiseSpec(sigmas),
                           time_grid=(2 * n * tau,), noise_draws=2000)
    rng = np.random.default_rng(40 + n)
    for t in (2 * n * tau - 0.6 * tau, 2 * n * tau + 0.4e-3):
        c = jump_weights(tau, n, t)
        w = (-1.0) ** n * math.cos(delta * (t - 2 * n * tau)) \
            * math.exp(-0.5 * np.sum(c**2 * sigmas**2))
        batches = np.array([ensemble_probability(cfg, t, rng) for _ in range(200)])
        se = np.std(batches, ddof=1) / math.sqrt(batches.size)
        assert abs(np.mean(batches) - fraction_from_w(w)) <= 4 * se


def test_contrast_and_inversion_flow_through():
    seq = SequenceSpec("ramsey", 0, delta=2 * math.pi * 500.0)
    rng = np.random.default_rng(3)
    t = 4e-4
    w = math.cos(seq.delta * t)
    cfg = ExperimentConfig(sequence=seq, time_grid=(t,), contrast=0.6)
    assert ensemble_probability(cfg, t, rng, draws=1) == \
        pytest.approx((1 - 0.6 * w) / 2, abs=1e-12)
    cfg = ExperimentConfig(sequence=seq, time_grid=(t,), contrast=0.6, invert_fraction=True)
    assert ensemble_probability(cfg, t, rng, draws=1) == \
        pytest.approx((1 + 0.6 * w) / 2, abs=1e-12)


def test_zeeman_shift_offsets_the_carrier():
    shift = 2 * math.pi * 200.0
    seq = SequenceSpec("ramsey", 0, delta=2 * math.pi * 1200.0)
    cfg = ExperimentConfig(sequence=seq, time_grid=(1e-3,), zeeman_shift=shift)
    rng = np.random.default_rng(4)
    t = 7e-4
    expected = (1 - math.cos((seq.delta - shift) * t)) / 2
    assert ensemble_probability(cfg, t, rng, draws=1) == pytest.approx(expected, abs=1e-12)


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
        w = envelope_alpha_exact(t, ETA) * math.cos(delta * t + envelope_kappa_exact(t, ETA))
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
        return envelope_alpha_exact(t, ETA) * math.cos(a * t + envelope_kappa_exact(t, ETA))

    for t in (0.1e-3, 0.45e-3, 0.9e-3, 1.6e-3, 2.7e-3, 4.0e-3):
        variance = (1 + mean_cos(2 * t)) / 2 - mean_cos(t) ** 2
        se = contrast / 2 * math.sqrt(variance / draws)
        exact = fraction_from_w(contrast * mean_cos(t), invert=invert)
        assert abs(ensemble_probability(cfg, t, rng) - exact) <= 5 * se


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
    w = envelope_alpha_exact(t, ETA) * math.cos((delta - delta0) * t + envelope_kappa_exact(t, ETA))
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
        return envelope_alpha_exact(t, eta) * np.cos(delta * t + envelope_kappa_exact(t, eta))

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


def test_binomial_dataset_rejects_bad_probabilities():
    rng = np.random.default_rng(0)
    with pytest.raises(DomainError):
        binomial_dataset([0.0], [1.2], 100, rng)
    with pytest.raises(DomainError):
        binomial_dataset([0.0], [math.nan], 100, rng)  # an overflowed phase
    ds = binomial_dataset([0.0, 1.0], [0.2, 0.8], 100, rng)
    assert np.all(ds.trials == 100)


def test_csv_round_trip_and_malformed_rows(tmp_path):
    rng = np.random.default_rng(6)
    ds = binomial_dataset(np.linspace(0, 1e-3, 7), np.full(7, 0.4), 100, rng)
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
    ds = binomial_dataset(np.linspace(0, 1e-3, 5), np.full(5, 0.3), 80, rng)
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


def test_scan_preconditions():
    seq = SequenceSpec("ramsey", 0, delta=2 * math.pi * 1e3)
    cfg = ExperimentConfig(sequence=seq)
    with pytest.raises(DomainError):
        scan_visibility(cfg, [1e-3])      # no refocusing pulse
    seq = SequenceSpec("spin_echo", 1, tau=1e-3, delta=0.0)
    cfg = ExperimentConfig(sequence=seq)
    with pytest.raises(DomainError):
        scan_visibility(cfg, [1e-3])      # zero carrier, no fringe to fit

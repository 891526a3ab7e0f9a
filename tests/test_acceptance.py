"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line for its criterion and then asserts it.
Tolerances and rng seeds are frozen; scipy appears only as an independent
quadrature oracle.
"""

import filecmp
import json
import math
import time

import numpy as np
from scipy.integrate import quad

from dephasim.analytic import (
    envelope_alpha,
    envelope_kappa,
    homogeneous_factor,
    t2_prime,
    w_from_fraction,
)
from dephasim.bloch import (
    SegmentDetunings,
    SequenceSpec,
    accumulated_phase,
    evolve_cpmg_perturbed,
)
from dephasim.cli import main
from dephasim.fit import (
    fit_rabi,
    fit_t1,
    fit_visibility_decay,
    points_from_counts,
    weighted_points,
)
from dephasim.montecarlo import ExperimentConfig, ensemble_probability, scan_visibility
from dephasim.noise import HomogeneousNoiseSpec, LightShiftDistribution

TABLE_ROWS = [
    (1, 0.687, 27.6, 102.7),
    (2, 0.721, 42.4, 133.3),
    (3, 0.749, 53.5, 158.7),
    (4, 0.666, 57.4, 197.1),
    (5, 0.652, 67.5, 209.4),
    (6, 0.602, 55.7, 304.5),
]


def _report(number: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def _row_config(n, contrast, sigma_sig, seed, cycles):
    kind = "spin_echo" if n == 1 else "cpmg"
    return ExperimentConfig(
        sequence=SequenceSpec(kind, n, tau=1e-3, delta=2 * math.pi * 1.5e3),
        homogeneous=HomogeneousNoiseSpec.from_sigma_sig(sigma_sig, n),
        cycles_per_point=cycles, noise_draws=4000, rng_seed=seed, contrast=contrast)


def _fit_row(n, contrast, sigma_sig, seed, cycles, tau_points=10):
    config = _row_config(n, contrast, sigma_sig, seed, cycles)
    taus = t2_prime(n, sigma_sig) * np.linspace(0.15, 1.1, tau_points) / (2 * n)
    points = scan_visibility(config, taus, points_per_fringe=31)
    usable = [p for p in points if p.ok]
    if len(usable) < 5:
        return None
    return fit_visibility_decay(weighted_points(
        [p.total_time for p in usable], [p.visibility for p in usable],
        yerr=[p.error for p in usable]), n=n)


def test_acceptance_1_coherence_time_formula_matches_printed_column():
    worst = 0.0
    for n, _, sigma_sig, printed_ms in TABLE_ROWS:
        computed_ms = 1e3 * t2_prime(n, sigma_sig)
        worst = max(worst, abs(computed_ms - printed_ms) / printed_ms)
    _report(1, worst < 0.005,
            f"t2_prime on all six (n, sigma_sig) rows within {100 * worst:.3f}% "
            "of the printed coherence times (budget 0.5%)")


def test_acceptance_2_sixfold_pulse_scan_prolongs_coherence_threefold():
    started = time.time()
    fits = {}
    for n, contrast, sigma_sig, _ in (TABLE_ROWS[0], TABLE_ROWS[5]):
        fits[n] = _fit_row(n, contrast, sigma_sig, seed=7, cycles=200)
    ratio = fits[6].params["t2_prime"] / fits[1].params["t2_prime"]
    elapsed = time.time() - started
    _report(2, 2.7 < ratio < 3.3 and elapsed < 60.0,
            f"fitted T2'(n=6)/T2'(n=1) = {ratio:.3f} in [2.7, 3.3] "
            f"({elapsed:.1f}s of 60s budget)")


def test_acceptance_3_ramsey_ensemble_matches_quadrature_oracle():
    started = time.time()
    t2_star = 1.4e-3
    eta = t2_star / 0.97
    delta = 2 * math.pi * 8.6e3
    grid = np.linspace(0.0, 3 * t2_star, 31)

    def phi_quad(t: float) -> complex:
        # characteristic function E[exp(-i G t)] of the shape-3 Gamma shift
        re = quad(lambda u: 0.5 * u**2 * math.exp(-u) * math.cos(u * t / eta),
                  0.0, 60.0, limit=400)[0]
        im = quad(lambda u: -0.5 * u**2 * math.exp(-u) * math.sin(u * t / eta),
                  0.0, 60.0, limit=400)[0]
        return complex(re, im)

    phi = np.array([phi_quad(t) for t in grid])
    w_oracle = np.real(np.exp(1j * delta * grid) * phi)

    config = ExperimentConfig(
        sequence=SequenceSpec("ramsey", 0, delta=delta),
        inhomogeneous=LightShiftDistribution.from_t2_star(t2_star),
        rng_seed=0)
    rng = np.random.default_rng(3003)
    w_mc = np.array([w_from_fraction(ensemble_probability(config, t, rng, draws=100000))
                     for t in grid])
    rms = float(np.sqrt(np.mean((w_mc - w_oracle) ** 2)))

    alpha_diff = float(np.max(np.abs(envelope_alpha(grid, t2_star) - np.abs(phi))
                              / np.abs(phi)))
    kappa_diff = float(np.max(np.abs(envelope_kappa(grid, t2_star)
                                     - np.unwrap(np.angle(phi)))))
    elapsed = time.time() - started
    _report(3, rms < 0.01 and alpha_diff < 0.02 and kappa_diff < 0.02 and elapsed < 60.0,
            f"MC fringe vs quadrature RMS {rms:.4f} (budget 0.01), envelope "
            f"magnitude within {100 * alpha_diff:.2f}% (budget 2%), phase within "
            f"{kappa_diff:.2e} rad (budget 0.02), {elapsed:.1f}s of 60s budget")


def test_acceptance_4_closed_form_equals_matrix_evolution():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        tau = 10.0 ** rng.uniform(-4, -2)
        base = rng.normal(0.0, 300.0, n)
        jumps = rng.normal(0.0, 2.0 / (n * tau), n)
        matrix_w = evolve_cpmg_perturbed(tau, n, SegmentDetunings(base, jumps)).w
        closed_w = (-1.0) ** n * np.cos(accumulated_phase(0.0, tau, n, 2 * n * tau, jumps))
        worst = max(worst, abs(matrix_w - closed_w))
    _report(4, worst < 1e-12,
            f"1000 random (n, tau, jump) trials: max |closed form - matrix| = "
            f"{worst:.2e} (budget 1e-12)")


def test_acceptance_5_ensemble_factor_matches_million_draw_mean():
    started = time.time()
    rng = np.random.default_rng(505)
    worst_pull = 0.0
    for n, sigma_sig in ((1, 27.6), (3, 53.5), (6, 55.7)):
        spec = HomogeneousNoiseSpec.from_sigma_sig(sigma_sig, n)
        tau = 0.7 * t2_prime(n, sigma_sig) / (2 * n)
        jumps = rng.normal(0.0, spec.sigmas, size=(1_000_000, n))
        signs = (-1.0) ** (n - np.arange(n))
        samples = np.cos(tau * (jumps @ signs))
        se = float(samples.std(ddof=1) / math.sqrt(samples.size))
        pull = abs(float(samples.mean()) - homogeneous_factor(tau, spec.sigmas)) / se
        worst_pull = max(worst_pull, pull)
    elapsed = time.time() - started
    _report(5, worst_pull < 3.0 and elapsed < 60.0,
            f"n in (1, 3, 6) at 1e6 draws: worst |MC - closed form| = "
            f"{worst_pull:.2f} standard errors (budget 3), {elapsed:.1f}s of 60s budget")


def test_acceptance_6_round_trip_recovery_at_recorded_statistics():
    started = time.time()
    wins = 0
    for rep in range(100):
        n, contrast, sigma_sig, _ = TABLE_ROWS[rep % 6]
        fit = _fit_row(n, contrast, sigma_sig, seed=1000 + rep, cycles=100,
                       tau_points=9)
        if fit is None:
            continue
        if (abs(fit.params["sigma_sig"] - sigma_sig) / sigma_sig < 0.10
                and abs(fit.params["c0"] - contrast) < 0.05):
            wins += 1
    elapsed = time.time() - started
    _report(6, wins >= 90 and elapsed < 300.0,
            f"sigma_sig within 10% and C_0 within 0.05 in {wins}/100 seeded "
            f"runs at 100 cycles/point (budget >= 90), {elapsed:.0f}s of 300s budget")


def test_acceptance_7_auxiliary_rabi_and_relaxation_fits():
    omega = 2 * math.pi * 130e3
    t = np.arange(1, 53) * 1e-6
    rng = np.random.default_rng(11)
    counts = rng.binomial(100, 0.5 - 0.45 * np.cos(omega * t))
    rabi = fit_rabi(points_from_counts(t, counts, 100))
    omega_rel = abs(rabi.params["omega_r"] - omega) / omega
    pi_half = (math.pi / 2) / rabi.params["omega_r"]
    pi_half_rel = abs(pi_half - 1.92e-6) / 1.92e-6

    t1_true = 0.8308
    t = np.linspace(0.0, 2.0, 25)
    rng = np.random.default_rng(21)
    counts = rng.binomial(200, np.clip(0.95 * np.exp(-t / t1_true) + 0.03, 0.0, 1.0))
    relax = fit_t1(points_from_counts(t, counts, 200))
    t1_rel = abs(relax.params["t1"] - t1_true) / t1_true

    _report(7, omega_rel < 0.005 and pi_half_rel < 0.01 and t1_rel < 0.10,
            f"Rabi frequency within {100 * omega_rel:.2f}% (budget 0.5%), pi/2 time "
            f"{1e6 * pi_half:.3f} us within {100 * pi_half_rel:.2f}% of 1.92 us "
            f"(budget 1%), T1 within {100 * t1_rel:.1f}% (budget 10%)")


def test_acceptance_8_cli_outputs_are_byte_identical(tmp_path):
    sim_doc = {
        "sequence": {"kind": "ramsey", "n": 0,
                     "delta": {"value": 8600.0, "angular": False}},
        "inhomogeneous": {"t2_star_s": 0.0014},
        "cycles_per_point": 200,
        "noise_draws": 20000,
        "time_grid_s": {"start_s": 5e-05, "stop_s": 0.003, "points": 120},
        "rng_seed": 19,
        "contrast": 0.9,
    }
    sweep_doc = {
        "sequence": {"kind": "cpmg", "n": 1, "tau_s": 1e-3,
                     "delta": {"value": 1500.0, "angular": False}},
        "cycles_per_point": 200,
        "noise_draws": 4000,
        "rng_seed": 7,
        "sweep": {"tau_points": 10, "span_t2_prime": [0.15, 1.1],
                  "points_per_fringe": 31,
                  "rows": {"1": {"sigma_sig": {"value": 27.6, "angular": True},
                                 "contrast": 0.687}}},
    }
    sim_config = tmp_path / "sim.json"
    sim_config.write_text(json.dumps(sim_doc), encoding="utf-8")
    sweep_config = tmp_path / "sweep.json"
    sweep_config.write_text(json.dumps(sweep_doc), encoding="utf-8")

    identical = True
    for run, workers in (("a", "1"), ("b", "3")):
        assert main(["simulate", "--config", str(sim_config),
                     "--output", str(tmp_path / f"sim_{run}"), "--workers", workers]) == 0
        out = tmp_path / f"sweep_{run}"
        out.mkdir()
        assert main(["sweep-n", "--config", str(sweep_config), "--n", "1",
                     "--outdir", str(out), "--workers", workers]) == 0
    identical &= filecmp.cmp(tmp_path / "sim_a.csv", tmp_path / "sim_b.csv", shallow=False)
    identical &= filecmp.cmp(tmp_path / "sim_a.json", tmp_path / "sim_b.json", shallow=False)
    identical &= filecmp.cmp(tmp_path / "sweep_a" / "visibility_n1.csv",
                             tmp_path / "sweep_b" / "visibility_n1.csv", shallow=False)
    identical &= filecmp.cmp(tmp_path / "sweep_a" / "summary.json",
                             tmp_path / "sweep_b" / "summary.json", shallow=False)
    _report(8, identical,
            "simulate and sweep-n outputs byte-identical across reruns and "
            "worker counts 1 vs 3")

"""Acceptance suite: one test per headline criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`."""
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import clean_config
from fransim.analysis import (
    accidental_rate,
    build_histogram,
    fit_fringe,
    lhv_chsh_experiment,
    scan_fringe,
    significance_from_visibility,
    window_coincidences,
)
from fransim.config import reproduction_config
from fransim.quantum import (
    STANDARD_SETTINGS,
    chsh_s,
    coincidence_probability,
    lhv_chsh_s,
    lhv_correlation,
)
from fransim.simulator import emit_event_stream, fwhm_to_sigma, simulate_setting

S_MAX = 2.0 * math.sqrt(2.0)
OUTCOMES = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def check(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_1_accidental_rate():
    formula = accidental_rate(250e3, 380e3, 350e-12)
    check("1a accidental formula 250 kHz x 380 kHz x 350 ps = 33.25 Hz",
          formula == pytest.approx(33.25), f"got {formula}")

    cfg = clean_config(pair_rate=0.0, dark_start=250e3, dark_stop=380e3, seed=101)
    summary = simulate_setting(cfg, 0.0, 0.0, 60.0, cfg.seed)
    mc_rate = summary.coincidences[(1, 1)] / summary.duration
    check("1b dark-dominated 60 s MC within 10% of 33.25 Hz",
          abs(mc_rate - 33.25) <= 0.10 * 33.25, f"MC rate {mc_rate:.2f} Hz")


def test_criterion_2_chsh_visibility_chain():
    for vis in (0.0, 1 / math.sqrt(2), 0.957, 1.0):
        s = chsh_s(STANDARD_SETTINGS, vis)
        check(f"2 S(V={vis:.6f}) = 2*sqrt(2)*V to 1e-12",
              abs(s - S_MAX * vis) <= 1e-12, f"S = {s!r}")
    check("2 boundary S(1/sqrt(2)) = 2.000000",
          abs(chsh_s(STANDARD_SETTINGS, 1 / math.sqrt(2)) - 2.0) <= 1e-12)


def test_criterion_3_significance_headline():
    sig = significance_from_visibility(0.957, 0.0315)
    check("3 significance(0.957, 0.0315) = 7.93 +- 0.01",
          abs(sig - 7.93) <= 0.01, f"got {sig:.4f}")


def test_criterion_4_end_to_end_fringe():
    cfg = replace(reproduction_config(), seed=42)
    controls = np.linspace(0.0, 600e-9, 25)
    points = scan_fringe(cfg, "mirror1", controls, 2.0)
    fit = fit_fringe(points, period_hint=cfg.wavelength1 / 2)
    check("4a fitted visibility within 3 sigma of 0.957",
          abs(fit.visibility - 0.957) <= 3 * fit.visibility_sigma,
          f"V = {fit.visibility:.4f} +- {fit.visibility_sigma:.4f}")
    check("4b displacement period 352 nm +- 2%",
          abs(fit.period - 352e-9) <= 0.02 * 352e-9,
          f"period = {fit.period * 1e9:.2f} nm")


def test_criterion_5_histogram_three_peaks():
    cfg = clean_config(pair_rate=1.1e6, visibility=0.957, seed=105)
    stream = emit_event_stream(cfg, 0.4, 0.2, 1.0, cfg.seed)
    n_pairs = len(stream.start_plus) + len(stream.start_minus)
    assert n_pairs >= 1_000_000
    hist = build_histogram(stream, 50e-12, 1.5e-9)
    centers = hist.bin_centers

    def area(peak):
        return int(hist.counts[np.abs(centers - peak) < 0.3e-9].sum())

    for peak, frac, label in ((-0.7e-9, 0.25, "-0.7 ns"), (0.0, 0.5, "0 ns"),
                              (0.7e-9, 0.25, "+0.7 ns")):
        expected = frac * n_pairs
        got = area(peak)
        check(f"5 peak at {label}: area fraction {frac} within 5 SE",
              abs(got - expected) <= 5 * math.sqrt(n_pairs * frac * (1 - frac)),
              f"{got} vs {expected:.0f}")


def test_criterion_6_mc_matches_closed_form():
    cfg = clean_config(pair_rate=3e5, jitter_stop=200e-12, seed=106)
    sigma = fwhm_to_sigma(cfg.detector_stop.jitter_fwhm)
    # Closed window at 1 ps quantization: effective half-width 175.5 ps.
    half_width = cfg.tphc.window_width / 2 + 0.5e-12
    acceptance = math.erf(half_width / (sigma * math.sqrt(2)))

    d1_grid = (0.2, 0.9, 1.7, 2.5)
    d2_grid = (0.1, 0.8, 1.9, 2.7)
    worst = 0.0
    for vis in (0.0, 0.5, 0.957, 1.0):
        run = replace(cfg, visibility=vis)
        for a, d1 in enumerate(d1_grid):
            for b, d2 in enumerate(d2_grid):
                seed = 10_000 + int(vis * 1000) * 100 + a * 10 + b
                stream = emit_event_stream(run, d1, d2, 1.0, seed)
                summary = window_coincidences(stream, run.tphc)
                n = len(stream.start_plus) + len(stream.start_minus)
                accepted = sum(summary.coincidences.values())
                assert accepted >= 100_000
                for i, j in OUTCOMES:
                    p = coincidence_probability(i, j, d1, d2, vis) * acceptance
                    se = math.sqrt(max(p * (1 - p), 1e-12) / n)
                    dev = abs(summary.coincidences[(i, j)] / n - p) / se
                    worst = max(worst, dev)
    check("6 windowed per-outcome frequencies within 5 SE of the closed form "
          "on a 4x4 phase grid x 4 visibilities",
          worst <= 5.0, f"worst deviation {worst:.2f} SE")


def test_criterion_7_lhv_bound():
    analytic = lhv_chsh_s(STANDARD_SETTINGS)
    check("7a analytic classical S at standard settings = 2.000",
          abs(analytic - 2.0) <= 1e-12, f"S = {analytic!r}")

    # Brute-force hidden-variable average as an independent oracle.
    lam = (np.arange(2_000_000) + 0.5) * (2 * math.pi / 2_000_000)
    for d1, d2 in STANDARD_SETTINGS.pairs():
        a = np.where(np.cos(d1 + lam) >= 0, 1, -1)
        b = np.where(np.cos(d2 - lam) >= 0, 1, -1)
        brute = float(np.mean(a * b))
        check(f"7b brute-force lambda average matches sawtooth at sum {d1 + d2:+.3f}",
              abs(brute - lhv_correlation(d1, d2)) <= 2e-6,
              f"{brute:.6f} vs {lhv_correlation(d1, d2):.6f}")

    worst = -np.inf
    for seed in range(50):
        report = lhv_chsh_experiment(STANDARD_SETTINGS, 100_000, seed)
        worst = max(worst, (report.s - 2.0) / report.s_sigma)
        assert report.s <= 2.0 + 5 * report.s_sigma
    check("7c sampled classical S <= 2 + 5 sigma for 50 seeds",
          True, f"worst (S-2)/sigma = {worst:.2f}")


def test_criterion_8_fit_exactness_and_bias():
    from fransim.analysis import FringePoint

    controls = np.linspace(0, 600e-9, 25)
    model = 100.0 * (1 + 0.8 * np.cos(2 * np.pi * controls / 352e-9 + 0.7))
    points = [FringePoint(float(x), int(round(y)), 0.0, float(y))
              for x, y in zip(controls, model)]
    fit = fit_fringe(points, period_hint=352e-9)
    exact = (abs(fit.mean_level - 100.0) / 100.0 <= 1e-6
             and abs(fit.visibility - 0.8) / 0.8 <= 1e-6
             and abs(fit.period - 352e-9) / 352e-9 <= 1e-6
             and abs(fit.phase0 - 0.7) / 0.7 <= 1e-6)
    check("8a noiseless sinusoid recovered to 1e-6 relative",
          exact, f"V = {fit.visibility!r}, T = {fit.period!r}")

    rng = np.random.default_rng(108)
    estimates, sigmas = [], []
    for _ in range(100):
        mu = 120.0 * (1 + 0.957 * np.cos(2 * np.pi * controls / 352e-9 + 0.4)) + 66.5
        raw = rng.poisson(mu)
        pts = [FringePoint(float(x), int(r), 66.5, float(r - 66.5))
               for x, r in zip(controls, raw)]
        f = fit_fringe(pts, period_hint=352e-9)
        estimates.append(f.visibility)
        sigmas.append(f.visibility_sigma)
    bias = float(np.mean(estimates)) - 0.957
    bound = 3 * float(np.mean(sigmas)) / math.sqrt(100)
    check("8b visibility estimator bias below 3 sigma / sqrt(100) over 100 replicates",
          abs(bias) <= bound, f"bias = {bias:+.4f}, bound = {bound:.4f}")

import math
import threading
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from conftest import clean_config, side_times
from fransim import analysis
from fransim.analysis import (
    FringePoint,
    accidental_rate,
    build_histogram,
    chsh_experiment,
    fit_fringe,
    scan_fringe,
    significance_from_visibility,
    window_coincidences,
)
from fransim.config import TphcParams, default_config
from fransim.events import OUTCOMES, EventStream
from fransim.quantum import STANDARD_SETTINGS, UndefinedCorrelationError
from fransim.simulator import emit_event_stream, simulate_settings


def synthetic_points(amp, vis, period, phase, controls, rng=None):
    model = amp * (1.0 + vis * np.cos(2 * np.pi * controls / period + phase))
    points = []
    for x, mu in zip(controls, model):
        raw = rng.poisson(mu) if rng is not None else mu
        points.append(FringePoint(control=float(x), raw_coincidences=int(round(raw)),
                                  accidentals=0.0, net=float(raw)))
    return points


class TestAccidentalRate:
    def test_published_operating_point(self):
        assert accidental_rate(250e3, 380e3, 350e-12) == pytest.approx(33.25)

    def test_zero_singles(self):
        assert accidental_rate(0.0, 1e6, 1e-9) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            accidental_rate(-1.0, 1.0, 1e-9)


class TestSignificance:
    def test_published_values(self):
        assert significance_from_visibility(0.957, 0.0315) == pytest.approx(7.93, abs=0.01)

    def test_boundary_visibility(self):
        assert significance_from_visibility(1 / math.sqrt(2), 0.05) == \
            pytest.approx(0.0, abs=1e-12)

    def test_error_propagation_scale(self):
        # sigma_S = 2*sqrt(2)*sigma_V
        sig = significance_from_visibility(0.957, 0.0315)
        s_sigma = 2 * math.sqrt(2) * 0.0315
        assert s_sigma == pytest.approx(0.0891, abs=1e-4)
        assert sig == pytest.approx((2 * math.sqrt(2) * 0.957 - 2) / s_sigma, abs=1e-12)

    def test_zero_sigma_rejected(self):
        with pytest.raises(ValueError):
            significance_from_visibility(0.9, 0.0)


class TestHistogram:
    def test_empty_stream(self):
        empty = np.empty(0, dtype=np.int64)
        stream = EventStream.from_ports(1.0, empty, empty, empty, empty)
        hist = build_histogram(stream, 50e-12, 1.5e-9)
        assert hist.total == 0

    def test_three_peak_structure(self):
        cfg = clean_config(pair_rate=3e5, visibility=0.957, seed=21)
        stream = emit_event_stream(cfg, 0.3, 0.1, 1.0, cfg.seed)
        hist = build_histogram(stream, 50e-12, 1.5e-9)
        centers = hist.bin_centers
        n = hist.total

        def area(peak):
            return hist.counts[np.abs(centers - peak) < 0.3e-9].sum()

        left, mid, right = area(-0.7e-9), area(0.0), area(0.7e-9)
        assert abs(mid - n / 2) < 5 * math.sqrt(n / 2)
        assert abs(left - n / 4) < 5 * math.sqrt(n / 4)
        assert abs(right - n / 4) < 5 * math.sqrt(n / 4)

    def test_central_peak_width_tracks_stop_jitter(self):
        cfg = clean_config(pair_rate=3e5, jitter_stop=200e-12, seed=22)
        stream = emit_event_stream(cfg, 0.0, 0.0, 1.0, cfg.seed)
        hist = build_histogram(stream, 10e-12, 0.35e-9)
        counts = hist.counts.astype(float)
        half = counts.max() / 2
        above = hist.bin_centers[counts >= half]
        fwhm = above.max() - above.min() + hist.bin_width
        assert fwhm == pytest.approx(200e-12, rel=0.08)

    def test_invalid_bin_width(self):
        empty = np.empty(0, dtype=np.int64)
        with pytest.raises(ValueError):
            build_histogram(EventStream.from_ports(1.0, empty, empty, empty, empty), 0.0, 1e-9)

    def test_bin_width_rounding_to_zero_ps_rejected(self):
        empty = np.empty(0, dtype=np.int64)
        with pytest.raises(ValueError, match="1 ps"):
            build_histogram(EventStream.from_ports(1.0, empty, empty, empty, empty), 0.4e-12, 1e-9)

    def test_range_rounding_below_zero_ps_rejected(self):
        # -2 ns made one empty bin with its origin at +2 ns; -0.4 ps rounds to 0 ps.
        empty = np.empty(0, dtype=np.int64)
        stream = EventStream.from_ports(1.0, empty, empty, empty, empty)
        with pytest.raises(ValueError, match="range_"):
            build_histogram(stream, 50e-12, -2e-9)
        assert len(build_histogram(stream, 50e-12, -0.4e-12).counts) == 1

    def test_integer_ps_bin_count_and_closed_edges(self):
        # 2 * 2 ns / 20 ps is 200.00000000000003 in floating point, but 200 bins.
        empty = np.empty(0, dtype=np.int64)
        stream = EventStream.from_ports(1.0, np.array([0, 10_000], np.int64), empty,
                                        np.array([-2000, 2000, 11_999], np.int64), empty)
        hist = build_histogram(stream, 20e-12, 2e-9)
        assert len(hist.counts) == 200
        # dt = -2000 opens the first bin; dt = +2000 and +1999 fall in the last.
        assert (hist.counts[0], hist.counts[-1], hist.total) == (1, 2, 3)

    def test_fifty_ps_bins_over_two_ns_count_every_pair(self):
        cfg = clean_config(pair_rate=1e5, jitter_stop=200e-12, dark_stop=2e4, seed=24)
        stream = emit_event_stream(cfg, 0.0, 0.0, 1.0, cfg.seed)
        hist = build_histogram(stream, 50e-12, 2e-9)
        starts, stops = side_times(stream, "start"), side_times(stream, "stop")
        pairs = (np.searchsorted(stops, starts + 2000, side="right")
                 - np.searchsorted(stops, starts - 2000, side="left")).sum()
        assert len(hist.counts) == 80
        assert hist.total == pairs


class TestWindowing:
    def test_zero_width_window(self):
        cfg = clean_config(pair_rate=5e4, seed=23)
        stream = emit_event_stream(cfg, 0.0, 0.0, 1.0, cfg.seed)
        summary = window_coincidences(stream, TphcParams(window_width=0.0))
        assert all(c == 0 for c in summary.coincidences.values())


class TestFitFringe:
    def test_noiseless_recovery(self):
        controls = np.linspace(0, 600e-9, 25)
        points = synthetic_points(100.0, 0.8, 352e-9, 0.7, controls)
        fit = fit_fringe(points, period_hint=352e-9)
        assert fit.mean_level == pytest.approx(100.0, rel=1e-6)
        assert fit.visibility == pytest.approx(0.8, rel=1e-6)
        assert fit.period == pytest.approx(352e-9, rel=1e-6)
        assert fit.phase0 == pytest.approx(0.7, rel=1e-6)

    def test_degenerate_points_give_flat_fit(self):
        points = [FringePoint(float(i), 50, 0.0, 50.0) for i in range(8)]
        fit = fit_fringe(points, period_hint=352e-9)
        assert fit.visibility == 0.0
        assert fit.mean_level == pytest.approx(50.0)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_fringe([FringePoint(0.0, 1, 0.0, 1.0)] * 4, period_hint=352e-9)

    def test_a_scan_shorter_than_half_a_period_is_not_resolved(self):
        # 9 points over 1e-7 of a 2 pi fringe lie on a parabola, which a
        # huge level and V = 1 fit as well as any other.
        rng = np.random.default_rng(3)
        points = synthetic_points(60.0, 0.957, 2 * math.pi, 0.3, np.linspace(0, 6e-7, 9), rng)
        with pytest.raises(analysis.FitError, match=r"scan spans 6e-07, .* of the fitted period"):
            fit_fringe(points, period_hint=2 * math.pi)

    def test_solver_marks_a_parameter_the_data_do_not_fix(self):
        # Only a + b enters the model: its covariance is unbounded.
        x, y = np.linspace(0, 1, 6), np.full(6, 3.0)
        popt, pcov = analysis.curve_fit(lambda x, a, b: np.full_like(x, a + b), x, y,
                                        p0=[1.0, 1.0], sigma=np.ones(6),
                                        jac=lambda x, a, b: np.ones((len(x), 2)))
        assert popt.sum() == pytest.approx(3.0) and np.isinf(pcov).all()

    def test_poisson_replicates_are_unbiased(self):
        rng = np.random.default_rng(24)
        controls = np.linspace(0, 600e-9, 25)
        estimates, sigmas = [], []
        for _ in range(30):
            points = synthetic_points(120.0, 0.957, 352e-9, 0.4, controls, rng)
            fit = fit_fringe(points, period_hint=352e-9)
            estimates.append(fit.visibility)
            sigmas.append(fit.visibility_sigma)
        bias = np.mean(estimates) - 0.957
        assert abs(bias) < 3 * np.mean(sigmas) / math.sqrt(30)

    def test_coverage_at_the_reproduction_point(self):
        # 25-point scans at the reproduce-paper operating point: 112.6 net and
        # 66.6 accidental counts per point, Poisson raw counts, random phase.
        controls = np.linspace(0, 600e-9, 25)
        period, acc = 352e-9, 66.6
        rng = np.random.default_rng(29)
        z = []
        for _ in range(1000):
            phase = rng.uniform(0, 2 * math.pi)
            raw = rng.poisson(112.6 * (1 + 0.957 * np.cos(2 * np.pi * controls / period + phase))
                              + acc)
            fit = fit_fringe([FringePoint(float(x), int(r), acc, r - acc)
                              for x, r in zip(controls, raw)], period_hint=period)
            z.append(abs(fit.visibility - 0.957) / fit.visibility_sigma)
        z = np.array(z)
        assert 0.65 <= np.mean(z <= 1) <= 0.71
        assert np.mean(z <= 3) >= 0.99

    @pytest.mark.parametrize("field", ["net", "control"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("period_hint", [352e-9])
    def test_non_finite_input_is_rejected(self, field, bad, period_hint, capfd):
        points = synthetic_points(100.0, 0.8, 352e-9, 0.7, np.linspace(0, 600e-9, 25))
        points[3] = replace(points[3], **{field: bad})
        with pytest.raises(ValueError, match=f"point 3 has .*{field} {bad}"):
            fit_fringe(points, period_hint=period_hint)
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("arg", ["x", "y", "sigma", "p0"])
    def test_solver_rejects_non_finite_arrays(self, arg):
        args = {"x": np.linspace(0, 600e-9, 25), "p0": np.array([100.0, 0.8, 0.7, 352e-9])}
        args["y"] = analysis._sine(args["x"], *args["p0"])
        args["sigma"] = np.sqrt(args["y"])
        args[arg] = np.where(np.arange(args[arg].size) == 2, math.nan, args[arg])
        with pytest.raises(ValueError, match="infs or NaNs"):
            analysis.curve_fit(analysis._sine, jac=analysis._sine_jac, **args)

    def test_solver_starting_at_the_optimum_converges(self):
        # Data computed in another order than _sine: the residuals are rounding,
        # so no step can lower the cost and none is needed.
        x = np.linspace(0, 600e-9, 25)
        rng = np.random.default_rng(8)
        for _ in range(20):
            p = (rng.uniform(20, 500), rng.uniform(0.05, 1), rng.uniform(-3, 3),
                 rng.uniform(200e-9, 900e-9))
            y = p[0] + p[0] * p[1] * np.cos(p[2] + x * (2.0 * np.pi / p[3]))
            popt, pcov = analysis.curve_fit(analysis._sine, x, y, p0=p, sigma=np.sqrt(y),
                                            jac=analysis._sine_jac)
            np.testing.assert_allclose(popt, p, rtol=1e-12)
            assert np.all(np.isfinite(pcov)) and np.all(np.diag(pcov) > 0)

    def test_solver_restarted_at_its_solution_stays_there(self):
        # At a noisy minimum the last Gauss-Newton gain is below the rounding
        # of the cost, so a trial step may fail to lower it: that is converged.
        x = np.linspace(0, 600e-9, 25)
        rng = np.random.default_rng(9)
        for _ in range(100):
            p = (2e4, 0.957, rng.uniform(-math.pi, math.pi), 352e-9)
            y = rng.poisson(analysis._sine(x, *p))
            sigma = np.sqrt(np.maximum(y, 1.0))
            popt, pcov = analysis.curve_fit(analysis._sine, x, y, p0=p, sigma=sigma,
                                            jac=analysis._sine_jac)
            again, _ = analysis.curve_fit(analysis._sine, x, y, p0=popt, sigma=sigma,
                                          jac=analysis._sine_jac)
            assert np.all(np.abs(again - popt) <= 1e-3 * np.sqrt(np.diag(pcov)))

    def test_no_descent_direction_raises_fit_error(self, monkeypatch):
        # The model is finite only at the seed: no trial step lowers the cost.
        sine, seen = analysis._sine, []

        def finite_at_seed_only(x, *p):
            seen.append(p)
            return sine(x, *p) if p == seen[0] else np.full_like(x, np.inf)

        monkeypatch.setattr(analysis, "_sine", finite_at_seed_only)
        rng = np.random.default_rng(3)
        points = synthetic_points(120.0, 0.9, 352e-9, 0.4, np.linspace(0, 600e-9, 25), rng)
        with pytest.raises(analysis.FitError, match="no step lowers the cost"):
            fit_fringe(points, period_hint=352e-9)

    def test_agrees_with_scipy_curve_fit(self, monkeypatch):
        # The reference is the scipy call fit_fringe made before it had its own
        # solver: MINPACK with a forward-difference Jacobian.
        from scipy.optimize import curve_fit as scipy_curve_fit

        def reference(f, x, y, p0, sigma, jac):
            return scipy_curve_fit(f, x, y, p0=p0, sigma=sigma, absolute_sigma=True,
                                   maxfev=20000)

        controls = np.linspace(0, 600e-9, 25)
        period, acc = 352e-9, 66.6
        rng = np.random.default_rng(31)
        for _ in range(240):
            phase = rng.uniform(0, 2 * math.pi)
            raw = rng.poisson(112.6 * (1 + 0.957 * np.cos(2 * np.pi * controls / period + phase))
                              + acc)
            points = [FringePoint(float(x), int(r), acc, r - acc) for x, r in zip(controls, raw)]
            ours = fit_fringe(points, period_hint=period)
            with monkeypatch.context() as m:
                m.setattr(analysis, "curve_fit", reference)
                theirs = fit_fringe(points, period_hint=period)
            assert ours.visibility == pytest.approx(theirs.visibility, abs=1e-6)
            assert ours.visibility_sigma == pytest.approx(theirs.visibility_sigma, rel=1e-4)


class TestScanFringe:
    def test_invalid_axis(self):
        with pytest.raises(ValueError):
            scan_fringe(default_config(), "mirror3", np.linspace(0, 1e-6, 9), 1.0)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            scan_fringe(default_config(), "mirror1", [0.0, 1e-9], 1.0)

    @pytest.mark.parametrize("axis", ["mirror1", "phase2"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_point_is_rejected(self, axis, bad, capfd):
        points = [0.0, 1e-7, bad, 3e-7, 4e-7]
        with pytest.raises(ValueError, match=f"scan points must be finite, got {bad}"):
            scan_fringe(clean_config(), axis, points, 1.0)
        assert capfd.readouterr().err == ""

    def test_zero_visibility_scan_is_flat(self):
        cfg = clean_config(pair_rate=5e4, visibility=0.0, seed=25)
        controls = np.linspace(0, 600e-9, 15)
        points = scan_fringe(cfg, "mirror1", controls, 1.0)
        fit = fit_fringe(points, period_hint=cfg.wavelength1 / 2)
        assert abs(fit.visibility) < 3 * fit.visibility_sigma + 0.02

    def test_phase_scan_recovers_visibility(self):
        cfg = clean_config(pair_rate=2e5, visibility=0.8, seed=26)
        controls = np.linspace(0, 2 * math.pi, 16, endpoint=False)
        points = scan_fringe(cfg, "phase2", controls, 1.0)
        fit = fit_fringe(points, period_hint=2 * math.pi)
        assert abs(fit.visibility - 0.8) < 4 * fit.visibility_sigma

    def test_wide_window_halves_visibility(self):
        # Accepting all three peaks restores the 50 % visibility ceiling.
        cfg = clean_config(pair_rate=2e5, visibility=0.9, seed=27)
        controls = np.linspace(0, 2 * math.pi, 16, endpoint=False)
        wide = TphcParams(window_width=2.2 * cfg.analyzer1.path_delay)
        points = []
        for k, d2 in enumerate(controls):
            stream = emit_event_stream(cfg, 0.0, float(d2), 0.5, cfg.seed + k)
            with pytest.warns(UserWarning):
                summary = window_coincidences(stream, wide,
                                              path_delay=cfg.analyzer1.path_delay)
            raw = summary.coincidences[(1, 1)]
            points.append(FringePoint(float(d2), raw, 0.0, float(raw)))
        fit = fit_fringe(points, period_hint=2 * math.pi)
        assert abs(fit.visibility - 0.45) < 4 * fit.visibility_sigma

    def test_a_scan_starts_at_most_two_threads(self):
        # 25 settings of two slices each, counted on the calling thread: no
        # thread per setting.
        cfg = clean_config(pair_rate=2e3, seed=40)
        real_start, started = threading.Thread.start, []

        def counting(thread):
            started.append(thread.name)
            return real_start(thread)

        with mock.patch.object(threading.Thread, "start", autospec=True, side_effect=counting):
            points = scan_fringe(cfg, "phase2", np.linspace(0, 2 * np.pi, 25), 1.5)
        assert len(points) == 25 and len(started) <= 2, started

    def test_shift_invariance_of_fitted_visibility(self):
        cfg = clean_config(pair_rate=2e5, visibility=0.8, seed=28)
        controls = np.linspace(0, 2 * math.pi, 16, endpoint=False)
        fit_a = fit_fringe(scan_fringe(cfg, "phase2", controls, 1.0),
                           period_hint=2 * math.pi)
        fit_b = fit_fringe(scan_fringe(cfg, "phase2", controls + 1.3, 1.0),
                           period_hint=2 * math.pi)
        err = math.hypot(fit_a.visibility_sigma, fit_b.visibility_sigma)
        assert abs(fit_a.visibility - fit_b.visibility) < 4 * err


class TestChshExperiment:
    def test_ideal_limit(self):
        cfg = clean_config(pair_rate=2e5, visibility=1.0, seed=30)
        report = chsh_experiment(cfg, STANDARD_SETTINGS, 2.0)
        assert abs(report.s - 2 * math.sqrt(2)) < 5 * report.s_sigma
        assert report.violating

    def test_published_visibility_scale(self):
        cfg = clean_config(pair_rate=2e5, visibility=0.957, seed=31)
        report = chsh_experiment(cfg, STANDARD_SETTINGS, 2.0)
        assert abs(report.s - 2.707) < 5 * report.s_sigma
        assert report.single_port_s == pytest.approx(report.s, abs=10 * report.s_sigma)

    def test_lhv_sampler_respects_bound(self):
        for seed in range(5):
            cfg = clean_config(pair_rate=2e5, visibility=1.0, seed=seed)
            report = chsh_experiment(cfg, STANDARD_SETTINGS, 1.0, law="lhv")
            assert report.s <= 2.0 + 5 * report.s_sigma
            assert report.sampler == "lhv"

    def test_empty_counts_error(self):
        cfg = clean_config(pair_rate=0.0, seed=32)
        for law in ("quantum", "lhv"):
            with pytest.raises(UndefinedCorrelationError):
                chsh_experiment(cfg, STANDARD_SETTINGS, 1.0, law=law)

    def test_accidentals_above_a_raw_count_give_a_finite_correlation(self):
        # Net counts of an `lhv` run at 20 MHz stop dark rate: one is negative.
        accidentals = 40.3
        net = dict(zip(OUTCOMES, (52.7, -18.3, 16.7, 49.7)))
        raw = {key: n + accidentals for key, n in net.items()}
        e, sigma = analysis._counts_to_correlation(net, raw)
        assert e == pytest.approx((52.7 + 18.3 - 16.7 + 49.7) / 100.8)
        assert math.isfinite(sigma) and sigma > 0

    @pytest.mark.parametrize("s, s_sigma, violating", [
        (2.57, 1.45, False),  # the `lhv` run above: S = 2.57 +- 1.45, 0.39 sigma over 2
        (2.7, 0.25, False),   # 2.8 sigma
        (2.75, 0.25, True),   # exactly VIOLATION_SIGMAS
        (2.828, 0.098, True),
        (1.9, 0.01, False),
    ])
    def test_violating_needs_the_stated_significance(self, s, s_sigma, violating):
        report = analysis.ChshReport(settings=STANDARD_SETTINGS, correlations=[0.0] * 4,
                                     correlation_sigmas=[s_sigma / 2] * 4, s=s,
                                     s_sigma=s_sigma, significance=(s - 2.0) / s_sigma,
                                     sampler="lhv")
        assert analysis.VIOLATION_SIGMAS == 3
        assert report.violating is violating
        text = analysis.chsh_report_text(report)
        assert f"violating = {violating}\n" in text
        assert f"significance = {report.significance}\n" in text

    def test_unknown_law_is_rejected(self):
        with pytest.raises(ValueError, match="unknown pair law 'local'"):
            chsh_experiment(clean_config(), STANDARD_SETTINGS, 1.0, law="local")

    def test_sigma_shrinks_with_dwell(self):
        cfg = clean_config(pair_rate=2e4, visibility=0.9, seed=33)
        dwells = [1.0, 4.0, 16.0, 64.0]
        sigmas = [chsh_experiment(cfg, STANDARD_SETTINGS, d).s_sigma for d in dwells]
        slope = np.polyfit(np.log(dwells), np.log(sigmas), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.05)

    def test_accidental_subtraction_is_unbiased(self):
        cfg = clean_config(pair_rate=5e4, visibility=0.0,
                           dark_start=2e4, dark_stop=3e4, seed=34)
        rates = []
        for seed in range(8):
            s = analysis.simulate_setting(cfg, 0.0, 0.0, 4.0, seed)
            rates.append((s.coincidences[(1, 1)] - s.accidental_estimate) / s.duration)
        # True windowed (+,+) rate: half the detected pairs land centrally,
        # a quarter of those on (+,+).
        true_rate = cfg.source.pair_rate / 8
        mean = np.mean(rates)
        sem = np.std(rates, ddof=1) / math.sqrt(len(rates))
        assert abs(mean - true_rate) < 3 * sem

    @pytest.mark.parametrize("law", ["quantum", "lhv"])
    def test_counts_equal_each_setting_at_its_seed(self, monkeypatch, law):
        # 1.5 s settings: the keys of one setting must not reach into the next.
        cfg = clean_config(pair_rate=3e4, dark_start=2e3, dark_stop=3e3,
                           jitter_stop=200e-12, seed=21)
        got = []

        def recording(*args, **kwargs):
            got.extend(simulate_settings(*args, **kwargs))
            return got

        monkeypatch.setattr(analysis, "simulate_settings", recording)
        report = chsh_experiment(cfg, STANDARD_SETTINGS, 1.5, law=law)
        expected = [simulate_settings(cfg, [(d1, d2, analysis._point_seed(cfg.seed, 1000 + k))],
                                      1.5, law=law)[0]
                    for k, (d1, d2) in enumerate(STANDARD_SETTINGS.pairs())]
        assert got == expected
        for e, summary in zip(report.correlations, expected):
            net = {key: summary.coincidences[key] - summary.accidental_estimate
                   for key in OUTCOMES}
            assert e == analysis._counts_to_correlation(net, summary.coincidences)[0]

    def test_quantum_sampler_significance_is_positive(self):
        cfg = clean_config(pair_rate=1e5, visibility=0.957)
        wins = 0
        for seed in range(10):
            report = chsh_experiment(replace(cfg, seed=seed), STANDARD_SETTINGS, 1.0)
            wins += report.significance > 0
        assert wins >= 10 * 0.99 - 1e-9


class TestSerialization:
    def test_fringe_csv_contains_provenance_and_data(self):
        cfg = clean_config(pair_rate=5e4, seed=35)
        points = [FringePoint(0.0, 10, 1.0, 9.0), FringePoint(1.0, 12, 1.0, 11.0)]
        text = analysis.fringe_csv(points, cfg, dwell=2.0)
        assert "# fransim" in text
        assert "# config_hash" in text
        assert f"# seed = {cfg.seed}" in text
        assert "control,raw,accidentals,net" in text
        assert text.strip().endswith("1.0,12,1.0,11.0")

    def test_chsh_report_text_and_json(self):
        report = chsh_experiment(clean_config(pair_rate=5e4, seed=3), STANDARD_SETTINGS,
                                 0.5, law="lhv")
        text = analysis.chsh_report_text(report)
        assert "s = " in text and "sampler = lhv" in text
        assert not report.violating and "violating = False\n" in text
        assert f"significance = {report.significance}\n" in text  # the number, always
        payload = analysis.chsh_report_json(report)
        assert '"s"' in payload

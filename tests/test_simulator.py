import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import clean_config
from fransim import simulator
from fransim.config import ConfigError, DetectorParams, TphcParams, loads_config
from fransim.events import (
    CH_START_PLUS,
    CH_STOP_PLUS,
    PS,
    RECORD_DTYPE,
    EventStream,
    window_coincidences,
)
from fransim.quantum import coincidence_probability
from fransim.simulator import (
    SLICE_PS,
    _sample_branches_outcomes,
    apply_jitter,
    emit_event_stream,
    fwhm_to_sigma,
    generate_dark_counts,
    simulate_setting,
)

CENTRAL = 0  # branch code of _sample_branches_outcomes; 1 and 2 are the side peaks
PORTS = ("start_plus", "start_minus", "stop_plus", "stop_minus")


class TestSamplePairBranch:
    """The per-pair branch and outcome law, drawn by the vectorized sampler."""

    def test_perfect_visibility_forbids_anticorrelated_central(self):
        branch, i, j = _sample_branches_outcomes(0.3, -0.3, 1.0, 5000,
                                                 np.random.default_rng(0))
        central = branch == CENTRAL
        assert central.any()
        np.testing.assert_array_equal(i[central], j[central])

    def test_zero_visibility_is_uniform_within_branches(self):
        n = 200_000
        branch, i, j = _sample_branches_outcomes(1.1, 0.4, 0.0, n,
                                                 np.random.default_rng(1))
        for b in (0, 1, 2):
            p = 0.125 if b == CENTRAL else 0.0625
            for si in (1, -1):
                for sj in (1, -1):
                    se = math.sqrt(p * (1 - p) / n)
                    hits = np.count_nonzero((branch == b) & (i == si) & (j == sj))
                    assert abs(hits / n - p) < 5 * se

    def test_central_cell_frequency_matches_closed_form(self):
        d1, d2, vis = math.pi / 4, 0.0, 0.957
        n = 1_000_000
        branch, i, j = _sample_branches_outcomes(d1, d2, vis, n,
                                                 np.random.default_rng(2))
        hits = np.count_nonzero((branch == CENTRAL) & (i == 1) & (j == 1))
        expected = coincidence_probability(1, 1, d1, d2, vis)
        assert abs(hits / n - expected) < 0.0013  # 3 sigma band


class TestApplyJitter:
    def test_zero_fwhm_is_identity(self):
        det = DetectorParams(efficiency=1.0, jitter_fwhm=0.0)
        t = np.array([1.0, 2.0])
        assert apply_jitter(t, det, np.random.default_rng(0)) is t

    def test_sample_sigma(self):
        det = DetectorParams(efficiency=1.0, jitter_fwhm=200e-12)
        rng = np.random.default_rng(3)
        out = apply_jitter(np.zeros(1_000_000), det, rng)
        assert np.std(out) == pytest.approx(fwhm_to_sigma(200e-12), rel=0.01)
        assert fwhm_to_sigma(200e-12) == pytest.approx(84.93e-12, rel=1e-3)

    def test_histogram_fwhm(self):
        det = DetectorParams(efficiency=1.0, jitter_fwhm=200e-12)
        rng = np.random.default_rng(4)
        out = apply_jitter(np.zeros(1_000_000), det, rng)
        counts, edges = np.histogram(out, bins=400, range=(-500e-12, 500e-12))
        half = counts.max() / 2
        above = edges[:-1][counts >= half]
        fwhm = above.max() - above.min() + (edges[1] - edges[0])
        assert fwhm == pytest.approx(200e-12, rel=0.03)


class TestDarkCounts:
    def test_zero_rate(self):
        assert len(generate_dark_counts(0.0, 10.0, np.random.default_rng(0))) == 0

    def test_count_statistics(self):
        n = len(generate_dark_counts(180e3, 2.0, np.random.default_rng(5)))
        assert abs(n - 360_000) < 3 * math.sqrt(360_000)

    def test_interarrival_times_are_exponential(self):
        times = generate_dark_counts(5e4, 10.0, np.random.default_rng(6))
        gaps = np.diff(times)
        _, p = stats.kstest(gaps, "expon", args=(0, 1 / 5e4))
        assert p > 0.01


class TestSimulateSetting:
    def test_ideal_correlated_setting(self):
        cfg = clean_config(pair_rate=2e5, visibility=1.0, seed=10)
        stream = emit_event_stream(cfg, 0.0, 0.0, 1.0, cfg.seed)
        s = window_coincidences(stream, cfg.tphc)
        n_pairs = len(stream.start_plus) + len(stream.start_minus)
        # Anticorrelated ports only via accidental overlaps between pairs.
        acc = (n_pairs / 2) ** 2 * cfg.tphc.window_width
        assert s.coincidences[(1, -1)] <= acc + 5 * math.sqrt(acc)
        assert s.coincidences[(-1, 1)] <= acc + 5 * math.sqrt(acc)
        for k in ((1, 1), (-1, -1)):
            assert abs(s.coincidences[k] - n_pairs / 4) < 5 * math.sqrt(n_pairs / 4)

    def test_determinism_and_seed_sensitivity(self):
        cfg = clean_config(pair_rate=5e4, dark_stop=1e3, jitter_stop=200e-12)
        a = simulate_setting(cfg, 0.5, 0.1, 1.5, 42)
        b = simulate_setting(cfg, 0.5, 0.1, 1.5, 42)
        c = simulate_setting(cfg, 0.5, 0.1, 1.5, 43)
        assert a == b
        assert a != c

    def test_invalid_duration(self):
        with pytest.raises(ValueError):
            simulate_setting(clean_config(), 0, 0, 0.0, 1)

    def test_branch_weights(self):
        cfg = clean_config(pair_rate=1e6, visibility=0.5, seed=11)
        stream = emit_event_stream(cfg, 0.9, 0.2, 1.0, cfg.seed)
        summary = window_coincidences(stream, cfg.tphc)
        n_pairs = len(stream.start_plus) + len(stream.start_minus)
        central = sum(summary.coincidences.values())
        se = math.sqrt(0.25 * n_pairs)
        assert abs(central - n_pairs / 2) < 5 * se

    def test_dark_only_coincidences_match_accidental_product(self):
        cfg = clean_config(pair_rate=0.0, dark_start=4e4, dark_stop=6e4, seed=12)
        s = simulate_setting(cfg, 0.0, 0.0, 30.0, cfg.seed)
        r1 = s.singles_start / s.duration
        r2 = s.singles_stop / s.duration
        expected = r1 * r2 * cfg.tphc.window_width * s.duration
        got = s.coincidences[(1, 1)]
        assert abs(got - expected) < 5 * math.sqrt(expected)


def _lossy(cfg):
    """``cfg`` with loss on both sides, so all three thinned streams are populated."""
    return replace(cfg, source=replace(cfg.source, arm1_transmission=0.5, arm2_transmission=0.8),
                   detector_stop=replace(cfg.detector_stop, efficiency=0.5))


class TestLossyThinning:
    """Loss on both sides, where all three thinned pair streams are populated."""

    def test_singles_and_peaks_match_closed_forms(self):
        cfg = _lossy(clean_config(pair_rate=2e5, seed=17))
        eta1, eta2, T, d1, d2 = 0.5, 0.4, 3.0, 0.7, 0.2
        split = cfg.source.pair_rate * cfg.source.split_efficiency
        stream = emit_event_stream(cfg, d1, d2, T, cfg.seed)
        port_rate = {"start": split * eta1 / 2, "stop": split * eta2 / 2}
        for side in ("start", "stop"):
            for sign in (1, -1):
                expected = port_rate[side] * T
                got = len(stream.port(side, sign))
                assert abs(got - expected) < 5 * math.sqrt(expected), (side, sign)

        # Accidentals over the closed window's 351 grid points, per port pairing.
        acc = port_rate["start"] * port_rate["stop"] * 351 * 1e-12 * T
        both = split * eta1 * eta2 * T
        central = window_coincidences(stream, cfg.tphc).coincidences
        for i, j in central:
            expected = both * coincidence_probability(i, j, d1, d2, cfg.visibility) + acc
            assert abs(central[(i, j)] - expected) < 5 * math.sqrt(expected), (i, j)
        delay = cfg.analyzer1.path_delay
        for offset in (delay, -delay):
            tphc = replace(cfg.tphc, center_offset=offset)
            side = sum(window_coincidences(stream, tphc).coincidences.values())
            expected = both / 4 + 4 * acc
            assert abs(side - expected) < 5 * math.sqrt(expected), offset


class TestEventStream:
    def test_empty_duration_rejected(self):
        with pytest.raises(ValueError):
            emit_event_stream(clean_config(), 0, 0, 0, 1)

    def test_stream_reproduces_summary(self):
        cfg = clean_config(pair_rate=2e4, dark_start=500.0, dark_stop=2e3,
                           jitter_stop=200e-12)
        jittery = replace(cfg, detector_start=replace(cfg.detector_start, jitter_fwhm=150e-12))
        # Every variant keeps the default 0.7 ns path delay of clean_config.
        variants = [(cfg, 1.2), (cfg, 3.7), (jittery, 3.7), (_lossy(cfg), 3.7)]
        variants += [(replace(jittery, tphc=replace(cfg.tphc, center_offset=offset)), 2.5)
                     for offset in (130e-12, -130e-12)]
        for config, duration in variants:
            for seed in range(1, 11):
                stream = emit_event_stream(config, 0.4, -0.1, duration, seed)
                assert window_coincidences(stream, config.tphc) == \
                    simulate_setting(config, 0.4, -0.1, duration, seed), (config, duration)

    def test_spans_concatenate_to_the_whole_run(self):
        cfg = _lossy(clean_config(pair_rate=5e4, dark_start=1e3, dark_stop=2e3,
                                  jitter_stop=200e-12))
        whole = emit_event_stream(cfg, 0.3, 0.2, 3.7, 7)
        spans = [emit_event_stream(cfg, 0.3, 0.2, duration, 7, start=start)
                 for start, duration in ((0.0, 1.0), (1.0, 2.0), (3.0, 3.7 - 3.0))]
        for port in PORTS:
            joined = np.sort(np.concatenate([getattr(span, port) for span in spans]))
            np.testing.assert_array_equal(joined, getattr(whole, port))

    @pytest.mark.parametrize("start", [0.5, -1.0, float("nan")])
    def test_start_off_a_slice_boundary_rejected(self, start):
        with pytest.raises(ValueError, match="whole number"):
            emit_event_stream(clean_config(), 0, 0, 1.0, 1, start=start)

    def test_integer_time_base_keeps_picoseconds_late_in_a_run(self):
        # 2**20 s (~12 days) in: float64 seconds there are spaced 2**-32 s ~ 233 ps.
        cfg = clean_config(pair_rate=0.0, dark_start=1e6)
        stream = emit_event_stream(cfg, 0.0, 0.0, 1.0, 3, start=2**20)
        times = np.sort(np.concatenate([stream.start_plus, stream.start_minus]))
        assert times[0] >= 2**20 * 10**12 and times[-1] < (2**20 + 1) * 10**12
        gaps = np.diff(times)
        assert gaps[gaps > 0].min() <= 5

    def test_records_sorted_and_distinct(self):
        cfg = clean_config(pair_rate=5e4, jitter_stop=200e-12, seed=13)
        records = emit_event_stream(cfg, 0.2, 0.3, 1.0, cfg.seed).to_records()
        assert np.all(np.diff(records["time_ps"].astype(np.int64)) >= 0)
        keys = records["channel"].astype(np.uint64) << 60 | records["time_ps"]
        assert len(np.unique(keys)) == len(keys)

    def test_truncated_file_is_rejected(self, tmp_path):
        times = np.arange(3, dtype=np.int64) * 1000
        stream = EventStream(1.0, times, times + 1, times + 2, times + 3)  # 12 records
        path = tmp_path / "events.frsn"
        stream.write(path)
        assert path.stat().st_size == 5 + 9 * 12
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ValueError, match="events.frsn: truncated"):
            EventStream.read(path, duration=1.0)

    def test_unknown_channel_byte_is_rejected(self):
        records = np.zeros(3, dtype=RECORD_DTYPE)
        records["channel"] = [CH_START_PLUS, 7, CH_STOP_PLUS]
        with pytest.raises(ValueError, match="unknown channel byte 7"):
            EventStream.from_records(records, duration=1.0)

    def test_negative_time_round_trips(self, tmp_path):
        # Jitter near t = 0 can put a detection before the run starts.
        stream = EventStream(1.0, np.array([0, 40], dtype=np.int64), np.array([], dtype=np.int64),
                             np.array([-3, 12], dtype=np.int64), np.array([5], dtype=np.int64))
        path = tmp_path / "events.frsn"
        stream.write(path)
        back = EventStream.read(path, duration=1.0)
        for port in ("start_plus", "start_minus", "stop_plus", "stop_minus"):
            np.testing.assert_array_equal(getattr(stream, port), getattr(back, port))

    def test_binary_round_trip(self, tmp_path):
        cfg = clean_config(pair_rate=2e4, dark_stop=1e3, seed=14)
        stream = emit_event_stream(cfg, 0.1, 0.2, 1.0, cfg.seed)
        path = tmp_path / "events.frsn"
        stream.write(path)
        assert path.read_bytes()[:5] == b"FRSN\x01"
        back = EventStream.read(path, duration=1.0)
        for port in ("start_plus", "start_minus", "stop_plus", "stop_minus"):
            np.testing.assert_array_equal(getattr(stream, port), getattr(back, port))
        assert window_coincidences(back, cfg.tphc) == window_coincidences(stream, cfg.tphc)


class TestConfigValidationPath:
    def test_dead_time_stub_errors(self):
        # Dead time is not modelled, so the key is as unknown as any other.
        with pytest.raises(ConfigError, match="unknown key 'detector_start.dead_time'"):
            loads_config("detector_start.dead_time = 50 ns\n")

    def test_visibility_outside_unit_interval_rejected(self):
        with pytest.raises(ConfigError, match="visibility"):
            simulate_setting(clean_config(visibility=1.5), 0, 0, 1.0, 1)

    def test_wide_window_rejected_by_config(self):
        cfg = clean_config(window=800e-12)
        with pytest.raises(Exception, match="window_width"):
            simulate_setting(cfg, 0, 0, 1.0, 1)

    def test_wide_window_warns_in_raw_windowing(self):
        cfg = clean_config(pair_rate=1e4, seed=16)
        stream = emit_event_stream(cfg, 0, 0, 1.0, cfg.seed)
        with pytest.warns(UserWarning, match="side peaks"):
            window_coincidences(stream, TphcParams(window_width=1.6e-9),
                                path_delay=0.7e-9)


class TestStreamingSlices:
    """simulate_setting windows each slice as it is made and carries only the
    events near the next boundary; these check that cut and carry."""

    @settings(deadline=None, max_examples=200)
    @given(data=st.data(), n_slices=st.integers(1, 3), half=st.integers(1, 340),
           center=st.integers(-400, 400))
    def test_cut_and_carry_counts_every_pair_once(self, data, n_slices, half, center):
        # Hand-made slices crowd events around each boundary. Like real ones,
        # a slice's starts lie at or past its start and its stops may lead it
        # by a negative center offset (jitter is off, so that is the whole lead).
        tphc = TphcParams(window_width=2 * half * PS, center_offset=center * PS)
        cfg = replace(clean_config(), tphc=tphc)
        offsets = st.lists(st.integers(0, 3000), max_size=5)
        slices = []
        for k in range(n_slices):
            ports = {}
            for name in PORTS:
                floor = k * SLICE_PS + (min(center, 0) if name.startswith("stop") else 0)
                times = [floor + off for off in data.draw(offsets)]
                times += [(k + 1) * SLICE_PS - 1500 + off for off in data.draw(offsets)]
                ports[name] = np.sort(np.array(times, dtype=np.int64))
            slices.append(ports)

        def fake_emit(config, d1, d2, duration, seed, *, start=0.0):
            return EventStream(duration, **slices[int(start)])

        with mock.patch.object(simulator, "emit_event_stream", fake_emit):
            got = simulate_setting(cfg, 0.0, 0.0, float(n_slices), 1)
        whole = EventStream(float(n_slices), **{
            name: np.sort(np.concatenate([ports[name] for ports in slices])) for name in PORTS})
        assert got == window_coincidences(whole, tphc)

    def test_event_before_the_margin_raises(self, monkeypatch):
        real_emit = simulator.emit_event_stream

        def early_emit(config, d1, d2, duration, seed, *, start=0.0):
            stream = real_emit(config, d1, d2, duration, seed, start=start)
            if start == 1.0:  # one start 1 us before the slice opens
                stream.start_plus = np.concatenate([[SLICE_PS - 10**6], stream.start_plus])
            return stream

        monkeypatch.setattr(simulator, "emit_event_stream", early_emit)
        with pytest.raises(RuntimeError, match="slice 1 emitted a start_plus event"):
            simulate_setting(clean_config(pair_rate=1e4), 0.0, 0.0, 2.0, 1)

    def test_memory_is_bounded_by_one_slice(self):
        # The acceptance 1b dark run: with the whole stream built, the peak
        # grew with the duration (about 4x from 2 s to 8 s).
        cfg = clean_config(pair_rate=0.0, dark_start=250e3, dark_stop=380e3, seed=101)
        peaks = []
        for duration in (2.0, 8.0):
            tracemalloc.start()
            try:
                simulate_setting(cfg, 0.0, 0.0, duration, cfg.seed)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 0.15 * peaks[0], peaks

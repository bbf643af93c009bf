import math
import re
import struct
import sys
import threading
import tracemalloc
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import clean_config, stops_moved
from fransim import analysis, events, simulator
from fransim.config import (JITTER_SIGMAS, ConfigError, DetectorParams, TphcParams,
                            loads_config, reproduction_config)
from fransim.events import (
    CH_START_PLUS,
    CH_STOP_PLUS,
    FORMAT_VERSION,
    MAGIC,
    OUTCOMES,
    PACK_LIMIT_PS,
    PS,
    RECORD_DTYPE,
    EventStream,
    pack_keys,
    window_coincidences,
)
from fransim.quantum import PAIR_LAWS, coincidence_probability, correlation_from_rates
from fransim.simulator import (
    SLICE_PS,
    apply_jitter,
    emit_event_stream,
    fwhm_to_sigma,
    generate_dark_counts,
    simulate_setting,
    simulate_settings,
)

PORTS = ("start_plus", "start_minus", "stop_plus", "stop_minus")


def _ps(*times):
    return np.array(times, dtype=np.int64)


def _pair_cells(cfg, d1, d2, seed):
    """The pairs of a 1 s lossless, dark-free, jitter-free stream (one start
    each) and its coincidences per port pairing in the central peak (offset 0)
    and in the side peaks (offsets +-path_delay): the 12 cells of the pair law."""
    stream = emit_event_stream(cfg, d1, d2, 1.0, seed)
    delay = cfg.analyzer1.path_delay
    cells = {offset: window_coincidences(stops_moved(stream, offset), cfg.tphc)
             .coincidences for offset in (0.0, delay, -delay)}
    return len(stream.start_plus) + len(stream.start_minus), cells


def _beyond(sub, keys):
    """The sorted ``keys`` less the sorted ``sub``, which must be a
    sub-multiset of them: the k-th copy of a key in ``sub`` takes out its k-th
    copy in ``keys``."""
    rank = np.arange(len(sub)) - np.searchsorted(sub, sub)
    at = np.searchsorted(keys, sub) + rank
    assert (at < len(keys)).all() and (keys[np.minimum(at, len(keys) - 1)] == sub).all()
    return np.delete(keys, at)


def _correlation(counts):
    """E and its standard error from the four counts of one peak."""
    n = sum(counts.values())
    e = correlation_from_rates(*(counts[outcome] for outcome in OUTCOMES))
    return e, math.sqrt((1 - e * e) / n)


class TestSamplePairBranch:
    """The 16-cell law of pairs detected on both sides, read from emitted streams."""

    def test_perfect_visibility_forbids_anticorrelated_central(self):
        cfg = clean_config(pair_rate=5000, visibility=1.0)
        _, cells = _pair_cells(cfg, 0.3, -0.3, 0)
        central = cells[0.0]
        assert central[(1, 1)] + central[(-1, -1)] > 0
        assert central[(1, -1)] == central[(-1, 1)] == 0
        # The side peaks, through distinguishable arms, do not interfere.
        delay = cfg.analyzer1.path_delay
        for offset in (delay, -delay):
            assert cells[offset][(1, -1)] + cells[offset][(-1, 1)] > 0, offset

    def test_zero_visibility_is_uniform_within_branches(self):
        n, cells = _pair_cells(clean_config(pair_rate=200_000, visibility=0.0), 1.1, 0.4, 1)
        for offset, counts in cells.items():
            p = 0.125 if offset == 0.0 else 0.0625
            for si, sj in OUTCOMES:
                se = math.sqrt(p * (1 - p) / n)
                assert abs(counts[(si, sj)] / n - p) < 5 * se, (offset, si, sj)

    def test_central_cell_frequency_matches_closed_form(self):
        d1, d2, vis = math.pi / 4, 0.0, 0.957
        n, cells = _pair_cells(clean_config(pair_rate=1_000_000, visibility=vis), d1, d2, 2)
        expected = coincidence_probability(1, 1, d1, d2, vis)
        assert abs(cells[0.0][(1, 1)] / n - expected) < 0.0013  # 3 sigma band

    def test_phase_noise_scales_the_central_correlation(self):
        # White phase noise of sigma on each analyzer averages cos(d1 + d2) per
        # pair down by exp(-(sigma1^2 + sigma2^2) / 2); the side peaks stay flat.
        cfg = clean_config(pair_rate=200_000, seed=3)
        noisy = replace(cfg.analyzer1, phase_noise_sigma=0.6)
        cfg = replace(cfg, analyzer1=noisy, analyzer2=noisy)
        d1, d2 = 0.3, 0.2
        _, cells = _pair_cells(cfg, d1, d2, cfg.seed)
        e, se = _correlation(cells[0.0])
        assert abs(e - cfg.visibility * math.exp(-0.36) * math.cos(d1 + d2)) < 5 * se
        delay = cfg.analyzer1.path_delay
        for offset in (delay, -delay):
            e, se = _correlation(cells[offset])
            assert abs(e) < 5 * se, offset


class TestApplyJitter:
    def test_zero_fwhm_is_identity(self):
        det = DetectorParams(efficiency=1.0, jitter_fwhm=0.0)
        t = _ps(1, 2)
        assert apply_jitter(t, det, np.random.default_rng(0)) is t

    def test_sample_sigma(self):
        det = DetectorParams(efficiency=1.0, jitter_fwhm=200e-12)
        rng = np.random.default_rng(3)
        out = apply_jitter(np.zeros(1_000_000, np.int64), det, rng)
        assert out.dtype == np.int64
        assert np.std(out) * PS == pytest.approx(fwhm_to_sigma(200e-12), rel=0.01)
        assert fwhm_to_sigma(200e-12) == pytest.approx(84.93e-12, rel=1e-3)

    def test_histogram_fwhm(self):
        det = DetectorParams(efficiency=1.0, jitter_fwhm=200e-12)
        rng = np.random.default_rng(4)
        out = apply_jitter(np.zeros(1_000_000, np.int64), det, rng)
        # 5 ps bins with half-ps edges hold 5 grid points each.
        counts, edges = np.histogram(out, bins=201, range=(-502.5, 502.5))
        half = counts.max() / 2
        above = edges[:-1][counts >= half]
        fwhm = (above.max() - above.min() + (edges[1] - edges[0])) * PS
        assert fwhm == pytest.approx(200e-12, rel=0.03)


class TestDarkCounts:
    def test_zero_rate(self):
        assert len(generate_dark_counts(0.0, 10.0, np.random.default_rng(0))) == 0

    def test_count_statistics(self):
        n = len(generate_dark_counts(180e3, 2.0, np.random.default_rng(5)))
        assert abs(n - 360_000) < 3 * math.sqrt(360_000)

    def test_interarrival_times_are_exponential(self):
        times = generate_dark_counts(5e4, 10.0, np.random.default_rng(6))
        gaps = np.diff(np.sort(times)) * PS
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
            side = sum(window_coincidences(stops_moved(stream, offset),
                                           cfg.tphc).coincidences.values())
            expected = both / 4 + 4 * acc
            assert abs(side - expected) < 5 * math.sqrt(expected), offset


class TestIntegerPicosecondLaw:
    """Times are drawn on the 1 ps grid and the jitter is rounded to whole ps."""

    def test_dark_times_are_uniform_on_the_slice_grid(self):
        # An 8 ps span at slice 3: every port's darks lie on the 8 grid points
        # [t0, t0 + 8), each with probability 1/8. Rounding uniform float times
        # would instead give 9 points, the two end ones at half weight.
        dur_ps, per_port = 8, 100_000
        rate = per_port / (dur_ps * PS)
        cfg = clean_config(pair_rate=0.0, dark_start=rate, dark_stop=rate)
        stream = emit_event_stream(cfg, 0.0, 0.0, dur_ps * PS, 31, start=3.0)
        t0 = 3 * SLICE_PS
        for port in PORTS:
            local = getattr(stream, port) - t0
            assert local.min() >= 0 and local.max() < dur_ps, port
            n = len(local)
            se = math.sqrt(n * (1 / dur_ps) * (1 - 1 / dur_ps))
            counts = np.bincount(local, minlength=dur_ps)
            assert np.all(np.abs(counts - n / dur_ps) < 5 * se), (port, counts)

    def test_central_window_fraction_matches_the_rounded_jitter_law(self):
        # Lossless and dark-free: every start has its stop, and half the pairs
        # sit in the central peak, at 0, with the jitter of both detectors.
        # sigma = 5 ps each makes the rounding matter: truncating the
        # offsets instead moves the fraction by about 20 SE.
        sigma_ps, half_ps = 5.0, 7
        fwhm = sigma_ps * PS * 2 * math.sqrt(2 * math.log(2))
        cfg = clean_config(pair_rate=1e5, jitter_stop=fwhm, seed=32)
        cfg = replace(cfg, detector_start=replace(cfg.detector_start, jitter_fwhm=fwhm),
                      tphc=TphcParams(window_width=2 * half_ps * PS))
        stream = emit_event_stream(cfg, 0.4, 0.1, 2.0, cfg.seed)
        n_pairs = len(stream.start_plus) + len(stream.start_minus)
        inside = sum(window_coincidences(stream, cfg.tphc).coincidences.values())
        sigma = math.hypot(fwhm_to_sigma(fwhm), fwhm_to_sigma(fwhm))
        p = 0.5 * math.erf((half_ps + 0.5) * PS / (sigma * math.sqrt(2)))
        se = math.sqrt(p * (1 - p) / n_pairs)
        assert abs(inside / n_pairs - p) < 5 * se


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
        for config, duration in variants:
            for seed in range(1, 11):
                stream = emit_event_stream(config, 0.4, -0.1, duration, seed)
                assert window_coincidences(stream, config.tphc) == \
                    simulate_setting(config, 0.4, -0.1, duration, seed), (config, duration)

    def test_a_counting_stream_is_not_a_record(self, tmp_path):
        # A count keeps the + events that pair with no event as numbers: the
        # singles, not a record.
        cfg = reproduction_config()
        record = emit_event_stream(cfg, 0.3, 0.0, 1.0, 4)
        count = emit_event_stream(cfg, 0.3, 0.0, 1.0, 4, count_only=True)
        assert count.unplaced_stop_plus > 300_000 and record.unplaced_stop_plus == 0
        assert count.unplaced_start_plus > 200_000 and record.unplaced_start_plus == 0
        beyond = _beyond(count.keys, record.keys)
        assert np.count_nonzero((beyond & 3) == CH_STOP_PLUS) == count.unplaced_stop_plus
        assert np.count_nonzero((beyond & 3) == CH_START_PLUS) == count.unplaced_start_plus
        assert window_coincidences(count, cfg.tphc) == window_coincidences(record, cfg.tphc)
        starts_only = replace(count, unplaced_stop_plus=0)
        for write in (count.to_records, lambda: count.write(tmp_path / "x.frsn"),
                      starts_only.to_records, lambda: starts_only.write(tmp_path / "y.frsn"),
                      lambda: stops_moved(count, 1e-9), lambda: stops_moved(starts_only, 1e-9)):
            with pytest.raises(ValueError, match="made for counting"):
                write()

    def test_spans_concatenate_to_the_whole_run(self):
        cfg = _lossy(clean_config(pair_rate=5e4, dark_start=1e3, dark_stop=2e3,
                                  jitter_stop=200e-12))
        whole = emit_event_stream(cfg, 0.3, 0.2, 3.7, 7)
        spans = [emit_event_stream(cfg, 0.3, 0.2, duration, 7, start=start)
                 for start, duration in ((0.0, 1.0), (1.0, 2.0), (3.0, 3.7 - 3.0))]
        for port in PORTS:
            joined = np.sort(np.concatenate([getattr(span, port) for span in spans]))
            np.testing.assert_array_equal(joined, getattr(whole, port))

    @pytest.mark.parametrize("start", [0.0, 1.0])
    def test_a_record_stays_inside_its_span(self, start):
        # With no stop detected, every event is a dark count or a one-sided
        # photon: points of one homogeneous Poisson process on the span, none
        # pushed past either end by the 1 ns start jitter.
        cfg = clean_config(pair_rate=2e11, dark_start=1e9, dark_stop=1e9)
        cfg = replace(cfg, source=replace(cfg.source, arm2_transmission=0.0),
                      detector_start=replace(cfg.detector_start, jitter_fwhm=1e-9))
        begin, duration = round(start / PS), 3e-9
        times = np.concatenate([emit_event_stream(cfg, 0.0, 0.0, duration, seed,
                                                  start=start).keys >> 2
                                for seed in range(20)])
        assert len(times) > 200
        assert ((times >= begin) & (times < begin + round(duration / PS))).all()

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

    def test_pack_keys_hold_times_below_two_to_the_61_ps(self):
        edge = np.array([-(PACK_LIMIT_PS - 1), PACK_LIMIT_PS - 1], dtype=np.int64)
        keys = pack_keys([edge, edge[:1], edge[1:], np.empty(0, np.int64)])
        np.testing.assert_array_equal(keys >> 2, [edge[0], edge[0], edge[1], edge[1]])
        np.testing.assert_array_equal(keys & 3, [0, 1, 0, 2])
        for time in (PACK_LIMIT_PS, -PACK_LIMIT_PS):
            with pytest.raises(ValueError, match="packable"):
                pack_keys([np.empty(0, np.int64), np.array([0, time], dtype=np.int64)])

    def test_span_ending_past_the_packing_limit_rejected(self):
        # Slice 2305843 holds the limit: 2**61 ps = 2305843 s + 9213693952 ps.
        cfg = clean_config(pair_rate=0.0, dark_start=1e3)
        first = PACK_LIMIT_PS // SLICE_PS
        at_edge = (PACK_LIMIT_PS - first * SLICE_PS) * PS
        stream = emit_event_stream(cfg, 0.0, 0.0, at_edge, 1, start=float(first))
        assert stream.keys[-1] >> 2 < PACK_LIMIT_PS
        with pytest.raises(ValueError, match="26.7 days"):
            emit_event_stream(cfg, 0.0, 0.0, at_edge + PS, 1, start=float(first))

    def test_records_sorted_and_distinct(self):
        cfg = clean_config(pair_rate=5e4, jitter_stop=200e-12, seed=13)
        records = emit_event_stream(cfg, 0.2, 0.3, 1.0, cfg.seed).to_records()
        assert np.all(np.diff(records["time_ps"].astype(np.int64)) >= 0)
        keys = records["channel"].astype(np.uint64) << 60 | records["time_ps"]
        assert len(np.unique(keys)) == len(keys)

    def test_truncated_file_is_rejected(self, tmp_path):
        times = np.arange(3, dtype=np.int64) * 1000
        stream = EventStream.from_ports(1.0, times, times + 1, times + 2, times + 3)  # 12 records
        path = tmp_path / "events.frsn"
        stream.write(path)
        assert path.stat().st_size == 5 + 9 * 12
        whole = path.read_bytes()
        for cut in (-4, 4):  # a partial last record; the magic alone
            path.write_bytes(whole[:cut])
            with pytest.raises(ValueError, match="events.frsn: truncated"):
                EventStream.read(path, duration=1.0)

    def test_unknown_channel_byte_is_rejected(self):
        records = np.zeros(3, dtype=RECORD_DTYPE)
        records["channel"] = [CH_START_PLUS, 7, CH_STOP_PLUS]
        with pytest.raises(ValueError, match="unknown channel byte 7"):
            EventStream.from_records(records, duration=1.0)

    def test_negative_time_round_trips(self, tmp_path):
        # Jitter near t = 0 can put a detection before the run starts.
        stream = EventStream.from_ports(1.0, np.array([0, 40], dtype=np.int64),
                                        np.array([], dtype=np.int64),
                                        np.array([-3, 12], dtype=np.int64),
                                        np.array([5], dtype=np.int64))
        path = tmp_path / "events.frsn"
        stream.write(path)
        back = EventStream.read(path, duration=1.0)
        for port in ("start_plus", "start_minus", "stop_plus", "stop_minus"):
            np.testing.assert_array_equal(getattr(stream, port), getattr(back, port))

    @staticmethod
    def _write_v1(path, records):
        path.write_bytes(b"FRSN\x01" + b"".join(struct.pack("<Bq", ch, t) for ch, t in records))

    def test_old_tie_order_reads_back_sorted(self, tmp_path):
        # Files written before the (time, channel) order hold ties as (0, 2, 1, 3).
        path = tmp_path / "old.frsn"
        self._write_v1(path, [(0, -2), (2, 5), (0, 5), (1, 5), (3, 5), (2, 9), (1, 9)])
        back = EventStream.read(path, duration=1.0)
        expected = EventStream.from_ports(1.0, _ps(-2, 5), _ps(5, 9), _ps(5, 9), _ps(5))
        np.testing.assert_array_equal(back.keys, expected.keys)
        for port in PORTS:
            np.testing.assert_array_equal(getattr(back, port), getattr(expected, port))

    def test_time_going_backwards_reads_back_sorted(self, tmp_path):
        path = tmp_path / "backwards.frsn"
        self._write_v1(path, [(0, 10), (1, 3), (3, 7), (2, -4), (1, 12)])
        back = EventStream.read(path, duration=1.0)
        assert np.all(np.diff(back.keys) > 0)
        expected = EventStream.from_ports(1.0, _ps(10), _ps(-4), _ps(3, 12), _ps(7))
        for port in PORTS:
            np.testing.assert_array_equal(getattr(back, port), getattr(expected, port))

    def test_time_past_the_packing_limit_is_rejected(self, tmp_path):
        path = tmp_path / "far.frsn"
        self._write_v1(path, [(0, 5), (1, PACK_LIMIT_PS)])
        with pytest.raises(ValueError, match="packable"):
            EventStream.read(path, duration=1.0)

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


class TestChunkedRecords:
    """FRSN files are written and read four records at a time here, so every
    check meets chunk boundaries."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(events, "_CHUNK", 4)

    _write_v1 = staticmethod(TestEventStream._write_v1)

    @pytest.mark.parametrize("n", [0, 1, 4, 8, 23])
    def test_round_trip_is_byte_identical(self, tmp_path, n):
        rng = np.random.default_rng(n)
        times = [np.sort(rng.integers(-5, 20, k)) for k in rng.multinomial(n, [0.25] * 4)]
        stream = EventStream.from_ports(1.0, *times)
        path = tmp_path / "events.frsn"
        stream.write(path)
        assert path.read_bytes() == MAGIC + bytes([FORMAT_VERSION]) + stream.to_records().tobytes()
        np.testing.assert_array_equal(EventStream.read(path, 1.0).keys, stream.keys)

    def test_old_tie_order_across_a_boundary_reads_back_sorted(self, tmp_path):
        # The time-5 ties in (0, 2, 1, 3) order, split 0, 2 | 1, 3.
        path = tmp_path / "old.frsn"
        self._write_v1(path, [(0, 1), (1, 2), (0, 5), (2, 5), (1, 5), (3, 5), (0, 7), (1, 8)])
        expected = EventStream.from_ports(1.0, _ps(1, 5, 7), _ps(5), _ps(2, 5, 8), _ps(5))
        np.testing.assert_array_equal(EventStream.read(path, 1.0).keys, expected.keys)

    def test_time_going_backwards_across_a_boundary_reads_back_sorted(self, tmp_path):
        path = tmp_path / "backwards.frsn"
        self._write_v1(path, [(0, 1), (1, 2), (0, 3), (1, 9), (0, 4), (1, 10)])
        expected = EventStream.from_ports(1.0, _ps(1, 3, 4), _ps(), _ps(2, 9, 10), _ps())
        np.testing.assert_array_equal(EventStream.read(path, 1.0).keys, expected.keys)

    def test_time_going_backwards_at_the_split_reads_back_sorted(self, tmp_path):
        # 16 records are read in two halves, 0-7 and 8-15, on two threads; the
        # only decrease is from record 7 (time 14) to record 8 (time 1).
        path = tmp_path / "split.frsn"
        self._write_v1(path, [(0, 2 * t) for t in range(8)] + [(1, 2 * t + 1) for t in range(8)])
        expected = EventStream.from_ports(1.0, _ps(*range(0, 16, 2)), _ps(),
                                          _ps(*range(1, 16, 2)), _ps())
        np.testing.assert_array_equal(EventStream.read(path, 1.0).keys, expected.keys)

    @pytest.mark.parametrize("old", [None, 3, 40])  # no file, a shorter one, a longer one
    @pytest.mark.parametrize("cut", [4, 8, 12])  # a chunk of the first half, then the second
    def test_a_write_cut_short_is_refused(self, tmp_path, monkeypatch, old, cut):
        path = tmp_path / "events.frsn"
        if old is not None:
            EventStream(1.0, np.arange(old, dtype=np.int64) * 4).write(path)
        stream = EventStream(1.0, np.arange(16, dtype=np.int64) * 8 + 1)
        encode = events._encode

        def fail_at_cut(keys, records):
            if keys[0] == stream.keys[cut]:
                raise OSError("no space left")
            encode(keys, records)
        monkeypatch.setattr(events, "_encode", fail_at_cut)
        with pytest.raises(OSError, match="no space left"):
            stream.write(path)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            EventStream.read(path, 1.0)

    @pytest.mark.parametrize("old_bytes", [0, 7, 5 + 9 * 16, 1000])
    def test_writing_over_a_file_gives_the_bytes_of_a_fresh_write(self, tmp_path, old_bytes):
        stream = EventStream(1.0, np.arange(16, dtype=np.int64) * 8 + 1)
        fresh, over = tmp_path / "fresh.frsn", tmp_path / "over.frsn"
        stream.write(fresh)
        over.write_bytes(b"\xff" * old_bytes)
        stream.write(over)
        assert over.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize("bad, match", [((7, 20), "unknown channel byte 7"),
                                            ((1, PACK_LIMIT_PS), "packable"),
                                            ((1, -PACK_LIMIT_PS), "packable")])
    def test_bad_record_in_a_later_chunk_names_the_file(self, tmp_path, bad, match):
        path = tmp_path / "bad.frsn"
        records = [(0, t) for t in range(9)]
        self._write_v1(path, records + [bad] + records)
        with pytest.raises(ValueError, match=f"{match}.*{re.escape(str(path))}"):
            EventStream.read(path, 1.0)

    def test_file_shrinking_while_read_is_truncated(self, tmp_path, monkeypatch):
        path = tmp_path / "events.frsn"
        EventStream.from_ports(1.0, _ps(*range(10)), _ps(), _ps(), _ps()).write(path)
        size = path.stat().st_size
        monkeypatch.setattr(events.os, "fstat", lambda fd: mock.Mock(st_size=size + 9 * 3))
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: truncated"):
            EventStream.read(path, 1.0)


def test_reading_holds_the_keys_and_a_few_chunks(tmp_path):
    # The whole file's bytes on top of the keys would take 9n bytes more.
    n = 1 << 20
    stream = EventStream(1.0, np.arange(n, dtype=np.int64) * 3)
    path = tmp_path / "events.frsn"
    tracemalloc.start()
    try:
        stream.write(path)
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        back = EventStream.read(path, 1.0)
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(back.keys, stream.keys)
    assert write_peak < 4e6, write_peak
    assert read_peak < 8 * n + 4e6, read_peak


class TestMonitoredOnly:
    """A fringe scan makes and counts the + ports alone; these check that
    each count is a part of the record of its ports, and that it leaves the
    counts it reads alone."""

    @staticmethod
    def _config(dark_only, lossy, jitter):
        if dark_only:
            cfg = clean_config(pair_rate=0.0, dark_start=2e4, dark_stop=3e4)
        else:
            cfg = clean_config(pair_rate=2e4, dark_start=1e3, dark_stop=2e3)
            cfg = _lossy(cfg) if lossy else cfg
        return replace(cfg, detector_stop=replace(cfg.detector_stop, jitter_fwhm=jitter))

    @settings(deadline=None, max_examples=30)
    @given(dark_only=st.booleans(), lossy=st.booleans(),
           jitter=st.sampled_from([0.0, 200e-12]),
           duration=st.sampled_from([0.4, 1.0, 2.5]), law=st.sampled_from(sorted(PAIR_LAWS)),
           d1=st.floats(-math.pi, math.pi), seed=st.integers(0, 2**32 - 1))
    def test_the_counts_are_parts_of_the_record(
            self, dark_only, lossy, jitter, duration, law, d1, seed):
        cfg = self._config(dark_only, lossy, jitter)
        for monitored in (False, True):
            record = emit_event_stream(cfg, d1, 0.2, duration, seed, law=law,
                                       monitored_only=monitored)
            count = emit_event_stream(cfg, d1, 0.2, duration, seed, law=law,
                                      monitored_only=monitored, count_only=True)
            # The count holds record keys and counts the + ones it leaves out.
            beyond = _beyond(count.keys, record.keys)
            assert [np.count_nonzero((beyond & 3) == channel)
                    for channel in (CH_START_PLUS, CH_STOP_PLUS)] == \
                [count.unplaced_start_plus, count.unplaced_stop_plus]
            summary = simulate_settings(cfg, [(d1, 0.2, seed)], duration, law=law,
                                        monitored_only=monitored)[0]
            assert summary == window_coincidences(count, cfg.tphc) == \
                window_coincidences(record, cfg.tphc)
            if monitored:
                assert not (record.keys & 2).any()  # the + ports alone
                assert [summary.coincidences[key] for key in OUTCOMES[1:]] == [0, 0, 0]

    def test_a_plus_count_draws_the_plus_streams_alone(self, monkeypatch):
        # Each channel draws its pair photons' jitter, in channel order, and
        # then one draw places C, the dark counts and one-sided photons of the
        # drawn ports: a count of the + ports draws those of the + ports
        # alone, as its record does, and equals the record of the + ports.
        cfg = clean_config(pair_rate=2e4, dark_start=1e3, dark_stop=2e3, jitter_stop=200e-12)
        calls = []

        def dark(rate, *args):
            calls.append(("dark", rate))
            return generate_dark_counts(rate, *args)

        def jitter(times, det, rng):
            calls.append(("jitter", det.dark_rate))
            return apply_jitter(times, det, rng)

        monkeypatch.setattr(simulator, "generate_dark_counts", dark)
        monkeypatch.setattr(simulator, "apply_jitter", jitter)
        c = {}
        for monitored, rates in ((True, [1e3, 2e3]), (False, [1e3, 2e3, 1e3, 2e3])):
            calls.clear()
            count = emit_event_stream(cfg, 0.3, 0.2, 1.0, 5, monitored_only=monitored,
                                      count_only=True)
            assert calls[:-1] == [("jitter", rate) for rate in rates] and calls[-1][0] == "dark"
            c[monitored] = calls[-1][1]
            drawn = list(calls)
            calls.clear()
            record = emit_event_stream(cfg, 0.3, 0.2, 1.0, 5, monitored_only=monitored)
            assert calls == drawn
            assert (record.keys & 2).any() != monitored
            assert window_coincidences(count, cfg.tphc) == window_coincidences(record, cfg.tphc)
        assert c[True] == pytest.approx(c[False] / 2)
        assert c[True] > 1e3 + 2e3  # one-sided photons are part of C

    def test_scan_equals_the_plus_records_at_the_point_seeds(self, monkeypatch):
        cfg = clean_config(pair_rate=3e4, dark_start=2e3, dark_stop=3e3,
                           jitter_stop=200e-12, seed=17)
        controls = np.linspace(0.0, 2 * math.pi, 5, endpoint=False)
        calls = []

        def recording(config, settings, duration, **kwargs):
            calls.append((len(settings), kwargs.get("monitored_only", False)))
            return simulate_settings(config, settings, duration, **kwargs)

        monkeypatch.setattr(analysis, "simulate_settings", recording)
        points = analysis.scan_fringe(cfg, "phase2", controls, 1.5)
        assert calls == [(len(controls), True)]
        for k, (x, point) in enumerate(zip(controls, points)):
            record = emit_event_stream(cfg, cfg.analyzer1.phase, x, 1.5,
                                       analysis._point_seed(cfg.seed, k), monitored_only=True)
            plus = window_coincidences(record, cfg.tphc)
            assert (point.raw_coincidences, point.accidentals) == \
                (plus.coincidences[(1, 1)], plus.accidental_estimate)
            assert point.net == plus.coincidences[(1, 1)] - plus.accidental_estimate

    @pytest.mark.parametrize("n", [0, 1, 4, 5, 23])
    def test_singles_counted_in_chunks(self, monkeypatch, n):
        rng = np.random.default_rng(n)
        keys = np.sort(rng.integers(-160, 1600, n))
        expected = [int(np.count_nonzero((keys & 3) == c)) for c in (CH_START_PLUS,
                                                                      CH_STOP_PLUS)]
        monkeypatch.setattr(events, "_CHUNK", 4)
        summary = window_coincidences(EventStream(1.0, keys), TphcParams(window_width=20 * PS))
        assert [summary.singles_start, summary.singles_stop] == expected


def _closed_form(cfg, d1, d2, duration, outcome=(1, 1)):
    """Means of the start and stop + singles and of the ``outcome`` count:
    the pairs in the window, from the central peak and, with a wide jitter,
    the side peaks at +-path delay, plus accidentals, one for each start-stop
    pair of the run's N grid points within the half-width, N (2 half + 1) -
    half (half + 1) pairs. Last, a count's variance over its mean: 1 + the
    starts and stops per window, as each start draws its window's stops
    afresh and each stop its window's starts (a bound, exact away from the
    ends of the run)."""
    src = cfg.source
    split = src.pair_rate * src.split_efficiency
    eta1 = src.arm1_transmission * cfg.detector_start.efficiency
    eta2 = src.arm2_transmission * cfg.detector_stop.efficiency
    start = split * eta1 / 2 + cfg.detector_start.dark_rate
    stop = split * eta2 / 2 + cfg.detector_stop.dark_rate
    half = round(cfg.tphc.window_width / 2 / PS)
    sigma = math.hypot(fwhm_to_sigma(cfg.detector_start.jitter_fwhm),
                       fwhm_to_sigma(cfg.detector_stop.jitter_fwhm))
    delay = round(cfg.analyzer1.path_delay / PS)

    def accept(offset):  # the share of a peak at offset ps inside the window
        if not sigma:
            return float(abs(offset) <= half)
        edge = (half + 0.5) * PS / (sigma * math.sqrt(2))
        shift = offset * PS / (sigma * math.sqrt(2))
        return (math.erf(edge - shift) + math.erf(edge + shift)) / 2

    window = (2 * half + 1) * PS
    # A pair takes the two arms' sides with prob. 1/4 each, and each port with 1/2.
    peaks = (coincidence_probability(*outcome, d1, d2, cfg.visibility) * accept(0)
             + (accept(delay) + accept(-delay)) / 16)
    grid = round(duration / PS)
    accidentals = start * stop * PS * PS * (grid * (2 * half + 1) - half * (half + 1))
    return (duration * start, duration * stop,
            duration * split * eta1 * eta2 * peaks + accidentals, 1 + (start + stop) * window)


class TestStopDarksInLaw:
    """A count places only the stop dark counts a start can reach and counts
    the rest: the singles and the counts of every pairing it makes keep their
    closed-form law. Each |z| of a total over the seeds stays within 4 (about
    6e-5 a check by chance)."""

    SHORT = 4.1e-6  # s, one slice: its interior is 0.9 us, its windows 1 us wide

    @staticmethod
    def _dense():  # windows overlap: 0.02 stops per window, 1.8e-4 starts per ps
        return clean_config(pair_rate=0.0, dark_start=1e6, dark_stop=5e7)

    @staticmethod
    def _jittered():  # 12 start jitter sigmas reach 51 us past each slice edge
        cfg = clean_config(pair_rate=5e4, dark_start=2e4, dark_stop=3e5, seed=9)
        return replace(cfg, detector_start=replace(cfg.detector_start, jitter_fwhm=1e-5))

    @staticmethod
    def _short():  # edge bands of 0.5 + 1.1 us + 1 ps leave 0.9 us of a SHORT slice
        cfg = clean_config(pair_rate=0.0, dark_start=5e5, dark_stop=2e7, window=1e-6)
        return replace(cfg, analyzer1=replace(cfg.analyzer1, path_delay=1.1e-6),
                       analyzer2=replace(cfg.analyzer2, path_delay=1.1e-6))

    @pytest.mark.parametrize("case, monitored_only, seeds, duration", [
        ("reproduction", True, 12, 1.0),
        ("dense", True, 60, 0.02),
        ("dense", False, 30, 0.02),
        ("jittered", True, 4, 2.5),
        ("jittered", False, 2, 2.5),
        ("short", False, 300, SHORT),
    ])
    def test_counts_match_the_closed_form(self, case, monitored_only, seeds, duration):
        cfg = {"reproduction": reproduction_config, "dense": self._dense,
               "jittered": self._jittered, "short": self._short}[case]()
        d1, d2 = 0.4, cfg.analyzer2.phase
        summaries = simulate_settings(cfg, [(d1, d2, seed) for seed in range(seeds)], duration,
                                      monitored_only=monitored_only)
        start, stop, _, _ = _closed_form(cfg, d1, d2, duration)
        rows = [(sum(s.singles_start for s in summaries), seeds * start, seeds * start),
                (sum(s.singles_stop for s in summaries), seeds * stop, seeds * stop)]
        for outcome in OUTCOMES[:1] if monitored_only else OUTCOMES:
            *_, pairs, spread = _closed_form(cfg, d1, d2, duration, outcome)
            rows.append((sum(s.coincidences[outcome] for s in summaries), seeds * pairs,
                         seeds * pairs * spread))
        z = [(observed - mean) / math.sqrt(var) for observed, mean, var in rows]
        assert max(map(abs, z)) < 4, (z, [row[0] for row in rows])

    @pytest.mark.parametrize("monitored", [False, True])
    def test_a_count_places_stops_only_in_windows_and_edge_bands(self, monitored):
        # Dark counts carry no jitter, and no detector has any here: so each
        # stop a count places lies within the half-width of a start of a
        # port it drew (either start port for a full count, start + for a
        # count of the + ports), or in an edge band of its slice.
        cfg = clean_config(pair_rate=0.0, dark_start=2e4, dark_stop=2e5, window=1e-6)
        cfg = replace(cfg, analyzer1=replace(cfg.analyzer1, path_delay=1e-4),
                      analyzer2=replace(cfg.analyzer2, path_delay=1e-4))
        duration, half = 2.5, round(cfg.tphc.window_width / 2 / PS)
        band = half + round(cfg.analyzer1.path_delay / PS) + 1

        def reached(stops, starts):
            at = np.minimum(np.searchsorted(starts, stops - half), len(starts) - 1)
            return np.abs(starts[at] - stops) <= half

        near_only_minus = in_band_only = 0
        for seed in range(3):
            record = emit_event_stream(cfg, 0.4, 0.0, duration, seed, monitored_only=monitored)
            keys = emit_event_stream(cfg, 0.4, 0.0, duration, seed, monitored_only=monitored,
                                     count_only=True).keys
            starts, stops = record.keys[(record.keys & 1) == 0], keys[(keys & 1) == 1] >> 2
            t0 = stops // SLICE_PS * SLICE_PS
            end = np.minimum(t0 + SLICE_PS, round(duration / PS))
            in_band = (stops - t0 < band) | (end - stops <= band)
            near = reached(stops, starts >> 2)
            assert (near | in_band).all()
            near_plus = reached(stops, starts[(starts & 3) == CH_START_PLUS] >> 2)
            near_only_minus += np.count_nonzero(near & ~near_plus & ~in_band)
            in_band_only += np.count_nonzero(in_band & ~near)
        assert in_band_only > 0
        assert (near_only_minus > 0) != monitored

    def test_a_slice_shorter_than_a_window_counts_as_its_record(self):
        # Each window is longer than the interior, so every window that
        # reaches it also reaches an edge band.
        cfg = self._short()
        half = round(cfg.tphc.window_width / 2 / PS)
        band = half + round(cfg.analyzer1.path_delay / PS) + 1
        assert round(self.SHORT / PS) - 2 * band < 2 * half + 1
        for seed in range(40):
            for monitored in (False, True):
                record = emit_event_stream(cfg, 0.4, 0.0, self.SHORT, seed,
                                           monitored_only=monitored)
                count = emit_event_stream(cfg, 0.4, 0.0, self.SHORT, seed,
                                          monitored_only=monitored, count_only=True)
                assert simulate_settings(cfg, [(0.4, 0.0, seed)], self.SHORT,
                                         monitored_only=monitored)[0] == \
                    window_coincidences(record, cfg.tphc) == window_coincidences(count, cfg.tphc)
                beyond = _beyond(count.keys, record.keys)
                assert np.count_nonzero((beyond & 3) == CH_STOP_PLUS) == count.unplaced_stop_plus


class TestReveal:
    """A count reveals the points of C, a Poisson process on the segments of
    a slice's interior, that lie within G = R + 2 ps of another point or of
    a segment end (``simulator._reveal``), and its record fills in the rest
    (``simulator._fill``). These build the segments by hand, R = 175 ps."""

    R = 175
    CASES = {  # segment starts and ends (ps), and points a ps
        "dense": ([0], [20000], 0.05),  # 20 ps gaps on average: most are close
        "empty": ([0, 50], [10, 60], 1e-4),  # no point, almost always
        "few": ([0, 1000, 3000], [800, 2500, 3300], 2e-3),  # a point or two
        "shorter-than-G": ([0, 1000], [100, 1170], 0.2),  # every spacing is close
        "between-windows": ([0, 4351, 9000], [4000, 8649, 30000], 2e-3),
        "sparse": ([0], [10**7], 2e-5),  # long runs of unrevealed points
    }

    def _record(self, case, seed):
        """The revealed times and channels, the unrevealed number on each
        channel of each run, and the filled keys of one seed."""
        a, b, c = self.CASES[case]
        rng = np.random.default_rng(seed)
        points, *runs, size = simulator._reveal(np.array(a), np.array(b), c, self.R + 2, rng)
        channels = rng.integers(0, 4, len(points))
        counts = rng.multinomial(size, [0.25] * 4)
        fill = np.empty(counts.sum(), np.int64)
        simulator._fill(fill, 0, *runs, counts, rng)
        return np.floor(points).astype(np.int64), channels, counts, fill

    @pytest.mark.parametrize("spread", [simulator._SPREAD, 0])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_every_pair_is_revealed_and_the_count_is_the_record(self, monkeypatch, case,
                                                                spread):
        # With no spread above the mean, half of the segments fail the bound
        # on their spacings and are revealed whole.
        monkeypatch.setattr(simulator, "_SPREAD", spread)
        a, b, c = (np.array(x) for x in self.CASES[case])
        tphc = TphcParams(window_width=2 * self.R * PS)
        whole = 0
        for seed in range(100):
            times, channels, counts, fill = self._record(case, seed)
            whole += len(counts) == 0 and len(times) > 10
            assert (np.diff(fill) > 0).all() and (times >= 0).all()
            filled = fill >> 2
            at = np.searchsorted(b, filled, "right")
            assert (filled - a[at] >= self.R).all() and (b[at] - filled > self.R).all()
            everything = np.sort(np.r_[times, filled])
            near = np.flatnonzero(np.diff(everything) <= self.R)
            assert not np.isin(everything[np.r_[near, near + 1]], filled).any()
            count = EventStream(1.0, pack_keys([times[channels == ch] for ch in range(4)]),
                                int(counts[:, CH_STOP_PLUS].sum()),
                                int(counts[:, CH_START_PLUS].sum()))
            record = EventStream(1.0, np.sort(np.r_[count.keys, fill]))
            assert window_coincidences(count, tphc) == window_coincidences(record, tphc)
        assert whole > 0 or spread or c * max(b - a) < 10  # segments revealed whole

    @pytest.mark.parametrize("a, b, c, n", [
        (0, 20000, 0.05, 1000), (0, 100, 0.2, 2000), (0, 100, 0.02, 2000),
        (0, 30000, 2e-3, 2000), (0, 10**7, 2e-5, 1000),
    ])
    def test_the_reveal_keeps_the_law(self, a, b, c, n):
        # Over n seeds, the points of a segment of length L, revealed and
        # not, have the Poisson mean and variance cL, and the revealed gaps
        # below G the mean number of gaps below G of a Poisson process on
        # [0, L], cL(1 - e^-cm) - (1 - e^-cm (1 + cm)), m = min(G, L). Each
        # |z| stays within 4 (about 6e-5 a check by chance).
        g, length = self.R + 2, b - a
        total, close = np.empty(n), np.empty(n)
        for seed in range(n):
            points, *_, size = simulator._reveal(np.array([a]), np.array([b]), c, g,
                                                 np.random.default_rng(seed))
            total[seed] = len(points) + size.sum()
            close[seed] = np.count_nonzero(np.diff(np.sort(points)) < g)
        mu, m = c * length, min(g, length)
        gaps = mu * (1 - math.exp(-c * m)) - (1 - math.exp(-c * m) * (1 + c * m))
        z = [(total.mean() - mu) / math.sqrt(mu / n),
             (total.var(ddof=1) - mu) / math.sqrt((mu + 2 * mu ** 2) / n),
             (close.mean() - gaps) / (close.std(ddof=1) / math.sqrt(n))]
        assert max(map(abs, z)) < 4, z


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


class _Inline:
    """A stand-in for the slice pool that makes each job inside ``submit()``,
    on the calling thread, so the jobs run one after the other."""

    def __init__(self, *args, **kwargs):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        done = Future()
        done.set_result(fn(*args))
        return done


class TestStreamingSlices:
    """simulate_setting makes each slice for counting, joins the slices of a
    setting and counts them once; these check that join."""

    @settings(deadline=None, max_examples=200)
    @given(data=st.data(), n_slices=st.integers(1, 3), half=st.integers(1, 340))
    def test_the_join_counts_every_pair_once(self, data, n_slices, half):
        # Hand-made slices crowd events around each boundary. Either side may
        # lead its slice's start by up to a whole slice, far past the half +
        # 1 ps that a slice without jitter reaches, into the head or the tail
        # of the slice before.
        tphc = TphcParams(window_width=2 * half * PS)
        cfg = replace(clean_config(), tphc=tphc)
        offsets = st.lists(st.integers(0, 3000), max_size=5)
        leads = st.lists(st.one_of(st.integers(1, 3000), st.integers(SLICE_PS - 3000, SLICE_PS)),
                         max_size=3)
        slices = []
        for k in range(n_slices):
            ports = {}
            for name in PORTS:
                times = [k * SLICE_PS + off for off in data.draw(offsets)]
                times += [k * SLICE_PS - lead for lead in data.draw(leads)]
                times += [(k + 1) * SLICE_PS - 1500 + off for off in data.draw(offsets)]
                ports[name] = np.array(times, dtype=np.int64)
            slices.append(ports)

        def fake_slice(config, probs, t0_ps, dur, rng, out=None, **kwargs):
            return EventStream.from_ports(dur, **slices[t0_ps // SLICE_PS]).keys, 0, 0

        with mock.patch.object(simulator, "_slice_keys", fake_slice):
            got = simulate_setting(cfg, 0.0, 0.0, float(n_slices), 1)
        whole = EventStream.from_ports(float(n_slices), **{
            name: np.concatenate([ports[name] for ports in slices])
            for name in PORTS})
        assert got == window_coincidences(whole, tphc)

    def test_a_record_slice_is_made_into_the_buffer_of_the_one_two_before(self, monkeypatch):
        # Each job runs inside submit(), so job j + 2 is made into the key
        # buffer of job j as soon as the join takes job j + 1. The join copies
        # each slice out before it takes the next, so the record is the
        # single-slice records joined.
        cfg = clean_config(pair_rate=2e4, dark_start=2e4, dark_stop=2e4, jitter_stop=1e-5)
        made, real_slice = [], simulator._slice_keys

        def slice_keys(*args, **kwargs):
            keys, *rest = real_slice(*args, **kwargs)
            made.append((keys, keys.copy()))
            return keys, *rest

        monkeypatch.setattr(simulator, "ThreadPoolExecutor", _Inline)
        monkeypatch.setattr(simulator, "_slice_keys", slice_keys)
        record = emit_event_stream(cfg, 0.3, 0.1, 4.0, 3)
        monkeypatch.undo()
        assert len(made) == 4
        for job in (0, 1):
            (first, kept), (third, _) = made[job], made[job + 2]
            assert np.shares_memory(first, third) and not np.array_equal(first, kept)
        singles = [emit_event_stream(cfg, 0.3, 0.1, 1.0, 3, start=k).keys for k in range(4)]
        np.testing.assert_array_equal(record.keys, np.sort(np.concatenate(singles)))

    def test_each_setting_is_counted_once(self, monkeypatch):
        # A 10 us stop jitter puts events of a slice on both sides of its edges.
        cfg = clean_config(pair_rate=2e4, dark_start=2e4, dark_stop=2e4, jitter_stop=1e-5)
        counted, real_window = [], simulator.window_coincidences

        def window(stream, tphc):
            counted.append(stream.duration)
            return real_window(stream, tphc)

        monkeypatch.setattr(simulator, "window_coincidences", window)
        settings_ = [(0.0, 0.0, 1), (0.3, 0.1, 2), (0.4, 0.0, 3)]
        got = simulate_settings(cfg, settings_, 2.5)
        assert counted == [2.5] * len(settings_)
        assert got == [window_coincidences(emit_event_stream(cfg, d1, d2, 2.5, seed), cfg.tphc)
                       for d1, d2, seed in settings_]

    @pytest.mark.parametrize("start_jitter, stop_jitter", [(0.0, 2e-6), (2e-6, 0.0)])
    def test_a_count_keeps_every_start_a_neighbouring_slice_reaches(self, start_jitter,
                                                                    stop_jitter):
        # The stop photons of a neighbouring slice reach keep = half + path
        # delay + 12 stop jitter sigmas + 1 ps into a slice (its stop dark
        # counts never leave it), so a count keeps every start that close to
        # one of its edges. Here the stop jitter is far wider than the path
        # delay and the start jitter, or far narrower.
        cfg = clean_config(pair_rate=1e5, dark_start=1e5, dark_stop=1e5, window=1e-6)
        cfg = replace(cfg, analyzer1=replace(cfg.analyzer1, path_delay=1.1e-6),
                      analyzer2=replace(cfg.analyzer2, path_delay=1.1e-6),
                      detector_start=replace(cfg.detector_start, jitter_fwhm=start_jitter),
                      detector_stop=replace(cfg.detector_stop, jitter_fwhm=stop_jitter))
        keep = (round(cfg.tphc.window_width / 2 / PS) + round(cfg.analyzer1.path_delay / PS)
                + math.ceil(JITTER_SIGMAS * fwhm_to_sigma(stop_jitter) / PS) + 1)
        duration, held = 2.5, 0
        for seed in range(3):
            record = emit_event_stream(cfg, 0.4, 0.0, duration, seed)
            assert simulate_setting(cfg, 0.4, 0.0, duration, seed) == \
                window_coincidences(record, cfg.tphc)
            for k in range(3):
                dur = min(1.0, duration - k)
                t0, end = k * SLICE_PS, k * SLICE_PS + round(dur / PS)

                def near_an_edge(keys):
                    time = keys >> 2
                    return ((keys & 1) == 0) & ((time < t0 + keep) | (time >= end - keep))

                count = emit_event_stream(cfg, 0.4, 0.0, dur, seed, start=k, count_only=True)
                left = _beyond(count.keys, emit_event_stream(cfg, 0.4, 0.0, dur, seed,
                                                             start=k).keys)
                assert not near_an_edge(left).any(), left[near_an_edge(left)] >> 2
                held += np.count_nonzero(near_an_edge(count.keys))
        assert held  # the edge bands hold starts, so the check above reads some

    def test_a_join_stays_in_its_setting(self, monkeypatch):
        # Each setting's pair crosses the edge between its two slices: its
        # start ends slice 0 and its stop begins slice 1. A join that kept
        # keys into the next setting would pair them again.
        empty = np.empty(0, np.int64)

        def fake_slice(config, probs, t0_ps, dur, rng, out=None, **kwargs):
            times = (_ps(SLICE_PS - 10), empty) if t0_ps == 0 else (empty, _ps(SLICE_PS + 5))
            return EventStream.from_ports(dur, times[0], empty, times[1], empty).keys, 0, 0

        monkeypatch.setattr(simulator, "_slice_keys", fake_slice)
        got = simulate_settings(clean_config(), [(0.0, 0.0, 1), (0.0, 0.0, 2)], 2.0)
        assert [summary.coincidences[(1, 1)] for summary in got] == [1, 1]

    def test_run_ending_past_the_packing_limit_rejected(self, monkeypatch):
        class Emitted(Exception):
            pass

        def fake_slice(*args, **kwargs):
            raise Emitted

        monkeypatch.setattr(simulator, "_slice_keys", fake_slice)
        at_edge = PACK_LIMIT_PS * PS
        assert round(at_edge / PS) == PACK_LIMIT_PS
        with pytest.raises(Emitted):  # the run starts
            simulate_setting(clean_config(), 0.0, 0.0, at_edge, 1)
        with pytest.raises(ValueError, match="26.7 days"):
            simulate_setting(clean_config(), 0.0, 0.0, math.nextafter(at_edge, math.inf), 1)

    def test_memory_is_bounded_by_one_slice(self):
        # The acceptance 1b dark run: with the whole stream built, the peak
        # grew with the duration (about 4x from 2 s to 8 s). The slices are
        # made one after the other on the calling thread.
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

    def test_at_most_two_slices_are_alive(self):
        # Each thread writes its next slice into its last one's key buffer, so
        # the peak is two slices plus the draws in flight. Keeping the last
        # slice alive while the next one is drawn and packed took 3.0 slices.
        cfg = clean_config(pair_rate=0.0, dark_start=250e3, dark_stop=380e3, seed=101)
        slice_bytes = 8 * 2 * (250e3 + 380e3)  # the int64 keys of 1 s of dark counts
        tracemalloc.start()
        try:
            simulate_setting(cfg, 0.0, 0.0, 4.0, cfg.seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.75 * slice_bytes, peak / slice_bytes

    @pytest.mark.parametrize("monitored", [False, True])
    def test_a_count_holds_no_dense_block(self, monitored):
        # A 1 s count slice, at the dark run's config or a count of the +
        # ports at the reproduction's, peaked at 6.06 MB while it drew,
        # packed and scanned every start.
        cfg = reproduction_config() if monitored else clean_config(
            pair_rate=0.0, dark_start=250e3, dark_stop=380e3, seed=101)
        emit_event_stream(cfg, 0.0, 0.0, 1.0, 1, monitored_only=monitored,
                          count_only=True)  # the first call imports and caches
        tracemalloc.start()
        try:
            emit_event_stream(cfg, 0.0, 0.0, 1.0, 2, monitored_only=monitored, count_only=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6, peak

    def test_a_multi_slice_count_is_joined_from_its_kept_keys(self):
        # An 8 s count of the dark run keeps about 2 k keys. Its join was
        # sized for every start of the span: 32 MB, a 45 MB peak.
        cfg = clean_config(pair_rate=0.0, dark_start=250e3, dark_stop=380e3, seed=101)
        slice_bytes = 8 * 2 * (250e3 + 380e3)
        tracemalloc.start()
        try:
            emit_event_stream(cfg, 0.0, 0.0, 8.0, cfg.seed, count_only=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.75 * slice_bytes, peak / slice_bytes


class TestSliceThreads:
    """simulate_settings makes and counts each setting in one count on the
    calling thread, and a multi-slice record makes its slices on two pool
    threads, at most two slices at a time, taken in order."""

    @pytest.mark.parametrize("failing", [2, 3])
    def test_a_slice_error_reaches_the_caller_and_the_worker_ends(self, monkeypatch, failing):
        real_slice = simulator._slice_keys

        def slice_keys(config, probs, t0_ps, dur, rng, *args, **kwargs):
            if rng.bit_generator.seed_seq.entropy == [1, failing]:  # (seed, slice)
                raise ArithmeticError(f"slice {failing}")
            return real_slice(config, probs, t0_ps, dur, rng, *args, **kwargs)

        monkeypatch.setattr(simulator, "_slice_keys", slice_keys)
        cfg = clean_config(pair_rate=1e4, dark_stop=1e3)
        threads = threading.active_count()
        with pytest.raises(ArithmeticError, match=f"slice {failing}"):
            simulate_setting(cfg, 0.0, 0.0, 4.0, 1)
        assert threading.active_count() == threads
        # The failing slice belongs to the second setting, after the first was counted.
        with pytest.raises(ArithmeticError, match=f"slice {failing}"):
            simulate_settings(cfg, [(0.0, 0.0, 2), (0.3, 0.1, 1)], 4.0)
        assert threading.active_count() == threads
        # A record's slices are made on pool threads, which end with the error.
        with pytest.raises(ArithmeticError, match=f"slice {failing}"):
            emit_event_stream(cfg, 0.0, 0.0, 4.0, 1)
        assert threading.active_count() == threads

    def test_concurrent_callers_get_their_own_counts(self):
        # Four callers, each with its worker, switching threads every 1 us.
        cfg = clean_config(pair_rate=2e4, dark_stop=2e3, jitter_stop=200e-12)
        expected = {seed: window_coincidences(emit_event_stream(cfg, 0.4, 0.1, 3.5, seed),
                                              cfg.tphc) for seed in range(4)}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(len(expected)) as callers:
                got = list(callers.map(lambda seed: simulate_setting(cfg, 0.4, 0.1, 3.5, seed),
                                       expected, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert got == list(expected.values())

    def test_a_count_is_one_call_a_setting_and_starts_no_thread(self, monkeypatch):
        cfg = clean_config(pair_rate=1e4, dark_stop=1e3)
        settings_ = [(0.0, 0.0, 1), (0.3, 0.1, 2), (0.4, 0.0, 3)]
        expected = [window_coincidences(emit_event_stream(cfg, d1, d2, 2.5, seed), cfg.tphc)
                    for d1, d2, seed in settings_]
        calls = {"emit": 0, "validate": 0}
        real_emit, real_validate = simulator.emit_event_stream, simulator.validate_config

        def emit(*args, **kwargs):
            calls["emit"] += 1
            return real_emit(*args, **kwargs)

        def validate(config):
            calls["validate"] += 1
            return real_validate(config)

        monkeypatch.setattr(simulator, "emit_event_stream", emit)
        monkeypatch.setattr(simulator, "validate_config", validate)
        with mock.patch.object(threading.Thread, "start", side_effect=AssertionError):
            got = simulate_settings(cfg, settings_, 2.5)
        assert got == expected
        assert calls["emit"] == len(settings_), calls
        assert calls["validate"] <= len(settings_) + 1, calls

    def test_one_slice_starts_no_thread(self):
        cfg = clean_config(pair_rate=1e4, dark_stop=1e3)
        with mock.patch.object(threading.Thread, "start", side_effect=AssertionError):
            summary = simulate_setting(cfg, 0.3, 0.1, 1.0, 2)
        assert summary == window_coincidences(emit_event_stream(cfg, 0.3, 0.1, 1.0, 2), cfg.tphc)

    def test_out_receives_the_keys_and_grows_when_short(self):
        # A record slice writes its keys into the buffer it is given, as the
        # pool's job j + 2 does into the buffer of job j.
        cfg = _lossy(clean_config(pair_rate=5e4, dark_start=1e3, dark_stop=2e3,
                                  jitter_stop=200e-12))
        keys = emit_event_stream(cfg, 0.3, 0.2, 1.0, 7, start=2.0).keys
        probs = PAIR_LAWS["quantum"](0.3, 0.2, cfg.visibility)  # no phase noise
        for out in (np.empty(0, np.int64), np.empty(len(keys) - 1, np.int64),
                    np.empty(len(keys) + 5, np.int64)):
            got, *_ = simulator._slice_keys(cfg, probs, 2 * SLICE_PS, 1.0,
                                            np.random.default_rng([7, 2]), out)
            np.testing.assert_array_equal(got, keys)
            assert np.shares_memory(got, out) == (len(out) >= len(keys)), len(out)

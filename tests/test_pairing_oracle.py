"""Window counts and delay histograms against an O(n*m) double loop, and the
FRSN record round trip.

Small streams on a narrow integer-picosecond range make duplicate timestamps,
ties across ports, empty ports and pairs exactly on the window and histogram
edges common.
"""
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import side_times
from fransim import events
from fransim.config import TphcParams
from fransim.events import (
    CHANNEL_PORTS,
    FORMAT_VERSION,
    MAGIC,
    OUTCOMES,
    PS,
    EventStream,
    build_histogram,
    window_coincidences,
)

port_times = st.lists(st.integers(-40, 40), max_size=12).map(
    lambda times: np.sort(np.array(times, dtype=np.int64)))
streams = st.builds(lambda sp, sm, tp, tm: EventStream.from_ports(1.0, sp, sm, tp, tm),
                    port_times, port_times, port_times, port_times)


def _ps(*times):
    return np.array(times, dtype=np.int64)


def brute_delays(starts, stops, lo_ps, hi_ps):
    """Every stop - start in [lo_ps, hi_ps], by the double loop."""
    return [stop - start for start in starts for stop in stops if lo_ps <= stop - start <= hi_ps]


# numpy-heavy examples can exceed Hypothesis' 200 ms default deadline on a loaded machine.
@settings(deadline=None)
@given(stream=streams, half=st.integers(1, 12), chunk=st.integers(1, 5))
@example(stream=EventStream.from_ports(1.0, _ps(-3, 0, 0), _ps(), _ps(-8, -3, 2, 2, 3), _ps(7)),
         half=5, chunk=2)  # duplicates, an empty port, ties at +- half
def test_window_counts_match_double_loop(stream, half, chunk):
    tphc = TphcParams(window_width=2 * half * PS)
    with mock.patch.object(events, "_CHUNK", chunk):  # pairs across chunks and halves
        got = window_coincidences(stream, tphc).coincidences
    for i, j in OUTCOMES:
        pairs = brute_delays(stream.port("start", i), stream.port("stop", j), -half, half)
        assert got[(i, j)] == len(pairs), (i, j)


@settings(deadline=None)
@given(stream=streams, range_ps=st.integers(1, 30), bin_ps=st.integers(1, 8),
       chunk=st.integers(1, 5))
@example(stream=EventStream.from_ports(1.0, _ps(0, 0), _ps(-10), _ps(-20, 10, 10), _ps()),
         range_ps=10, bin_ps=5, chunk=2)  # duplicates, an empty port, ties at +-range
def test_histogram_matches_double_loop(stream, range_ps, bin_ps, chunk):
    with mock.patch.object(events, "_CHUNK", chunk):  # pairs across chunks and halves
        hist = build_histogram(stream, bin_ps * PS, range_ps * PS)
    delays = brute_delays(side_times(stream, "start"), side_times(stream, "stop"),
                          -range_ps, range_ps)
    # Integer-ps bins [edge, next edge); the last one is closed on the right.
    nbins = -(-2 * range_ps // bin_ps)
    edges = [-range_ps + bin_ps * b for b in range(nbins + 1)]
    expected = [sum(1 for d in delays if edges[b] <= d < edges[b + 1]
                    or (b == nbins - 1 and d == edges[b + 1])) for b in range(nbins)]
    np.testing.assert_array_equal(hist.counts, expected)
    assert hist.total == len(delays)


@settings(deadline=None)
@given(stream=streams, chunk=st.integers(1, 5))
@example(stream=EventStream.from_ports(1.0, _ps(-5, 0, 0), _ps(0), _ps(-5, 0),
                                       _ps(-5, 0, 9)), chunk=2)  # ties
def test_records_round_trip(stream, chunk, tmp_path_factory):
    records = stream.to_records()
    time = records["time_ps"].astype(np.int64)
    step, channel_step = np.diff(time), np.diff(records["channel"].astype(np.int64))
    assert np.all((step > 0) | ((step == 0) & (channel_step >= 0)))  # by (time, channel)
    path = tmp_path_factory.mktemp("frsn") / "events.frsn"
    with mock.patch.object(events, "_CHUNK", chunk):  # FRSN I/O goes chunk by chunk
        stream.write(path)
        back = EventStream.read(path, 1.0)
    assert path.read_bytes() == MAGIC + bytes([FORMAT_VERSION]) + records.tobytes()
    for back in (EventStream.from_records(records, 1.0), back):
        for port in CHANNEL_PORTS:
            np.testing.assert_array_equal(getattr(back, port), getattr(stream, port))

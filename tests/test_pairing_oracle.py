"""Window counts and delay histograms against an O(n*m) double loop.

Small streams on a narrow integer-picosecond range make duplicate timestamps,
empty ports and pairs exactly on the window and histogram edges common.
"""
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fransim.config import TphcParams
from fransim.events import OUTCOMES, PS, EventStream, build_histogram, window_coincidences

port_times = st.lists(st.integers(-40, 40), max_size=12).map(
    lambda times: np.sort(np.array(times, dtype=np.int64)))
streams = st.builds(lambda sp, sm, tp, tm: EventStream(1.0, sp, sm, tp, tm),
                    port_times, port_times, port_times, port_times)


def _ps(*times):
    return np.array(times, dtype=np.int64)


def brute_delays(starts, stops, lo_ps, hi_ps):
    """Every stop - start in [lo_ps, hi_ps], by the double loop."""
    return [stop - start for start in starts for stop in stops if lo_ps <= stop - start <= hi_ps]


# numpy-heavy examples can exceed Hypothesis' 200 ms default deadline on a loaded machine.
@settings(deadline=None)
@given(stream=streams, half=st.integers(1, 12), center=st.integers(-15, 15))
@example(stream=EventStream(1.0, _ps(-3, 0, 0), _ps(), _ps(-8, -3, 2, 2, 3), _ps(7)),
         half=5, center=-3)  # duplicates, an empty port, ties at center +- half
def test_window_counts_match_double_loop(stream, half, center):
    tphc = TphcParams(window_width=2 * half * PS, center_offset=center * PS)
    got = window_coincidences(stream, tphc).coincidences
    for i, j in OUTCOMES:
        pairs = brute_delays(stream.port("start", i), stream.port("stop", j),
                             center - half, center + half)
        assert got[(i, j)] == len(pairs), (i, j)


@settings(deadline=None)
@given(stream=streams, range_ps=st.integers(1, 30), bin_ps=st.integers(1, 8))
@example(stream=EventStream(1.0, _ps(0, 0), _ps(-10), _ps(-20, 10, 10), _ps()),
         range_ps=10, bin_ps=5)  # duplicates, an empty port, ties at +-range
def test_histogram_matches_double_loop(stream, range_ps, bin_ps):
    hist = build_histogram(stream, bin_ps * PS, range_ps * PS)
    delays = brute_delays(stream.starts(), stream.stops(), -range_ps, range_ps)
    # Integer-ps bins [edge, next edge); the last one is closed on the right.
    nbins = -(-2 * range_ps // bin_ps)
    edges = [-range_ps + bin_ps * b for b in range(nbins + 1)]
    expected = [sum(1 for d in delays if edges[b] <= d < edges[b + 1]
                    or (b == nbins - 1 and d == edges[b + 1])) for b in range(nbins)]
    np.testing.assert_array_equal(hist.counts, expected)
    assert hist.total == len(delays)

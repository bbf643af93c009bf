"""Monte Carlo engine: timestamped detection events from apparatus parameters.

The run duration is cut into fixed 1 s slices, each driven by a random stream
derived from (seed, slice index), so results are reproducible and independent
of which thread makes each slice. Each slice is drawn in
integer picoseconds from its start and packed straight into one sorted array
of event keys.
"""
from __future__ import annotations

import math
from collections import deque
from contextlib import closing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import (JITTER_SIGMAS, SLICE_SECONDS, DetectorParams, ExperimentConfig,
                     fwhm_to_sigma, validate_config)
from .events import (
    CH_STOP_PLUS,
    CHANNEL_PORTS,
    OUTCOMES,
    PACK_LIMIT_PS,
    PS,
    _CHUNK,
    CountSummary,
    EventStream,
    pack_into,
    pair_positions,
    window_coincidences,
)
from .quantum import PAIR_LAWS

__all__ = [
    "fwhm_to_sigma",
    "apply_jitter",
    "generate_dark_counts",
    "emit_event_stream",
    "simulate_setting",
    "simulate_settings",
]

SLICE_PS = round(SLICE_SECONDS / PS)


def apply_jitter(times_ps: np.ndarray, det: DetectorParams, rng: np.random.Generator):
    """Add the detector's Gaussian timing response (zero mean, FWHM-specified)
    to an int64 array of ps times, each offset rounded to whole ps:
    ``rint(normal·σ/PS)``."""
    if det.jitter_fwhm < 0:
        raise ValueError(f"jitter_fwhm must be >= 0, got {det.jitter_fwhm}")
    if det.jitter_fwhm == 0:
        return times_ps
    offset = rng.normal(0.0, fwhm_to_sigma(det.jitter_fwhm) / PS, size=len(times_ps))
    return times_ps + np.rint(offset, out=offset).astype(np.int64)


def generate_dark_counts(rate: float, duration: float, rng: np.random.Generator,
                         t0_ps: int = 0, reach: "StartReach | None" = None) -> np.ndarray:
    """Homogeneous Poisson process: int64 ps times, uniform on the 1 ps grid of
    [t0_ps, t0_ps + duration), in draw order.

    With ``reach``, the block of a stop port in one slice, only the counts a
    start can reach are sure to get positions (a Poisson process on disjoint
    regions is one independent process per region):

    - in U, the windows of ``reach.starts``: Poisson(rate · N · W) candidates,
      W = 2R + 1 grid points, each at a uniform offset from a uniform window;
      one is kept if no earlier window covers it (by time within a start
      block, then by block) and it lies in the interior, so each point of U
      is drawn by its first window alone;
    - in E, the edge bands, drawn whole;
    - outside U ∪ E, with ``reach.count``, their number, Poisson(rate ·
      (interior − |U|)), into ``reach.outside``; with ``reach.place`` as well,
      that many positions uniform on the interior, last in the result. Any
      of those inside U is moved by :func:`_slice_keys` after its sort (see
      :func:`_redraw`).
    - outside U ∪ E, without ``reach.count`` but with ``reach.place``, a
      Poisson process on the interior, last in the result and counted in
      ``reach.outside``, of which :func:`_slice_keys` drops those inside U.
    """
    if rate < 0:
        raise ValueError(f"dark rate must be >= 0, got {rate}")
    if reach is None:
        n = rng.poisson(rate * duration)
        return rng.integers(t0_ps, t0_ps + max(1, round(duration / PS)), n)
    mu, half, lo, hi = rate * PS, reach.half, reach.lo, reach.hi
    # Only the windows that meet the interior [lo, hi) can keep a candidate.
    near = [s[np.searchsorted(s, 4 * (lo - half)):np.searchsorted(s, 4 * (hi + half))]
            if hi > lo else s[:0] for s in reach.starts]
    sizes = np.cumsum([0] + [len(s) for s in near])
    pick = rng.integers(0, sizes[-1], rng.poisson(mu * sizes[-1] * (2 * half + 1)))
    offset = rng.integers(-half, half + 1, len(pick))
    placed = []
    for block, s in enumerate(near):
        mine = (pick >= sizes[block]) & (pick < sizes[block + 1])
        j = pick[mine] - sizes[block]
        x = (s[j] >> 2) + offset[mine]
        keep = (x >= lo) & (x < hi) & ~((j > 0) & (s[j - 1] >> 2 >= x - half))
        for earlier in near[:block]:
            keep &= ~_within(x, earlier, half)
        placed.append(x[keep])
    front, edge = lo - reach.t0, lo - reach.t0 + reach.end - hi
    at = rng.integers(0, edge, rng.poisson(mu * edge))
    placed.append(np.where(at < front, reach.t0 + at, hi - front + at))
    if reach.count:
        reach.outside = rng.poisson(mu * (hi - lo - _covered(near[0], half, lo, hi)))
    elif reach.place:
        reach.outside = rng.poisson(mu * (hi - lo))
    inside = sum(map(len, placed))
    times = np.empty(inside + reach.outside * reach.place, np.int64)
    np.concatenate(placed, out=times[:inside])
    for at in range(inside, len(times), _CHUNK):  # the outside ones, a chunk at a time
        chunk = times[at:at + _CHUNK]
        chunk[:] = rng.integers(lo, hi, len(chunk))
    return times


@dataclass
class StartReach:
    """Where the starts can pair with the dark counts of one stop port in the
    slice [t0, end) (see :func:`generate_dark_counts`).

    U is the windows [s - half, s + half] of the start times s of
    ``starts``, the sorted keys of each start block drawn before the stop
    block (see :func:`fransim.events.pack_keys`). E is the two edge
    bands, [t0, lo) and [hi, end), which the starts of the neighbouring
    slices can reach; between them lies the interior. ``count`` and
    ``place`` say what to draw outside U ∪ E, ``outside`` receives how many.
    """

    starts: list
    half: int
    t0: int
    end: int
    lo: int
    hi: int
    count: bool
    place: bool
    outside: int = 0


def _within(x: np.ndarray, starts: np.ndarray, half: int) -> np.ndarray:
    """Whether each of the (few) times ``x`` lies within ``half`` of one of
    ``starts``, the sorted keys of one start channel."""
    if not len(starts):
        return np.zeros(len(x), bool)
    j = np.searchsorted(starts, 4 * (x - half))
    return (j < len(starts)) & (starts[np.minimum(j, len(starts) - 1)] >> 2 <= x + half)


def _covered(starts: np.ndarray, half: int, lo: int, hi: int) -> int:
    """Grid points of [lo, hi) within ``half`` of one of ``starts``, the
    sorted keys of one start channel, each at a time in [lo - half, hi + half).

    Each window adds the W = 2 half + 1 points that its predecessor does not
    cover, min(W, gap), a chunk of gaps at a time; the first window covers
    all of U below lo, and the last all of U from hi on.
    """
    if not len(starts):
        return 0
    width = 2 * half + 1
    union = width + sum(int(np.minimum(np.diff(starts[at:at + _CHUNK + 1]) >> 2, width).sum())
                        for at in range(0, len(starts) - 1, _CHUNK))
    first, last = starts[0] >> 2, starts[-1] >> 2
    return union - max(0, lo - first + half) - max(0, last + half + 1 - hi)


def _redraw(n: int, reach: StartReach, rng: np.random.Generator) -> np.ndarray:
    """``n`` times uniform on the interior of ``reach``, the stop + block's,
    outside U: uniform draws, each redrawn while it lies in U."""
    (starts,) = reach.starts  # the start + block's
    times = rng.integers(reach.lo, reach.hi, n)
    inside = np.ones(n, bool)
    while inside.any():
        inside[inside] = _within(times[inside], starts, reach.half)
        times[inside] = rng.integers(reach.lo, reach.hi, np.count_nonzero(inside))
    return times


def _buffer_size(config: ExperimentConfig, dur: float, monitored_only: bool,
                 count_only: bool) -> int:
    """The expected count of the keys that ``dur`` seconds of slices keep,
    plus 9 of its standard deviations. A count leaves out the dark counts of
    its last stop block outside the windows and bands, nearly all of them."""
    src = config.source
    split = src.pair_rate * src.split_efficiency * dur
    per_port = (split * (src.arm1_transmission * config.detector_start.efficiency
                         + src.arm2_transmission * config.detector_stop.efficiency) / 2
                + dur * (config.detector_start.dark_rate + config.detector_stop.dark_rate))
    mean = (per_port * (1 if monitored_only else 2)
            - count_only * dur * config.detector_stop.dark_rate)
    return math.ceil(mean + 9 * math.sqrt(mean))


def _mend(keys: np.ndarray, drop: list, add: np.ndarray) -> int:
    """Take the keys at the sorted positions ``drop`` out of the sorted
    ``keys`` and merge the sorted ``add``, no more of them, in, in place,
    moving the keys between two changes a run at a time; return the new
    length."""
    for i, (at, upto) in enumerate(zip(drop, drop[1:] + [len(keys)])):
        keys[at - i:upto - i - 1] = keys[at + 1:upto]
    end = len(keys) - len(drop)
    at = np.searchsorted(keys[:end], add).tolist() + [end]
    for i in reversed(range(len(add))):  # from the back, each run moves right by i + 1
        keys[at[i] + i + 1:at[i + 1] + i + 1] = keys[at[i]:at[i + 1]]
        keys[at[i] + i] = add[i]
    return end + len(add)


def _slice_keys(config: ExperimentConfig, probs: np.ndarray, t0_ps: int, dur: float,
                rng: np.random.Generator, out: np.ndarray | None = None, *,
                monitored_only: bool = False, count_only: bool = False) -> tuple[np.ndarray, int]:
    """One time slice's events as sorted packed keys (see
    :func:`fransim.events.pack_keys`), a view of ``out`` if they fit in it,
    and the number of stop + events left without a position.

    Loss thins the split pairs independently on each side, so (colouring
    theorem) pairs detected on both sides and each side's one-sided events are
    independent Poisson streams. Only the first needs the joint law, one draw
    per pair from the 16 cell probabilities ``probs`` (see
    :func:`fransim.quantum.cell_law`); one-sided events take its marginals,
    which every pair law shares: a uniform port and the long arm with prob. 1/2.
    Times are drawn uniformly on the 1 ps grid from ``t0_ps``, and the path
    delay and the jitter are rounded to whole ps. The port blocks are drawn
    from ``rng`` alone, in channel order: start +, stop +, start -, stop -.

    A stop block's dark counts are drawn by :func:`generate_dark_counts`
    with the windows of the starts drawn before it, whose block keys are
    sorted as soon as they are packed. The edge bands are the half-width,
    the path delay and 12 start jitter sigmas (+1 ps) wide, past which no
    start of another slice reaches. Outside the windows and bands the stop +
    block draws the number of its dark counts; a count of the + ports alone
    stops there and returns that number. Every other slice draws their
    positions next. A count of all four ports draws no stop - dark count
    outside the windows and bands; a record draws them as a Poisson process
    on the interior that loses the ones inside a window.

    Those outside draws that a start of an earlier block reaches are found
    after the sort, by :func:`fransim.events.pair_positions`: the paired stop
    keys less the block keys drawn in the windows and bands (equal keys are
    alike). A stop - one is dropped, a stop + one redrawn from the first
    child of ``rng`` (:func:`_redraw`), so the redraws do not depend on how
    far ``rng`` has been drawn. Without ``out`` the key buffer is sized from
    the expected count of the keys the slice keeps plus 9 of its standard
    deviations; a block that does not fit grows it.

    With ``monitored_only`` the slice stops after the two + blocks, so its
    keys are exactly the + port keys of the full slice,
    ``full[(full & 2) == 0]``, and a count of them the + part of a count of
    the full slice.
    """
    src = config.source
    end_ps = t0_ps + max(1, round(dur / PS))  # a sub-ps last slice keeps one grid point
    delay = round(config.analyzer1.path_delay / PS)
    half = round(config.tphc.window_width / 2 / PS)
    band = half + delay + math.ceil(JITTER_SIGMAS * fwhm_to_sigma(
        config.detector_start.jitter_fwhm) / PS) + 1
    lo = min(t0_ps + band, end_ps)
    hi = max(end_ps - band, lo)
    split = src.pair_rate * src.split_efficiency * dur
    eta1 = src.arm1_transmission * config.detector_start.efficiency
    eta2 = src.arm2_transmission * config.detector_stop.efficiency
    last = 1 if monitored_only else 3
    keys = out if out is not None else np.empty(
        _buffer_size(config, dur, monitored_only, count_only), np.int64)
    end = 0

    def put(times, channel):
        nonlocal keys, end
        if end + len(times) > len(keys):
            keys = np.concatenate([keys[:end], np.empty(max(len(times), len(keys)), np.int64)])
        pack_into(keys[end:end + len(times)], times, channel)
        end += len(times)

    n_both = rng.poisson(split * eta1 * eta2)
    emission = rng.integers(t0_ps, end_ps, n_both)
    cells = rng.choice(16, n_both, p=probs)  # bits: start arm, stop arm, start port, stop port
    sides = ((config.detector_start, 3, 1, split * eta1 * (1.0 - eta2)),
             (config.detector_stop, 2, 0, split * (1.0 - eta1) * eta2))
    starts, inner, unplaced, outside = [], [], 0, False
    for channel in range(last + 1):
        det, arm_bit, port_bit, mean_one = sides[channel & 1]
        both = (cells >> port_bit & 1) == channel >> 1
        both_time = emission[both] + delay * (cells[both] >> arm_bit & 1)
        one_time = rng.integers(t0_ps, end_ps, rng.poisson(mean_one / 2))
        # The times are i.i.d., so taking the first Binomial(n, 1/2) of
        # them as the long-arm ones is the same law as a coin per event.
        one_time[:rng.binomial(len(one_time), 0.5)] += delay
        times = apply_jitter(np.concatenate([both_time, one_time]), det, rng)
        begin = end
        put(times, channel)
        if channel & 1 == 0:  # the block's sorted keys give the starts of the windows
            put(generate_dark_counts(det.dark_rate, dur, rng, t0_ps), channel)
            keys[begin:end].sort()
            starts.append(keys[begin:end])
            continue
        reach = StartReach(starts[:], half, t0_ps, end_ps, lo, hi, count=channel == CH_STOP_PLUS,
                           place=not (count_only and channel == last))
        put(generate_dark_counts(det.dark_rate, dur, rng, t0_ps, reach), channel)
        # The block's keys but its outside dark counts, which come last.
        inner.append(keys[begin:end - reach.outside * reach.place].copy())
        unplaced += reach.outside * (not reach.place)
        if reach.place and reach.outside:
            outside = True
        else:
            keys[begin:end].sort()  # one more sorted run
        if channel == CH_STOP_PLUS:
            plus = reach  # the redraws keep out of its windows
    keys = keys[:end]
    if not outside:
        keys.sort(kind="stable")  # a merge of the sorted block runs
    else:  # find the outside dark counts that a start of an earlier block reaches
        plus.starts = [s.copy() for s in plus.starts]  # for the redraws: the sort moves them
        keys.sort()
        first, second = pair_positions(keys, half)
        stops = np.sort(second[(keys[first] & 3) < (keys[second] & 3)])
        stops = stops[np.diff(stops, prepend=-1) > 0]
        # Less the inner keys of the blocks, which may lie there; equal keys are alike.
        values, inner = keys[stops], np.sort(np.concatenate(inner))
        rank = np.arange(len(values)) - np.searchsorted(values, values)
        drop = stops[rank >= np.searchsorted(inner, values, "right")
                     - np.searchsorted(inner, values)].tolist()
        moved = np.count_nonzero(keys[drop] & 3 == CH_STOP_PLUS)
        redrawn = _redraw(moved, plus, rng.spawn(1)[0]) * 4 + CH_STOP_PLUS
        keys = keys[:_mend(keys, drop, np.sort(redrawn))]
    return keys, unplaced


def _in_order(make, n_jobs: int):
    """Yield ``make(job, buffer)`` for jobs 0, 1, ... in order, each a tuple
    whose first item is a view of its key buffer.

    More than one job is made on two pool threads (numpy releases the GIL in
    the draws, the sorts and the counts). Job ``j + 2`` is submitted, into
    the key buffer of job ``j``, once the caller asks for the result after
    job ``j``'s, so at most two buffers are in use. One job is made on this
    thread and starts no thread. Close the generator to end its threads.
    """
    if n_jobs < 2:
        yield from (make(job, None) for job in range(n_jobs))
        return
    with ThreadPoolExecutor(max_workers=2, thread_name_prefix="fransim-slice") as pool:
        ahead = deque(pool.submit(make, job, None) for job in range(2))
        for job in range(n_jobs):
            result = ahead.popleft().result()
            yield result
            if job + 2 < n_jobs:
                ahead.append(pool.submit(make, job + 2, result[0].base))


def _slice_durations(first_slice: int, duration: float) -> list[float]:
    """Durations of the 1 s slices of a span from slice ``first_slice``
    lasting ``duration`` seconds, the last one possibly shorter. Raises
    ``ValueError`` unless ``duration`` is finite and > 0 and the span ends
    within the packable time range (2**61 ps)."""
    if not (math.isfinite(duration) and duration > 0):
        raise ValueError(f"duration must be finite and > 0, got {duration}")
    end_ps = first_slice * SLICE_PS + round(duration / PS)
    if end_ps > PACK_LIMIT_PS:
        raise ValueError(f"the span ends at {end_ps} ps, past the {PACK_LIMIT_PS} ps "
                         f"(about 26.7 days) that event keys can hold")
    n_slices = max(1, int(math.ceil(duration / SLICE_SECONDS)))
    return [min(SLICE_SECONDS, duration - n * SLICE_SECONDS) for n in range(n_slices)]


def emit_event_stream(config: ExperimentConfig, d1: float, d2: float, duration: float,
                      seed: int, *, start: float = 0.0, out: np.ndarray | None = None,
                      law: str = "quantum", monitored_only: bool = False,
                      count_only: bool = False) -> EventStream:
    """Detection record of ``[start, start + duration)``, made by slices
    ``start / SLICE_SECONDS, ...`` of the run.

    ``start`` must be a non-negative whole number of slices, and the span must
    end within 2**61 ps. Each slice draws from its own (seed, slice index)
    stream, so merging the keys of consecutive spans gives the record of the
    whole span; a span of several slices is made on two pool threads (see
    :func:`_in_order`) and its slices are sorted together only if one
    reaches before the end of an earlier one. Feeding a whole-run record
    (``start = 0``) into :func:`fransim.events.window_coincidences`
    reproduces :func:`simulate_setting` exactly for the same seed. For a
    one-slice span,
    an int64 ``out`` large enough for the slice receives its keys and the
    stream's keys are a view of it; a smaller one is replaced by a new array.
    ``law`` names the law of pairs detected on both sides in
    :data:`fransim.quantum.PAIR_LAWS`. With ``monitored_only`` the record
    holds the + ports alone. Each slice draws its port blocks in channel
    order and stops after the two + blocks, which are the full slice's first
    two, so the record is exactly the + subset of the full record of the same
    (config, seed).

    With ``count_only`` the stream is made for counting, not as a record:
    the stop dark counts that no start can reach are left without positions
    (see :func:`_slice_keys`). Those of the stop + port are counted in
    ``unplaced_stop_plus`` when only the + ports are made; those of the stop
    - port are not drawn. Every count of
    :func:`fransim.events.window_coincidences` equals the record's.
    """
    first, rest = divmod(start, SLICE_SECONDS)
    if not start >= 0 or rest:
        raise ValueError(f"start must be a non-negative whole number of "
                         f"{SLICE_SECONDS} s slices, got {start}")
    durations = _slice_durations(int(first), duration)
    validate_config(config)
    if out is not None and (len(durations) > 1 or out.dtype != np.int64):
        raise ValueError(f"out takes the int64 keys of one slice, "
                         f"got {len(durations)} of {out.dtype}")
    if law not in PAIR_LAWS:
        raise ValueError(f"unknown pair law {law!r}, expected one of {sorted(PAIR_LAWS)}")
    # V' = V·exp(-(σ1² + σ2²)/2) is V averaged over each pair's white phase noise.
    vis = config.visibility * math.exp(-(config.analyzer1.phase_noise_sigma ** 2
                                         + config.analyzer2.phase_noise_sigma ** 2) / 2)
    probs = PAIR_LAWS[law](d1, d2, vis)

    def make(job, into):
        k = int(first) + job
        return _slice_keys(config, probs, k * SLICE_PS, durations[job],
                           np.random.default_rng([seed, k]), into,
                           monitored_only=monitored_only, count_only=count_only)

    if len(durations) == 1:
        return EventStream(duration, *make(0, out))
    keys = np.empty(_buffer_size(config, duration, monitored_only, count_only),
                    np.int64)
    end = unplaced = 0
    ordered = True
    with closing(_in_order(make, len(durations))) as parts:
        for part, n in parts:
            if end and len(part) and part[0] < keys[end - 1]:
                ordered = False
            if end + len(part) > len(keys):
                keys = np.concatenate([keys[:end], np.empty(max(len(part), len(keys)), np.int64)])
            keys[end:end + len(part)] = part
            end += len(part)
            unplaced += n
    keys = keys[:end]
    if not ordered:
        keys.sort(kind="stable")  # a merge of the sorted slice runs
    return EventStream(duration, keys, unplaced)


def simulate_setting(config: ExperimentConfig, d1: float, d2: float,
                     duration: float, seed: int) -> CountSummary:
    """Simulate one phase setting and window-discriminate the coincidences:
    :func:`simulate_settings` of the one setting ``(d1, d2, seed)``."""
    return simulate_settings(config, [(d1, d2, seed)], duration)[0]


def simulate_settings(config: ExperimentConfig, settings: Sequence[tuple[float, float, int]],
                      duration: float, *, law: str = "quantum",
                      monitored_only: bool = False) -> list[CountSummary]:
    """Simulate each phase setting ``(d1, d2, seed)`` for ``duration`` and
    window-discriminate its coincidences, pairs detected on both sides
    following the pair law named ``law``; one count summary per setting.

    The 1 s slices of all the settings are one pipeline of jobs, in order,
    run by :func:`_in_order`, so at most two slices are alive. Each job
    makes one slice with :func:`emit_event_stream` for counting
    (``count_only``: the stop dark counts that no start can reach get no
    position) and counts it alone with
    :func:`fransim.events.window_coincidences`.

    A pair is counted with its later event's slice. With no keys carried from
    earlier slices of the setting, the slice's own count is taken; otherwise
    the slice's keys merged with the carry are counted, less the count of the
    carry alone, whose pairs and singles an earlier slice counted. The carry
    keeps the merged events at or past ``t0 - margin - reach`` of the next
    slice, where ``reach`` is the window's half-width and ``margin`` is
    ``reach`` plus ``JITTER_SIGMAS`` of the larger detector jitter.

    That is exact because each slice is checked, on its first key, to emit
    no event before its ``t0 - margin``, and the partner of any of its
    events lies within ``reach``; a violation raises ``RuntimeError``.
    Counts and singles equal ``window_coincidences`` on the whole-run
    :func:`emit_event_stream` record of the setting, and the accidental
    estimate comes once from the singles totals, the estimator the
    whole-stream path uses. With ``monitored_only`` only the + ports are made
    and counted (see :func:`emit_event_stream`); pairings with a - port read 0.
    """
    durations = _slice_durations(0, duration)
    validate_config(config)
    reach = round(config.tphc.window_width / 2 / PS)
    sigma = fwhm_to_sigma(max(config.detector_start.jitter_fwhm,
                              config.detector_stop.jitter_fwhm))
    # +1 ps covers rounding the jittered times to the grid.
    margin = reach + math.ceil(JITTER_SIGMAS * sigma / PS) + 1
    n_slices, n_jobs = len(durations), len(settings) * len(durations)

    def tally(keys, unplaced=0):
        """The pairings, then the start and stop singles, of ``keys`` alone."""
        counted = window_coincidences(EventStream(SLICE_SECONDS, keys, unplaced), config.tphc)
        return np.array([*map(counted.coincidences.get, OUTCOMES), counted.singles_start,
                         counted.singles_stop], np.int64)

    def make(job, out):
        (d1, d2, seed), k = settings[job // n_slices], job % n_slices
        stream = emit_event_stream(config, d1, d2, durations[k], seed, start=k * SLICE_SECONDS,
                                   out=out, law=law, monitored_only=monitored_only,
                                   count_only=True)
        return stream.keys, stream.unplaced_stop_plus, tally(stream.keys,
                                                             stream.unplaced_stop_plus)

    summaries = []
    carry = np.empty(0, np.int64)  # sorted keys of earlier events a later slice may reach
    totals = np.zeros(len(OUTCOMES) + 2, np.int64)
    with closing(_in_order(make, n_jobs)) as slices:
        for job, (keys, unplaced, alone) in enumerate(slices):
            k = job % n_slices
            floor = k * SLICE_PS - margin
            if len(keys) and keys[0] >> 2 < floor:
                raise RuntimeError(
                    f"slice {k} emitted a {CHANNEL_PORTS[keys[0] & 3]} event at "
                    f"{keys[0] >> 2} ps, before its {floor} ps floor: the {margin} ps "
                    f"stream margin is too small")
            if len(carry):  # the carry's own pairs and singles were counted with an earlier slice
                keys = np.insert(keys, np.searchsorted(keys, carry), carry)
                totals += tally(keys, unplaced) - tally(carry)
            else:
                totals += alone
            if k + 1 < n_slices:
                bound = 4 * ((k + 1) * SLICE_PS - margin - reach)
                # A copy: the key buffer goes to the job two places on.
                carry = keys[np.searchsorted(keys, bound):].copy()
            else:
                *coinc, singles_start, singles_stop = totals.tolist()
                summaries.append(CountSummary.from_counts(
                    duration, singles_start, singles_stop, dict(zip(OUTCOMES, coinc)),
                    config.tphc.window_width))
                carry, totals = carry[:0], np.zeros_like(totals)
    return summaries

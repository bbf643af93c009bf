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
from dataclasses import dataclass, field
from itertools import islice
from typing import Sequence

import numpy as np

from .config import (JITTER_SIGMAS, SLICE_SECONDS, DetectorParams, ExperimentConfig,
                     fwhm_to_sigma, validate_config)
from .events import (
    CH_START_MINUS,
    CH_START_PLUS,
    CH_STOP_MINUS,
    CH_STOP_PLUS,
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

    With ``reach``, block (a) of a stop port, drawn where a start can reach
    (a Poisson process on disjoint regions is one independent process per
    region): first Poisson(rate · N · W) candidates in the windows of the N
    ``reach.starts``, W = 2R + 1 grid points each, each at a uniform offset
    from the window of a start index drawn uniformly, which is appended to
    ``reach.picks``; then the edge bands E, whole. :func:`_slice_keys` keeps
    a candidate if it lies in the interior and no start of a lower index
    reaches it, so each point of U is drawn by its first window in draw
    order alone, and the rejected ones are an independent Poisson count.
    """
    if rate < 0:
        raise ValueError(f"dark rate must be >= 0, got {rate}")
    if reach is None:
        n = rng.poisson(rate * duration)
        return rng.integers(t0_ps, t0_ps + max(1, round(duration / PS)), n)
    mu, starts, half, lo, hi = rate * PS, reach.starts, reach.half, reach.lo, reach.hi
    windows = len(starts) * (2 * half + 1) if hi > lo else 0  # none meets an empty I
    pick = rng.integers(0, len(starts), rng.poisson(mu * windows))
    reach.picks.append(pick)
    x = (starts[pick] >> 2) + rng.integers(-half, half + 1, len(pick))
    front, edge = lo - reach.t0, lo - reach.t0 + reach.end - hi
    at = rng.integers(0, edge, rng.poisson(mu * edge))
    return np.concatenate([x, np.where(at < front, reach.t0 + at, hi - front + at)])


@dataclass
class StartReach:
    """Where the starts can pair with the dark counts of the stop ports of
    the slice [t0, end) (see :func:`generate_dark_counts`).

    U is the windows [s - half, s + half] of the start times s of
    ``starts``, the keys of every start block the slice draws, in draw
    order (see :func:`fransim.events.pack_keys`). E is the two edge bands,
    [t0, lo) and [hi, end), which the starts of the neighbouring slices can
    reach; between them lies the interior, I. ``picks`` holds the window of
    each candidate of block (a), one array a stop port.
    """

    starts: np.ndarray
    half: int
    t0: int
    end: int
    lo: int
    hi: int
    picks: list = field(default_factory=list)


def _near(reach: StartReach, points: np.ndarray, keep: int) -> np.ndarray:
    """The positions in ``reach.starts``, in time order, of every start
    within ``reach.half`` of one of the times ``points``, before max(t0 +
    keep, lo + half) or from min(end - keep, hi - half) on, and of a few
    more: one pass over the unsorted keys, through a table of bins of 2**k
    ps, each longer than a window and about 2**16 of them (so the table
    stays in cache). It marks the one or two bins that the window of each
    point meets and the bins of the two edge ranges; a start is taken if
    the bin of its time, clipped to the table, is marked.
    """
    half, t0, starts = reach.half, reach.t0, reach.starts
    k = max((2 * half + 1).bit_length(), ((reach.end - t0) >> 16).bit_length())
    last = ((reach.end - 1) >> k) - (t0 >> k)
    table = np.zeros(last + 1, bool)
    table[np.clip((np.r_[points - half, points + half] >> k) - (t0 >> k), 0, last)] = True
    table[:((max(t0 + keep, reach.lo + half) - 1) >> k) - (t0 >> k) + 1] = True
    table[max(0, (min(reach.end - keep, reach.hi - half) >> k) - (t0 >> k)):] = True
    at = np.concatenate([np.empty(0, np.int64)] + [  # a chunk at a time: small temporaries
        c + np.flatnonzero(table.take((starts[c:c + _CHUNK] >> (k + 2)) - (t0 >> k), mode="clip"))
        for c in range(0, len(starts), _CHUNK)])
    return at[np.argsort(starts[at])]


def _reaches(times: np.ndarray, points: np.ndarray, half: int) -> np.ndarray:
    """Whether each of ``points`` lies within ``half`` of one of the sorted
    ``times``: whether the first of them from ``point - half`` on is."""
    times = np.append(times, np.iinfo(np.int64).max)
    return times[np.searchsorted(times, points - half)] <= points + half


def _within(times: np.ndarray, points: np.ndarray, half: int):
    """``(i, j)`` for each point ``points[i]`` and time ``times[j]`` of the
    sorted ``times`` within ``half`` of each other. The points are searched
    in time order, which a search of many of them runs several times faster."""
    order = np.argsort(points)
    a = np.searchsorted(times, points[order] - half)
    n = np.searchsorted(times, points[order] + half, "right") - a
    return np.repeat(order, n), np.arange(n.sum()) + np.repeat(a - np.cumsum(n) + n, n)


def _reached(x: np.ndarray, keys: np.ndarray, j: np.ndarray, half: int) -> np.ndarray:
    """Whether a start key of the sorted ``keys`` lies within ``half`` of
    each of the (few) times ``x``, where ``keys[j]`` is the first key at or
    past ``x - half``: the keys from ``j`` on, one round a key."""
    found = np.zeros(len(x), bool)
    todo, j = np.arange(len(x)), np.array(j)
    while len(todo):
        todo = todo[j[todo] < len(keys)]
        key = keys[j[todo]]
        near = key >> 2 <= x[todo] + half
        todo, key = todo[near], key[near]
        hit = key & 1 == 0
        found[todo[hit]] = True
        todo = todo[~hit]
        j[todo] += 1
    return found


def _redraw(n: int, keys: np.ndarray, reach: StartReach, free: int,
            rng: np.random.Generator) -> np.ndarray:
    """``n`` times uniform on the grid points of the interior of ``reach``
    outside every window of the start keys of the sorted ``keys``, at least
    ``free`` of them: uniform draws on the interior, each kept if no start
    key reaches it. Each round draws as many as keep the ``n`` still missing
    on average if ``free`` were their number, at most a chunk, and takes the
    first of them it keeps."""
    kept, need = [], n
    while need:
        x = rng.integers(reach.lo, reach.hi,
                         min(math.ceil(need * (reach.hi - reach.lo) / free), _CHUNK))
        x = x[~_reached(x, keys, np.searchsorted(keys, 4 * (x - reach.half)), reach.half)]
        kept.append(x[:need])
        need -= len(kept[-1])
    return np.concatenate(kept) if kept else np.empty(0, np.int64)


def _buffer_size(config: ExperimentConfig, dur: float, monitored_only: bool,
                 count_only: bool) -> int:
    """The expected count of the keys that ``dur`` seconds of slices place,
    plus 9 of its standard deviations. Of the stop dark counts, a count
    places only those in the windows of the starts it makes, about ports ·
    start rate · window of them a second on each stop port (bands aside)."""
    src, start_det, stop_det = config.source, config.detector_start, config.detector_stop
    split = src.pair_rate * src.split_efficiency * dur
    ports = 1 if monitored_only else 2
    start = split * src.arm1_transmission * start_det.efficiency / 2 + dur * start_det.dark_rate
    kept = min(1.0, ports * start / dur * config.tphc.window_width) if count_only else 1.0
    stop = (split * src.arm2_transmission * stop_det.efficiency / 2
            + kept * dur * stop_det.dark_rate)
    mean = ports * (start + stop)
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
                monitored_only: bool = False,
                count_only: bool = False) -> tuple[np.ndarray, int, int]:
    """One time slice's events as sorted packed keys (see
    :func:`fransim.events.pack_keys`), a view of ``out`` if they fit in it,
    and the numbers of stop + and of start + events left without a position.

    Loss thins the split pairs independently on each side, so (colouring
    theorem) pairs detected on both sides and each side's one-sided events are
    independent Poisson streams. Only the first needs the joint law, one draw
    per pair from the 16 cell probabilities ``probs`` (see
    :func:`fransim.quantum.cell_law`); one-sided events take its marginals,
    which every pair law shares: a uniform port and the long arm with prob. 1/2.
    Times are drawn uniformly on the 1 ps grid from ``t0_ps``, and the path
    delay and the jitter are rounded to whole ps.

    The stop dark counts are drawn in three blocks a port: (a) those in U ∪
    E (see :func:`generate_dark_counts`), where U is the windows of every
    start the slice draws and E the edge bands, the half-width, the path
    delay and 12 start jitter sigmas (+1 ps) wide, past which no start of
    another slice reaches; (b) the number of the rest, Poisson on the
    interior I less U; and (d) their positions. Everything is drawn from
    ``rng`` alone, in this order:

    1. start +, then, unless ``monitored_only``, start -, packed in draw
       order and never sorted before the stops are placed;
    2. the stop + photons and (a+), then, unless ``monitored_only``, the
       stop - photons and (a-);
    3. the number (b+): Poisson(mu (|I| - S)), S the sum of |w ∩ I| over
       the start windows w, plus the rejected (a+) candidates in I, two
       independent Poisson counts of means mu (|I| - S) and mu (S - |U ∩
       I|); or, if S > |I|, the number of Poisson(mu |I|) uniform test
       points on I that no window covers.

    Which candidates are kept, S, and which starts a count keeps come from
    one pass over the start keys (:func:`_near`) and exact checks on the
    few starts it finds. A count (``count_only``) stops after (b+), as its
    unplaced stop + events; it draws no number of the stop - dark counts
    outside U ∪ E, which no count reads. A record goes on to (d+), the (b+)
    stop + positions, uniform on I, then, unless ``monitored_only``, (d-),
    a Poisson process on I. So a count's draws are the first draws of the
    record of its ports.

    A count keeps only the start keys that can pair: those within the
    half-width of a stop it placed, and those within ``keep`` of a slice
    edge, the half-width, the path delay and 12 stop jitter sigmas (+1 ps),
    as far as the stop photons of a neighbouring slice reach (its stop dark
    counts stay in it). The start + keys it leaves out are a number, and the
    kept keys, sorted with the stops, are written at the front of the
    buffer. A record sorts all its keys once and then finds the (d) draws
    that a start reaches, by :func:`fransim.events.pair_positions`: the
    paired stop keys less the keys drawn in the windows and bands (equal
    keys are alike). A (d-) one is dropped, a (d+) one redrawn from the
    first child of ``rng`` (:func:`_redraw`), so the redraws do not depend
    on how far ``rng`` has been drawn. Without ``out`` the key buffer is
    sized from the expected count of the keys the slice places plus 9 of
    its standard deviations; a block that does not fit grows it.
    """
    src, start_det, stop_det = config.source, config.detector_start, config.detector_stop
    end_ps = t0_ps + max(1, round(dur / PS))  # a sub-ps last slice keeps one grid point
    delay = round(config.analyzer1.path_delay / PS)
    half = round(config.tphc.window_width / 2 / PS)

    def band_of(det):  # how far into the slice det's side of a neighbour can pair
        return half + delay + math.ceil(JITTER_SIGMAS * fwhm_to_sigma(det.jitter_fwhm) / PS) + 1

    band, keep = band_of(start_det), band_of(stop_det)
    lo = min(t0_ps + band, end_ps)
    hi = max(end_ps - band, lo)
    split = src.pair_rate * src.split_efficiency * dur
    eta1 = src.arm1_transmission * start_det.efficiency
    eta2 = src.arm2_transmission * stop_det.efficiency
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
    sides = ((start_det, 3, 1, split * eta1 * (1.0 - eta2)),
             (stop_det, 2, 0, split * (1.0 - eta1) * eta2))

    def photons(channel):
        det, arm_bit, port_bit, mean_one = sides[channel & 1]
        both = (cells >> port_bit & 1) == channel >> 1
        both_time = emission[both] + delay * (cells[both] >> arm_bit & 1)
        one_time = rng.integers(t0_ps, end_ps, rng.poisson(mean_one / 2))
        # The times are i.i.d., so taking the first Binomial(n, 1/2) of
        # them as the long-arm ones is the same law as a coin per event.
        one_time[:rng.binomial(len(one_time), 0.5)] += delay
        return apply_jitter(np.concatenate([both_time, one_time]), det, rng)

    def put_start(channel):
        put(photons(channel), channel)
        put(generate_dark_counts(start_det.dark_rate, dur, rng, t0_ps), channel)

    put_start(CH_START_PLUS)
    plus_starts = end
    if not monitored_only:
        put_start(CH_START_MINUS)
    starts = end
    reach = StartReach(keys[:end], half, t0_ps, end_ps, lo, hi)
    ports = (CH_STOP_PLUS,) if monitored_only else (CH_STOP_PLUS, CH_STOP_MINUS)
    darks = []
    for channel in ports:
        put(photons(channel), channel)
        darks.append(generate_dark_counts(stop_det.dark_rate, dur, rng, t0_ps, reach))
    # A count keeps the starts near its stop photons; a record keeps all.
    near = _near(reach, np.concatenate([keys[starts:end if count_only else starts] >> 2, *darks]),
                 keep)
    times = reach.starts[near] >> 2
    for channel, dark, pick in zip(ports, darks, reach.picks):
        x = dark[:len(pick)]
        i, j = _within(times, x, half)
        early = np.zeros(len(x), bool)
        early[i[near[j] < pick[i]]] = True
        if channel == CH_STOP_PLUS:  # the (a+) candidates in I that an earlier window covers
            rejected = int(np.count_nonzero(early & (x >= lo) & (x < hi)))
        put(np.delete(dark, np.flatnonzero(early | (x < lo) | (x >= hi))), channel)
    mu, interior = stop_det.dark_rate * PS, hi - lo
    covers = (starts - len(near)) * (2 * half + 1) + int(np.maximum(
        np.minimum(times + half + 1, hi) - np.maximum(times - half, lo), 0).sum())  # S
    if covers <= interior:
        unplaced = rng.poisson(mu * (interior - covers)) + rejected  # (b+)
    else:  # the windows outgrow I: test points on I that no window covers
        x = rng.integers(lo, hi, rng.poisson(mu * interior))
        unplaced = int(np.count_nonzero(~_reaches(reach.starts[_near(reach, x, keep)] >> 2, x,
                                                  half)))
    if count_only:
        stops = np.sort(keys[starts:end])
        held = ((times < t0_ps + keep) | (times >= end_ps - keep)
                | _reaches(stops >> 2, times, half))
        kept = np.sort(np.concatenate([reach.starts[near[held]], stops]), kind="stable")
        keys[:len(kept)] = kept
        plus_kept = int(np.count_nonzero(kept & 3 == CH_START_PLUS))
        return keys[:len(kept)], unplaced, plus_starts - plus_kept
    drawn = end
    outside = [unplaced] if monitored_only else [unplaced, rng.poisson(mu * interior)]
    for channel, n in zip(ports, outside):
        for at in range(0, n, _CHUNK):  # (d+), then (d-), a chunk at a time
            put(rng.integers(lo, hi, min(_CHUNK, n - at)), channel)
    keys = keys[:end]
    inner = np.sort(keys[starts:drawn])  # the stop keys drawn in the windows and bands
    keys.sort()
    if end == drawn:
        return keys, 0, 0
    # The (d) draws that a start reaches: the paired stop keys less the inner ones.
    stops = np.unique(pair_positions(keys, half)[1])
    values = keys[stops]
    rank = np.arange(len(values)) - np.searchsorted(values, values)
    drop = stops[rank >= np.searchsorted(inner, values, "right")
                 - np.searchsorted(inner, values)].tolist()
    moved = np.count_nonzero(keys[drop] & 3 == CH_STOP_PLUS)
    free = max(1, interior - covers)  # |I| - S <= |I - U|
    redrawn = _redraw(moved, keys, reach, free, rng.spawn(1)[0]) * 4 + CH_STOP_PLUS
    return keys[:_mend(keys, drop, np.sort(redrawn))], 0, 0


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


def _join(parts, duration: float, size: int) -> EventStream:
    """The stream of ``duration`` whose keys are the sorted key runs of
    consecutive slices, ``(keys, unplaced stop +, unplaced start +)`` each,
    copied in order into one array of ``size`` keys that grows when a run
    does not fit, and sorted (a stable merge of the runs) only if a run
    starts before the end of the one before it. Each run is copied before the
    next is taken, so its buffer may then be reused."""
    keys = np.empty(size, np.int64)
    end = unplaced = unplaced_start = 0
    ordered = True
    for part, n_stop, n_start in parts:
        if end and len(part) and part[0] < keys[end - 1]:
            ordered = False
        if end + len(part) > len(keys):
            keys = np.concatenate([keys[:end], np.empty(max(len(part), len(keys)), np.int64)])
        keys[end:end + len(part)] = part
        end += len(part)
        unplaced += n_stop
        unplaced_start += n_start
    keys = keys[:end]
    if not ordered:
        keys.sort(kind="stable")
    return EventStream(duration, keys, unplaced, unplaced_start)


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
    :func:`_in_order`) and joined by :func:`_join`, into an array sized for a
    record (see :func:`_buffer_size`) or grown from the few keys that each
    slice of a count keeps. Feeding a whole-run record (``start = 0``) into
    :func:`fransim.events.window_coincidences` reproduces
    :func:`simulate_setting` exactly for the same seed. For a one-slice span,
    an int64 ``out`` large enough for the slice receives its keys and the
    stream's keys are a view of it; a smaller one is replaced by a new array.
    ``law`` names the law of pairs detected on both sides in
    :data:`fransim.quantum.PAIR_LAWS`.

    With ``count_only`` the stream is made for counting, not as a record:
    the stop dark counts that no start can reach, and then the starts that
    no event can reach, are left without positions (see :func:`_slice_keys`).
    Those of the + ports are counted in ``unplaced_stop_plus`` and
    ``unplaced_start_plus``; the stop - ones are not drawn and the start -
    ones are dropped. Its keys are record keys, and every count of
    :func:`fransim.events.window_coincidences` equals the record's. With
    ``monitored_only`` only the + ports are made, as a record or as a count:
    each slice draws its start + and stop + blocks alone. So a count of the
    + ports equals the record of the + ports, not the + part of the full
    count of the same seed.
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
    size = 0 if count_only else _buffer_size(config, duration, monitored_only, False)
    with closing(_in_order(make, len(durations))) as parts:
        return _join(parts, duration, size)


def simulate_setting(config: ExperimentConfig, d1: float, d2: float,
                     duration: float, seed: int) -> CountSummary:
    """Simulate one phase setting and count its window coincidences once,
    over the whole dwell: :func:`simulate_settings` of ``(d1, d2, seed)``."""
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
    (``count_only``, see :func:`_slice_keys`), which keeps only the keys
    that can pair. The calling thread joins the slices of a setting with
    :func:`_join`, as a multi-slice count of :func:`emit_event_stream` does,
    and counts them once with :func:`fransim.events.window_coincidences`, so
    the counts and singles equal those of the setting's whole-run record.
    With ``monitored_only`` only the + ports are made and counted (see
    :func:`emit_event_stream`): pairings with a - port read 0, and the
    others equal those of the setting's whole-run record of the + ports.
    """
    durations = _slice_durations(0, duration)
    validate_config(config)
    n_slices = len(durations)

    def make(job, out):
        (d1, d2, seed), k = settings[job // n_slices], job % n_slices
        stream = emit_event_stream(config, d1, d2, durations[k], seed, start=k * SLICE_SECONDS,
                                   out=out, law=law, monitored_only=monitored_only,
                                   count_only=True)
        return stream.keys, stream.unplaced_stop_plus, stream.unplaced_start_plus

    with closing(_in_order(make, len(settings) * n_slices)) as slices:
        return [window_coincidences(_join(islice(slices, n_slices), duration, 0), config.tphc)
                for _ in settings]

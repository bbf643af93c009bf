"""Monte Carlo engine: timestamped detection events from apparatus parameters.

The run duration is cut into fixed 1 s slices, each driven by a random stream
derived from (seed, slice index), so results are reproducible and independent
of which thread makes each slice: a record's slices are made on two pool
threads, a count's on the calling thread. Each slice is drawn in integer
picoseconds from its start into one sorted array of event keys: its pairs,
and the dark counts and one-sided photons of every port as one homogeneous
Poisson process, since the source is already running when the run starts.
A count draws positions only for the events that can pair and counts the
rest; a record makes the same draws and fills in the rest, so a count
equals the count of its record (see :func:`_slice_keys`). Each setting is
one count of its whole dwell, counted once (see :func:`simulate_settings`).
"""
from __future__ import annotations

import math
from collections import deque
from contextlib import closing
from concurrent.futures import ThreadPoolExecutor
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
# A reveal's threshold θ sits this many standard deviations (+ as many
# spacings) above the mean of its spacings' sum (see _reveal).
_SPREAD = 8
# A slice whose segments would hold fewer points than this on average
# draws all of its points instead (see _slice_keys).
_FEW = 8


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
                         t0_ps: int = 0) -> np.ndarray:
    """Homogeneous Poisson process: int64 ps times, uniform on the 1 ps grid of
    [t0_ps, t0_ps + duration), in draw order."""
    if rate < 0:
        raise ValueError(f"dark rate must be >= 0, got {rate}")
    n = rng.poisson(rate * duration)
    return rng.integers(t0_ps, t0_ps + max(1, round(duration / PS)), n)


def _skips(n: np.ndarray, p: np.ndarray, rng: np.random.Generator):
    """``(i, index)`` of each member, in order, of a Bernoulli(``p[i]``)
    subset of each range [0, ``n[i]``), drawn by geometric skips in O(its
    size) at any density. Each round draws, for each range not yet passed,
    the skips expected to pass it plus 4 standard deviations and 1."""
    found, last = [], np.full(len(n), -1)
    todo = np.flatnonzero(n > 0)
    while len(todo):
        left = (n[todo] - 1 - last[todo]) * p[todo]
        m = (left + 4 * np.sqrt(left) + 1).astype(np.int64)
        of = np.repeat(todo, m)
        at = np.cumsum(rng.geometric(p[of]))
        ends = np.cumsum(m) - 1
        at += np.repeat(last[todo] - np.append(0, at[ends[:-1]]), m)
        inside = at < n[of]
        found.append((of[inside], at[inside]))
        more = at[ends] < n[todo]
        last[todo] = at[ends]
        todo = todo[more]
    i, at = (np.concatenate([f[k] for f in found] + [np.empty(0, np.int64)]) for k in (0, 1))
    order = np.argsort(i, kind="stable")
    return i[order], at[order]


def _reveal(a: np.ndarray, b: np.ndarray, c: float, g: int, rng: np.random.Generator):
    """Reveal the points of a Poisson process of ``c`` points a ps on the
    segments [a, b) (ps) that lie within ``g`` ps of another point or of a
    segment end, exactly, in O(points revealed) at any density.

    A segment of length L draws N ~ Poisson(cL); its N + 1 spacings are
    L·E_i/Σ, E_i i.i.d. Exp(1), Σ their sum (Pyke, "Spacings", JRSS B 27,
    1965). With θ = g(N + 1 + s(√(N + 1) + 1))/L, s = :data:`_SPREAD`, fixed
    first, E_0 and E_N are drawn, which place the first and the last point;
    then the inner spacings below θ, a Bernoulli(1 - e^-θ) set of indices
    (:func:`_skips`), each an Exp(1) truncated to [0, θ); a run of b inner
    spacings above θ sums to bθ + Gamma(b). A spacing below g is below θ
    unless gΣ/L >= θ (at most 1.3e-8 a segment, at N = 1, and 7e-16 at
    large N): such a segment's runs are revealed too, sorted uniforms on
    each run's Gamma excess. Every point next to a spacing below θ is
    revealed.

    Returns the revealed positions (float ps) and, for each run left with
    points, ``(base, span, step, size)``: its points, ``size`` of them, lie
    at base + j·step + span·U_(j), j = 1..size, U_(j) sorted uniforms, and
    step >= g.
    """
    length = (b - a).astype(np.float64)
    n = rng.poisson(c * length)
    a, length, n = a[n > 0], length[n > 0], n[n > 0]
    theta = g * (n + 1 + _SPREAD * (np.sqrt(n + 1) + 1)) / length
    p = -np.expm1(-theta)
    ends = rng.standard_exponential((len(n), 2))
    seg, at = _skips(n - 1, p, rng)
    close = -np.log1p(-rng.random(len(at)) * p[seg])
    k = np.bincount(seg, minlength=len(n))
    first = np.cumsum(k) - k
    far = np.insert(at, first + k, n - 1) - np.insert(at, first, -1) - 1  # b of each run
    run_seg = np.repeat(np.arange(len(n)), k + 1)
    run = far * theta[run_seg] + rng.standard_gamma(far)
    # Each segment's blocks: E_0, run 0, close 1, run 1, ..., close k, run k, E_N.
    width = 2 * k + 3
    start = np.cumsum(width) - width
    run_at = start[run_seg] + 1 + 2 * (np.arange(len(run)) - np.repeat(first + np.arange(len(n)),
                                                                      k + 1))
    blocks = np.empty(width.sum())
    blocks[start], blocks[start + width - 1] = ends.T
    blocks[run_at] = run
    blocks[start[seg] + 2 + 2 * (np.arange(len(at)) - first[seg])] = close
    total = np.add.reduceat(blocks, start) if len(start) else blocks
    scale = length / total
    x = np.cumsum(blocks) - np.repeat(np.cumsum(total) - total, width)  # each block's end
    x = np.repeat(a, width) + np.repeat(scale, width) * x
    point = np.ones(len(blocks), bool)  # a point ends each block but E_N and the empty runs
    point[start + width - 1] = False
    point[run_at[far == 0]] = False
    base, step = x[run_at] - scale[run_seg] * run, scale[run_seg] * theta[run_seg]
    span, size = scale[run_seg] * run - far * step, far - 1
    spill = (size > 0) & (g * total >= theta * length)[run_seg]
    r = np.repeat(np.arange(np.count_nonzero(spill)), size[spill])
    u = rng.random(len(r))
    u = u[np.lexsort((u, r))]
    j = np.arange(len(r)) - np.repeat(np.cumsum(size[spill]) - size[spill], size[spill]) + 1
    spilled = base[spill][r] + j * step[spill][r] + span[spill][r] * u
    kept = (size > 0) & ~spill
    return np.append(x[point], spilled), base[kept], span[kept], step[kept], size[kept]


def _fill(fill: np.ndarray, t0_ps: int, base, span, step, counts: np.ndarray,
          rng: np.random.Generator) -> None:
    """Write into ``fill`` the sorted keys of the runs of :func:`_reveal`
    (float ps from ``t0_ps``), ``counts[r, c]`` points of run r on channel
    c. Each channel's points are drawn uniform on their runs' spans, as
    doubles whose last two bits are the channel: positive doubles order as
    their int64 bits, so one sort puts every run in order. Point j of a run
    then moves by j steps and is floored to the ps grid. Both passes go a
    chunk at a time, so their temporaries stay in cache.
    """
    as_float = fill.view(np.float64)
    at = 0
    for channel, n in enumerate(counts.T):
        for i, j, runs, k in _chunks(n):
            u = as_float[at + i:at + j]
            rng.random(out=u)
            u *= np.repeat(span[runs], k)
            u += np.repeat(base[runs], k)
            fill[at + i:at + j] &= -4
            fill[at + i:at + j] |= channel
        at += n.sum()
    as_float.sort()
    sizes = counts.sum(1)
    offset = (1 - np.cumsum(sizes) + sizes) * step  # point j of a run moves by j steps
    for i, j, runs, k in _chunks(sizes):
        x = np.arange(i, j, dtype=np.float64)
        x *= np.repeat(step[runs], k)
        x += np.repeat(offset[runs], k)
        x += as_float[i:j]
        channel = fill[i:j] & 3
        channel += 4 * t0_ps
        fill[i:j] = x  # truncation floors a positive time
        fill[i:j] <<= 2
        fill[i:j] += channel


def _chunks(sizes: np.ndarray):
    """Yield ``(i, j, runs, k)`` for the :data:`_CHUNK`-long pieces [i, j)
    of ``sum(sizes)`` points laid out run after run, ``sizes[r]`` of run r:
    the slice ``runs`` of the runs the piece meets, ``k`` points of each."""
    ends = np.cumsum(sizes)
    for i in range(0, ends[-1] if len(ends) else 0, _CHUNK):
        j = min(i + _CHUNK, ends[-1])
        first, last = np.searchsorted(ends, [i, j - 1], "right")
        yield i, j, slice(first, last + 1), np.diff(ends[first:last], prepend=i, append=j)


def _packed(blocks, t0_ps: int) -> np.ndarray:
    """The sorted keys of the ``(times, channel)`` blocks, ps times from
    ``t0_ps``, each channel an int or an array of one per time."""
    keys = np.empty(sum(len(t) for t, _ in blocks), np.int64)
    at = 0
    for t, ch in blocks:
        pack_into(keys[at:at + len(t)], t + t0_ps, 0)
        keys[at:at + len(t)] += ch
        at += len(t)
    keys.sort()
    return keys


def _buffer_size(config: ExperimentConfig, dur: float, monitored_only: bool) -> int:
    """The expected count of the keys of ``dur`` seconds of a record, plus 9
    of its standard deviations."""
    src, start_det, stop_det = config.source, config.detector_start, config.detector_stop
    split = src.pair_rate * src.split_efficiency * dur
    start = split * src.arm1_transmission * start_det.efficiency / 2 + dur * start_det.dark_rate
    stop = split * src.arm2_transmission * stop_det.efficiency / 2 + dur * stop_det.dark_rate
    mean = (1 if monitored_only else 2) * (start + stop)
    return math.ceil(mean + 9 * math.sqrt(mean))


def _slice_keys(config: ExperimentConfig, probs: np.ndarray, t0_ps: int, dur: float,
                rng: np.random.Generator, out: np.ndarray | None = None, *,
                monitored_only: bool = False,
                count_only: bool = False) -> tuple[np.ndarray, int, int]:
    """One time slice's events as sorted packed keys (see
    :func:`fransim.events.pack_keys`) and the numbers of stop + and of
    start + events left without a position.

    Loss thins the split pairs independently on each side, so (colouring
    theorem) pairs detected on both sides and each side's one-sided events are
    independent Poisson streams. Only the first needs the joint law, one draw
    per pair from the 16 cell probabilities ``probs`` (see
    :func:`fransim.quantum.cell_law`); one-sided events take its marginal
    port, which every pair law shares: each port with prob. 1/2. Times are
    drawn on the 1 ps grid from ``t0_ps``, and the path delay and the jitter
    are rounded to whole ps.

    The source is already running when the run starts, so each port's
    one-sided photons are, like its dark counts, a homogeneous Poisson
    process on the whole slice (displacement theorem); together every stream
    but the pairs is one, C, each point's channel drawn from the rates. The
    edge bands E = [t0, lo) and [hi, end) are the half-width, the path delay
    and 12 jitter sigmas of the wider detector (+1 ps) wide, past which no
    pair photon of another slice can pair; the interior is I = [lo, hi).
    Everything is drawn from ``rng`` alone, in this order, for the + ports
    alone if ``monitored_only``:

    1. the pairs: cells, emission times, arm delays and each channel's jitter;
    2. C in one draw on E's two bands and on the windows [s - R, s + R] of
       the pair photons s in I, merged, or on the whole slice if I holds
       fewer than :data:`_FEW` points a gap between two of them, too few to
       reveal: then 3 has no segment;
    3. the rest of I, segments between the windows, by :func:`_reveal`;
    4. the channels of the C points of 2 and 3, then with one multinomial
       the numbers on each channel of each run that 3 left unrevealed.

    Only points of C within G = R + 2 ps of another event or of a segment
    end are revealed, so no pair involves an unrevealed point, even after
    each position is floored to the grid. A count (``count_only``) keeps
    the events outside I and those in a pair, and counts the + ones of the
    rest and of the runs as unplaced. A record goes on to :func:`_fill` the
    runs, so a count's draws are the first draws of the record of its
    ports. A record's keys are a view of ``out`` if they fit in it, else of
    a buffer of the expected key count plus 9 standard deviations, or more;
    a count ignores ``out``.
    """
    src, dets = config.source, (config.detector_start, config.detector_stop)
    n_ps = max(1, round(dur / PS))  # a sub-ps last slice keeps one grid point
    delay = round(config.analyzer1.path_delay / PS)
    half = round(config.tphc.window_width / 2 / PS)
    reach = max(math.ceil(JITTER_SIGMAS * fwhm_to_sigma(det.jitter_fwhm) / PS) for det in dets)
    lo = min(half + delay + reach + 1, n_ps)
    hi = max(n_ps - lo, lo)
    split = src.pair_rate * src.split_efficiency
    eta1 = src.arm1_transmission * dets[0].efficiency
    eta2 = src.arm2_transmission * dets[1].efficiency
    one_sided = (split * eta1 * (1 - eta2) / 2, split * (1 - eta1) * eta2 / 2)  # per port, per s
    channels = (CH_START_PLUS, CH_STOP_PLUS) if monitored_only else (
        CH_START_PLUS, CH_STOP_PLUS, CH_START_MINUS, CH_STOP_MINUS)
    rates = np.array([(dets[ch & 1].dark_rate + one_sided[ch & 1]) * PS for ch in channels])

    n_both = rng.poisson(split * dur * eta1 * eta2)
    emission = rng.integers(0, n_ps, n_both)
    cells = rng.choice(16, n_both, p=probs)  # bits: start arm, stop arm, start port, stop port
    times = []
    for ch in channels:
        side = ch & 1
        both = (cells >> 1 - side & 1) == ch >> 1
        times.append((apply_jitter(emission[both] + delay * (cells[both] >> 3 - side & 1),
                                   dets[side], rng), ch))
    drawn, c = _packed(times, t0_ps), rates.sum()
    s = (drawn >> 2) - t0_ps if c else drawn[:0]  # with no C, no windows
    s = s[(s >= lo) & (s < hi)]  # the pair photons in I
    if c * (hi - lo) >= _FEW * (len(s) + 1):
        w0, w1 = np.maximum(s - half, lo), np.minimum(s + half + 1, hi)
        gap = np.flatnonzero(w0[1:] > w1[:-1])  # between merged windows
        w0, w1 = w0[np.append(0, gap + 1)[:len(w0)]], w1[np.append(gap, len(w1) - 1)[:len(w1)]]
        w0, w1 = np.r_[0, w0, hi], np.r_[lo, w1, n_ps]  # E's two bands are windows too
    else:
        w0, w1 = np.array([0]), np.array([n_ps])
    edges = np.cumsum(w1 - w0)
    x = generate_dark_counts(c / PS, int(edges[-1]) * PS, rng)
    x += (w1 - edges)[np.searchsorted(edges, x, "right")]
    a, b = w1[:-1], w0[1:]
    points, *runs, size = _reveal(a[a < b], b[a < b], c, half + 2, rng)
    probs_c = rates / c if c else rates + 1 / len(rates)
    x = np.append(x, np.floor(points).astype(np.int64))
    revealed = _packed([(x, rng.choice(len(channels), len(x), p=probs_c))], t0_ps)
    counts = rng.multinomial(size, probs_c)
    if len(revealed):
        drawn = np.concatenate([drawn, revealed])
        drawn.sort(kind="stable")  # merges the two sorted runs
    if count_only:
        held = (drawn >> 2 < t0_ps + lo) | (drawn >> 2 >= t0_ps + hi)
        for pos in pair_positions(drawn, half):
            held[pos] = True
        left = np.bincount(drawn[~held] & 3, minlength=4)[:len(channels)] + counts.sum(0)
        return drawn[held], int(left[CH_STOP_PLUS]), int(left[CH_START_PLUS])
    size = len(drawn) + int(counts.sum())
    keys = out if out is not None and len(out) >= size else np.empty(
        max(size, _buffer_size(config, dur, monitored_only)), np.int64)
    _fill(keys[:size - len(drawn)], t0_ps, *runs, counts, rng)
    keys[size - len(drawn):size] = drawn
    keys = keys[:size]
    keys.sort(kind="stable")  # merges the sorted fill and the sorted draws
    return keys, 0, 0


def _in_order(make, n_jobs: int):
    """Yield ``make(job, buffer)`` for jobs 0, 1, ... of two or more in
    order, each a tuple whose first item is a view of its key buffer, made on
    two pool threads (numpy releases the GIL in the draws and the sorts).

    Job ``j + 2`` is submitted, into the key buffer of job ``j``, once the
    caller asks for the result after job ``j``'s, so at most two buffers are
    in use. Close the generator to end its threads.
    """
    with ThreadPoolExecutor(max_workers=2, thread_name_prefix="fransim-slice") as pool:
        ahead = deque(pool.submit(make, job, None) for job in range(2))
        for job in range(n_jobs):
            result = ahead.popleft().result()
            yield result
            if job + 2 < n_jobs:
                ahead.append(pool.submit(make, job + 2, result[0].base))


def _slice_count(first_slice: int, duration: float) -> int:
    """The number of 1 s slices of a span from slice ``first_slice`` lasting
    ``duration`` seconds, the last one possibly shorter. Raises
    ``ValueError`` unless ``duration`` is finite and > 0 and the span ends
    within the packable time range (2**61 ps)."""
    if not (math.isfinite(duration) and duration > 0):
        raise ValueError(f"duration must be finite and > 0, got {duration}")
    end_ps = first_slice * SLICE_PS + round(duration / PS)
    if end_ps > PACK_LIMIT_PS:
        raise ValueError(f"the span ends at {end_ps} ps, past the {PACK_LIMIT_PS} ps "
                         f"(about 26.7 days) that event keys can hold")
    return max(1, int(math.ceil(duration / SLICE_SECONDS)))


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
                      seed: int, *, start: float = 0.0, law: str = "quantum",
                      monitored_only: bool = False, count_only: bool = False) -> EventStream:
    """Detection record of ``[start, start + duration)``, made by slices
    ``start / SLICE_SECONDS, ...`` of the run.

    ``start`` must be a non-negative whole number of slices, and the span must
    end within 2**61 ps. Each slice draws from its own (seed, slice index)
    stream, so merging the keys of consecutive spans gives the record of the
    whole span. The slices of a longer span are joined in order by
    :func:`_join`: a record's are made by :func:`_in_order` on two pool
    threads into an array sized for a record (see :func:`_buffer_size`), a
    count's on the calling thread into one of :data:`fransim.events._CHUNK`
    keys that grows. Feeding a whole-run record (``start = 0``) into
    :func:`fransim.events.window_coincidences` reproduces
    :func:`simulate_setting` exactly for the same seed. ``law`` names the
    law of pairs detected on both sides in :data:`fransim.quantum.PAIR_LAWS`.

    With ``count_only`` the stream is made for counting, not as a record:
    the events of a slice's interior that no other event can reach are left
    without positions (see :func:`_slice_keys`). Those of the + ports are
    counted in ``unplaced_stop_plus`` and ``unplaced_start_plus``, and the
    - ones are dropped. Its keys are record keys, and every count of
    :func:`fransim.events.window_coincidences` equals the record's. With
    ``monitored_only`` only the + ports are made, as a record or as a count:
    each slice draws the streams of the + ports alone. So a count of the
    + ports equals the record of the + ports, not the + part of the full
    count of the same seed.
    """
    first, rest = divmod(start, SLICE_SECONDS)
    if not start >= 0 or rest:
        raise ValueError(f"start must be a non-negative whole number of "
                         f"{SLICE_SECONDS} s slices, got {start}")
    n_slices = _slice_count(int(first), duration)
    validate_config(config)
    if law not in PAIR_LAWS:
        raise ValueError(f"unknown pair law {law!r}, expected one of {sorted(PAIR_LAWS)}")
    # V' = V·exp(-(σ1² + σ2²)/2) is V averaged over each pair's white phase noise.
    vis = config.visibility * math.exp(-(config.analyzer1.phase_noise_sigma ** 2
                                         + config.analyzer2.phase_noise_sigma ** 2) / 2)
    probs = PAIR_LAWS[law](d1, d2, vis)

    def make(job, into=None):
        k = int(first) + job
        return _slice_keys(config, probs, k * SLICE_PS,
                           min(SLICE_SECONDS, duration - job * SLICE_SECONDS),
                           np.random.default_rng([seed, k]), into,
                           monitored_only=monitored_only, count_only=count_only)

    if n_slices == 1:
        return EventStream(duration, *make(0))
    if count_only:
        return _join((make(job) for job in range(n_slices)), duration, _CHUNK)
    with closing(_in_order(make, n_slices)) as parts:
        return _join(parts, duration, _buffer_size(config, duration, monitored_only))


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

    Each setting is one :func:`emit_event_stream` count of its whole dwell
    (``count_only``, see :func:`_slice_keys`), which keeps only the keys
    that can pair, made and joined on the calling thread, and is counted
    once by :func:`fransim.events.window_coincidences`. So its counts and
    singles equal those of the setting's whole-run record. With
    ``monitored_only`` only the + ports are made and counted: pairings with
    a - port read 0, and the others equal those of the setting's whole-run
    record of the + ports.
    """
    return [window_coincidences(emit_event_stream(config, d1, d2, duration, seed, law=law,
                                                  monitored_only=monitored_only, count_only=True),
                                config.tphc)
            for d1, d2, seed in settings]

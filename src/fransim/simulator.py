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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import Sequence

import numpy as np

from .config import (JITTER_SIGMAS, SLICE_SECONDS, DetectorParams, ExperimentConfig,
                     fwhm_to_sigma, validate_config)
from .events import (
    CHANNEL_PORTS,
    OUTCOMES,
    PACK_LIMIT_PS,
    PS,
    CountSummary,
    EventStream,
    pack_into,
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
                         t0_ps: int = 0) -> np.ndarray:
    """Homogeneous Poisson process: int64 ps times, uniform on the 1 ps grid of
    [t0_ps, t0_ps + duration), in draw order."""
    if rate < 0:
        raise ValueError(f"dark rate must be >= 0, got {rate}")
    n = rng.poisson(rate * duration)
    return rng.integers(t0_ps, t0_ps + max(1, round(duration / PS)), n)


def _slice_keys(config: ExperimentConfig, probs: np.ndarray, t0_ps: int, dur: float,
                rng: np.random.Generator, out: np.ndarray | None = None, *,
                monitored_only: bool = False) -> np.ndarray:
    """One time slice's events as sorted packed keys (see
    :func:`fransim.events.pack_keys`), a view of ``out`` if they fit in it.

    Loss thins the split pairs independently on each side, so (colouring
    theorem) pairs detected on both sides and each side's one-sided events are
    independent Poisson streams. Only the first needs the joint law, one draw
    per pair from the 16 cell probabilities ``probs`` (see
    :func:`fransim.quantum.cell_law`); one-sided events take its marginals,
    which every pair law shares: a uniform port and the long arm with prob. 1/2.
    Times are drawn uniformly on the 1 ps grid of the slice, from ``t0_ps``;
    the path delay and the centre offset are rounded to whole ps, and so is
    the jitter. Every stop event, dark counts included, is moved by the
    centre offset. The port blocks are drawn in channel order (0-3: start +,
    stop +, start -, stop -), each packed into one key array as it is drawn;
    without ``out`` that array is sized from the expected event count plus 9
    of its standard deviations, and a block that does not fit grows it.

    With ``monitored_only`` the slice stops after the two + blocks. They come
    first in every slice, so the keys are exactly the + port keys of the full
    slice, ``full[(full & 2) == 0]``.
    """
    src = config.source
    end_ps = t0_ps + max(1, round(dur / PS))  # a sub-ps last slice keeps one grid point
    delay = round(config.analyzer1.path_delay / PS)
    center = round(config.tphc.center_offset / PS)
    split = src.pair_rate * src.split_efficiency * dur
    eta1 = src.arm1_transmission * config.detector_start.efficiency
    eta2 = src.arm2_transmission * config.detector_stop.efficiency
    mean = split * (eta1 + eta2) + 2 * dur * (config.detector_start.dark_rate
                                              + config.detector_stop.dark_rate)
    if monitored_only:
        mean /= 2  # each side's events fall on its two ports alike
    keys = np.empty(math.ceil(mean + 9 * math.sqrt(mean)), np.int64) if out is None else out
    end = 0

    def put(times, channel):
        nonlocal keys, end
        if end + len(times) > len(keys):
            keys = np.concatenate([keys[:end], np.empty(max(len(times), len(keys)), np.int64)])
        if center and channel & 1:
            times += center  # the stop delay, a relabel the window takes away again
        pack_into(keys[end:end + len(times)], times, channel)
        end += len(times)

    n_both = rng.poisson(split * eta1 * eta2)
    emission = rng.integers(t0_ps, end_ps, n_both)
    cells = rng.choice(16, n_both, p=probs)  # bits: start arm, stop arm, start port, stop port
    sides = ((config.detector_start, 3, 1, split * eta1 * (1.0 - eta2)),
             (config.detector_stop, 2, 0, split * (1.0 - eta1) * eta2))
    for channel in range(2 if monitored_only else 4):
        det, arm_bit, port_bit, mean_one = sides[channel & 1]
        both = (cells >> port_bit & 1) == channel >> 1
        both_time = emission[both] + delay * (cells[both] >> arm_bit & 1)
        one_time = rng.integers(t0_ps, end_ps, rng.poisson(mean_one / 2))
        # The times are i.i.d., so taking the first Binomial(n, 1/2) of
        # them as the long-arm ones is the same law as a coin per event.
        one_time[:rng.binomial(len(one_time), 0.5)] += delay
        times = np.concatenate([both_time, one_time])
        put(apply_jitter(times, det, rng), channel)
        put(generate_dark_counts(det.dark_rate, dur, rng, t0_ps), channel)
    keys = keys[:end]
    keys.sort()
    return keys


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
                      law: str = "quantum", monitored_only: bool = False) -> EventStream:
    """Detection record of ``[start, start + duration)``, made by slices
    ``start / SLICE_SECONDS, ...`` of the run.

    ``start`` must be a non-negative whole number of slices, and the span must
    end within 2**61 ps. Each slice draws from its own (seed, slice index)
    stream, so merging the keys of consecutive spans gives the record of the
    whole span. Feeding a whole-run record (``start = 0``) into
    :func:`fransim.events.window_coincidences` reproduces
    :func:`simulate_setting` exactly for the same seed. For a one-slice span,
    an int64 ``out`` large enough for the slice receives its keys and the
    stream's keys are a view of it; a smaller one is replaced by a new array.
    ``law`` names the law of pairs detected on both sides in
    :data:`fransim.quantum.PAIR_LAWS`. With ``monitored_only`` the record
    holds the + ports alone. Each slice draws its port blocks in channel
    order and stops after the two + blocks, which are the full slice's first
    two, so the record is exactly the + subset of the full record of the same
    (config, seed).
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

    slices = [_slice_keys(config, probs, k * SLICE_PS, dur, np.random.default_rng([seed, k]), out,
                          monitored_only=monitored_only)
              for k, dur in enumerate(durations, int(first))]
    keys = slices[0]
    if len(slices) > 1:
        keys = np.concatenate(slices)
        del slices
        keys.sort(kind="stable")  # a merge of the sorted slice runs
    return EventStream(duration, keys)


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

    The 1 s slices of all the settings are one pipeline of jobs, in order.
    Each job makes one slice with :func:`emit_event_stream` and counts it
    alone with :func:`fransim.events.window_coincidences`, on one of two pool
    threads (numpy releases the GIL in the draws, the sort and the count).
    This thread takes the jobs' results in order, and only then submits the
    job two places on, into the key buffer of the job it took, so at most two
    slices are alive; a call with one job makes it here and starts no thread.

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
    whole-stream path uses. The centre offset moves every stop event and the
    window takes it away again, so the slices are made and counted with it
    set to 0, after the config as given is validated; nothing here depends
    on it. With ``monitored_only`` only the + ports are made and counted (see
    :func:`emit_event_stream`, same flag), and pairings with a - port read 0.
    """
    durations = _slice_durations(0, duration)
    validate_config(config)
    config = replace(config, tphc=replace(config.tphc, center_offset=0.0))
    reach = round(config.tphc.window_width / 2 / PS)
    sigma = fwhm_to_sigma(max(config.detector_start.jitter_fwhm,
                              config.detector_stop.jitter_fwhm))
    # +1 ps covers rounding the jittered times to the grid.
    margin = reach + math.ceil(JITTER_SIGMAS * sigma / PS) + 1
    n_slices, n_jobs = len(durations), len(settings) * len(durations)

    def tally(keys):
        """The pairings, then the start and stop singles, of ``keys`` alone."""
        counted = window_coincidences(EventStream(SLICE_SECONDS, keys), config.tphc)
        return np.array([*map(counted.coincidences.get, OUTCOMES), counted.singles_start,
                         counted.singles_stop], np.int64)

    def make(job, out):
        (d1, d2, seed), k = settings[job // n_slices], job % n_slices
        keys = emit_event_stream(config, d1, d2, durations[k], seed, start=k * SLICE_SECONDS,
                                 out=out, law=law, monitored_only=monitored_only).keys
        return keys, tally(keys)

    summaries = []
    carry = np.empty(0, np.int64)  # sorted keys of earlier events a later slice may reach
    totals = np.zeros(len(OUTCOMES) + 2, np.int64)
    with ThreadPoolExecutor(max_workers=2, thread_name_prefix="fransim-slice") as pool:
        # One job is made on this thread, below, and starts no thread.
        ahead = deque(pool.submit(make, job, None) for job in range(2 if n_jobs > 1 else 0))
        for job in range(n_jobs):
            keys, alone = ahead.popleft().result() if ahead else make(job, None)
            k = job % n_slices
            floor = k * SLICE_PS - margin
            if len(keys) and keys[0] >> 2 < floor:
                raise RuntimeError(
                    f"slice {k} emitted a {CHANNEL_PORTS[keys[0] & 3]} event at "
                    f"{keys[0] >> 2} ps, before its {floor} ps floor: the {margin} ps "
                    f"stream margin is too small")
            buffer = keys.base
            if len(carry):  # the carry's own pairs and singles were counted with an earlier slice
                keys = np.insert(keys, np.searchsorted(keys, carry), carry)
                totals += tally(keys) - tally(carry)
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
            if job + 2 < n_jobs:
                ahead.append(pool.submit(make, job + 2, buffer))
    return summaries

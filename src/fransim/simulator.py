"""Monte Carlo engine: timestamped detection events from apparatus parameters.

The run duration is cut into fixed 1 s slices, each driven by a random stream
derived from (seed, slice index), so results are reproducible and independent
of how slices might be distributed over workers. Timestamps are int64
picoseconds built as slice start + quantized slice-local time.
"""
from __future__ import annotations

import math

import numpy as np

from .config import DetectorParams, ExperimentConfig, validate_config
from .events import (
    OUTCOMES,
    PS,
    CountSummary,
    EventStream,
    window_coincidences,
    window_edges_ps,
)

__all__ = [
    "fwhm_to_sigma",
    "apply_jitter",
    "generate_dark_counts",
    "emit_event_stream",
    "simulate_setting",
]

SLICE_SECONDS = 1.0  # fixed batching granularity for the derived RNG streams
SLICE_PS = round(SLICE_SECONDS / PS)
# Jitter bound of the streaming margin, in standard deviations: a Gaussian
# offset lies past it with probability below 1e-32 per event.
JITTER_SIGMAS = 12


def fwhm_to_sigma(fwhm: float) -> float:
    return fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))


def apply_jitter(true_time, det: DetectorParams, rng: np.random.Generator):
    """Add the detector's Gaussian timing response (zero mean, FWHM-specified).

    Accepts a scalar or an array of times.
    """
    if det.jitter_fwhm < 0:
        raise ValueError(f"jitter_fwhm must be >= 0, got {det.jitter_fwhm}")
    if det.jitter_fwhm == 0:
        return true_time
    sigma = fwhm_to_sigma(det.jitter_fwhm)
    offset = rng.normal(0.0, sigma, size=np.shape(true_time) or None)
    return true_time + offset


def _sample_branches_outcomes(d1, d2, vis, n: int, rng: np.random.Generator):
    """Vectorized draw from the 12-cell joint law.

    P(central, i, j) = (1/8)(1 + i*j*vis*cos(d1+d2)); each of the 8 side cells
    has probability 1/16. Branch weights are phase-independent (1/2, 1/4, 1/4),
    so branches are drawn first, then i uniform, then j given i on the central
    branch. d1/d2 may be arrays of length n (per-pair phase noise).
    """
    u = rng.random(n)
    # 0 = central, 1 = short-long, 2 = long-short
    branch = np.where(u < 0.5, 0, np.where(u < 0.75, 1, 2)).astype(np.int8)
    i = np.where(rng.random(n) < 0.5, 1, -1).astype(np.int8)
    same = rng.random(n) < 0.5 * (1.0 + vis * np.cos(np.asarray(d1) + np.asarray(d2)))
    j_central = np.where(same, i, -i)
    j_side = np.where(rng.random(n) < 0.5, 1, -1).astype(np.int8)
    j = np.where(branch == 0, j_central, j_side).astype(np.int8)
    return branch, i, j


def generate_dark_counts(rate: float, duration: float,
                         rng: np.random.Generator) -> np.ndarray:
    """Homogeneous Poisson process: sorted timestamps (seconds) on [0, duration)."""
    if rate < 0:
        raise ValueError(f"dark rate must be >= 0, got {rate}")
    n = rng.poisson(rate * duration)
    return np.sort(rng.random(n) * duration)


def _quantize(local_s: np.ndarray, t0_ps: int) -> np.ndarray:
    """Slice-local seconds to absolute int64 ps: ``t0_ps + rint(local_s / PS)``.

    Only the slice-local part passes through float64, so the 1 ps quantum
    holds at any run time (absolute float64 seconds lose it after about 2 h).
    """
    return t0_ps + np.rint(local_s / PS).astype(np.int64)


def _generate_slice(config: ExperimentConfig, d1: float, d2: float,
                    t0_ps: int, dur: float, rng: np.random.Generator):
    """One time slice of raw (unsorted) per-port timestamps, in ps.

    Loss thins the split pairs independently on each side, so (colouring
    theorem) pairs detected on both sides and each side's one-sided events are
    independent Poisson streams. Only the first needs the joint law; one-sided
    events take its marginals: a uniform port and the long arm with prob. 1/2.
    Times are drawn in seconds from the slice start ``t0_ps``.
    """
    src = config.source
    delay = config.analyzer1.path_delay
    split = src.pair_rate * src.split_efficiency * dur
    eta1 = src.arm1_transmission * config.detector_start.efficiency
    eta2 = src.arm2_transmission * config.detector_stop.efficiency

    n_both = rng.poisson(split * eta1 * eta2)
    emission = rng.random(n_both) * dur
    eff_d1 = d1 + rng.normal(0.0, config.analyzer1.phase_noise_sigma, n_both)
    eff_d2 = d2 + rng.normal(0.0, config.analyzer2.phase_noise_sigma, n_both)
    branch, i, j = _sample_branches_outcomes(eff_d1, eff_d2, config.visibility, n_both, rng)
    # Arm traversal offsets: the central branch collapses to a common arm
    # (dt = 0 either way); the mixed branches sit at +-path_delay.
    common = np.where(rng.random(n_both) < 0.5, delay, 0.0)
    start_off = np.where(branch == 0, common, np.where(branch == 2, delay, 0.0))
    stop_off = np.where(branch == 0, common, np.where(branch == 1, delay, 0.0))

    out = {}
    for side, det, both_time, both_sign, mean_one, shift in (
            ("start", config.detector_start, emission + start_off, i,
             split * eta1 * (1.0 - eta2), 0.0),
            ("stop", config.detector_stop, emission + stop_off, j,
             split * (1.0 - eta1) * eta2, config.tphc.center_offset)):
        for port, s in (("plus", 1), ("minus", -1)):
            one_time = rng.random(rng.poisson(mean_one / 2)) * dur
            # The times are i.i.d., so taking the first Binomial(n, 1/2) of
            # them as the long-arm ones is the same law as a coin per event.
            one_time[:rng.binomial(len(one_time), 0.5)] += delay
            times = apply_jitter(np.concatenate([both_time[both_sign == s], one_time]) + shift,
                                 det, rng)
            darks = generate_dark_counts(det.dark_rate, dur, rng)
            out[f"{side}_{port}"] = [_quantize(times, t0_ps), _quantize(darks, t0_ps)]
    return out


def emit_event_stream(config: ExperimentConfig, d1: float, d2: float,
                      duration: float, seed: int, *, start: float = 0.0) -> EventStream:
    """Detection record of ``[start, start + duration)``: per-port sorted ps
    timestamps, made by slices ``start / SLICE_SECONDS, ...`` of the run.

    ``start`` must be a non-negative whole number of slices. Each slice draws
    from its own (seed, slice index) stream, so concatenating the records of
    consecutive spans port by port, then sorting, gives the record of the
    whole span. Feeding a whole-run record (``start = 0``) into
    :func:`fransim.events.window_coincidences` reproduces
    :func:`simulate_setting` exactly for the same seed.
    """
    if duration <= 0:
        raise ValueError(f"duration must be > 0, got {duration}")
    first, rest = divmod(start, SLICE_SECONDS)
    if not start >= 0 or rest:
        raise ValueError(f"start must be a non-negative whole number of "
                         f"{SLICE_SECONDS} s slices, got {start}")
    validate_config(config)

    parts = {"start_plus": [], "start_minus": [], "stop_plus": [], "stop_minus": []}
    n_slices = max(1, int(math.ceil(duration / SLICE_SECONDS)))
    for n in range(n_slices):
        k = int(first) + n
        dur = min(SLICE_SECONDS, duration - n * SLICE_SECONDS)
        rng = np.random.default_rng([seed, k])
        for name, chunks in _generate_slice(config, d1, d2, k * SLICE_PS, dur, rng).items():
            parts[name].extend(chunks)

    ports = {
        name: np.sort(np.concatenate(chunks))
        for name, chunks in parts.items()
    }
    return EventStream(duration=duration, **ports)


def _merge(carried: np.ndarray, fresh: np.ndarray) -> np.ndarray:
    """Sorted union of two sorted arrays; ``carried`` is the short one."""
    return np.insert(fresh, np.searchsorted(fresh, carried), carried) if len(carried) else fresh


def simulate_setting(config: ExperimentConfig, d1: float, d2: float,
                     duration: float, seed: int) -> CountSummary:
    """Simulate one phase setting and window-discriminate the coincidences.

    Each 1 s slice is made by :func:`emit_event_stream` (``start`` = slice
    start), merged into the events carried from the slice before, and
    window-counted at once, so memory is bounded by one slice, not the run.
    With ``margin`` = window reach (half-width + |center_offset|) plus
    ``JITTER_SIGMAS`` of the larger detector jitter, the starts below
    ``cut`` = next slice start - ``margin`` are counted against every stop in
    hand; starts at or past ``cut`` and the stops they may still pair with
    (at or past ``cut`` + the window's low edge) carry to the next slice. On
    the last slice ``cut`` is +infinity.

    That is exact because of the margin invariant, checked on every slice:
    a slice emits no start before its ``t0 - margin`` and no stop before
    ``t0 - margin + max(hi, 0)`` (``hi`` = the window's high edge), so no
    later slice holds a partner of a start below ``cut``. A violation raises
    ``RuntimeError``. The counts equal :func:`fransim.events.window_coincidences`
    on the whole-run :func:`emit_event_stream` record for the same seed.

    Singles are totals over the slices, and the accidental estimate is
    computed once from those merged totals, (S_start/T)(S_stop/T)·w·T, the
    estimator the whole-stream path uses; summing per-slice estimates would be
    a different one.
    """
    if duration <= 0:
        raise ValueError(f"duration must be > 0, got {duration}")
    validate_config(config)
    lo, hi = window_edges_ps(config.tphc)
    sigma = fwhm_to_sigma(max(config.detector_start.jitter_fwhm,
                              config.detector_stop.jitter_fwhm))
    # +1 ps covers rounding the shifted, jittered times to the grid.
    margin = max(-lo, hi) + math.ceil(JITTER_SIGMAS * sigma / PS) + 1
    empty = np.empty(0, np.int64)
    carry = {"start_plus": empty, "start_minus": empty, "stop_plus": empty, "stop_minus": empty}
    coinc = dict.fromkeys(OUTCOMES, 0)
    singles_start = singles_stop = 0
    n_slices = max(1, int(math.ceil(duration / SLICE_SECONDS)))
    for k in range(n_slices):
        t0 = k * SLICE_SECONDS
        dur = min(SLICE_SECONDS, duration - t0)
        part = emit_event_stream(config, d1, d2, dur, seed, start=t0)
        singles_start += len(part.start_plus)
        singles_stop += len(part.stop_plus)
        for name in carry:
            times = getattr(part, name)
            floor = k * SLICE_PS - margin + (max(hi, 0) if name.startswith("stop") else 0)
            if len(times) and times[0] < floor:
                raise RuntimeError(
                    f"slice {k} emitted a {name} event at {times[0]} ps, before its "
                    f"{floor} ps floor: the {margin} ps stream margin is too small")
            carry[name] = _merge(carry[name], times)
        # Events from keep[name] on carry: the starts at or past the cut and
        # the stops a carried start may still reach.
        cut = (k + 1) * SLICE_PS - margin
        keep = {name: len(times) if k == n_slices - 1 else
                int(np.searchsorted(times, cut + (lo if name.startswith("stop") else 0)))
                for name, times in carry.items()}
        counted = window_coincidences(
            EventStream(dur, carry["start_plus"][:keep["start_plus"]],
                        carry["start_minus"][:keep["start_minus"]],
                        carry["stop_plus"], carry["stop_minus"]), config.tphc)
        for key, n in counted.coincidences.items():
            coinc[key] += n
        carry = {name: times[keep[name]:].copy() for name, times in carry.items()}
    return CountSummary.from_counts(duration, singles_start, singles_stop, coinc,
                                    config.tphc.window_width)

"""Monte Carlo engine: timestamped detection events from apparatus parameters.

The run duration is cut into fixed 1 s slices, each driven by a random stream
derived from (seed, slice index), so results are reproducible and independent
of how slices might be distributed over workers.
"""
from __future__ import annotations

import math

import numpy as np

from .config import DetectorParams, ExperimentConfig, validate_config
from .events import PS, CountSummary, EventStream, window_coincidences

__all__ = [
    "fwhm_to_sigma",
    "apply_jitter",
    "generate_dark_counts",
    "emit_event_stream",
    "simulate_setting",
]

SLICE_SECONDS = 1.0  # fixed batching granularity for the derived RNG streams


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


def _quantize(times_s: np.ndarray) -> np.ndarray:
    return np.rint(times_s / PS).astype(np.int64)


def _generate_slice(config: ExperimentConfig, d1: float, d2: float,
                    t0: float, dur: float, rng: np.random.Generator):
    """One time slice of raw (unsorted) per-port timestamps, in ps.

    Loss thins the split pairs independently on each side, so (colouring
    theorem) pairs detected on both sides and each side's one-sided events are
    independent Poisson streams. Only the first needs the joint law; one-sided
    events take its marginals: a uniform port and the long arm with prob. 1/2.
    """
    src = config.source
    delay = config.analyzer1.path_delay
    split = src.pair_rate * src.split_efficiency * dur
    eta1 = src.arm1_transmission * config.detector_start.efficiency
    eta2 = src.arm2_transmission * config.detector_stop.efficiency

    n_both = rng.poisson(split * eta1 * eta2)
    emission = t0 + rng.random(n_both) * dur
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
            one_time = t0 + rng.random(rng.poisson(mean_one / 2)) * dur
            # The times are i.i.d., so taking the first Binomial(n, 1/2) of
            # them as the long-arm ones is the same law as a coin per event.
            one_time[:rng.binomial(len(one_time), 0.5)] += delay
            times = apply_jitter(np.concatenate([both_time[both_sign == s], one_time]) + shift,
                                 det, rng)
            darks = t0 + generate_dark_counts(det.dark_rate, dur, rng)
            out[f"{side}_{port}"] = [_quantize(times), _quantize(darks)]
    return out


def emit_event_stream(config: ExperimentConfig, d1: float, d2: float,
                      duration: float, seed: int) -> EventStream:
    """Full detection record of one run: per-port sorted ps timestamps.

    Feeding the stream into :func:`fransim.analysis.window_coincidences`
    reproduces :func:`simulate_setting` exactly for the same seed.
    """
    if duration <= 0:
        raise ValueError(f"duration must be > 0, got {duration}")
    validate_config(config)

    parts = {"start_plus": [], "start_minus": [], "stop_plus": [], "stop_minus": []}
    n_slices = max(1, int(math.ceil(duration / SLICE_SECONDS)))
    for k in range(n_slices):
        t0 = k * SLICE_SECONDS
        dur = min(SLICE_SECONDS, duration - t0)
        rng = np.random.default_rng([seed, k])
        for name, chunks in _generate_slice(config, d1, d2, t0, dur, rng).items():
            parts[name].extend(chunks)

    ports = {
        name: np.sort(np.concatenate(chunks))
        for name, chunks in parts.items()
    }
    return EventStream(duration=duration, **ports)


def simulate_setting(config: ExperimentConfig, d1: float, d2: float,
                     duration: float, seed: int) -> CountSummary:
    """Simulate one phase setting and window-discriminate the coincidences."""
    stream = emit_event_stream(config, d1, d2, duration, seed)
    return window_coincidences(stream, config.tphc,
                               path_delay=config.analyzer1.path_delay)

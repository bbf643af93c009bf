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
    """One time slice of raw (unsorted) per-port timestamps, in ps."""
    src = config.source
    delay = config.analyzer1.path_delay

    n_created = rng.poisson(src.pair_rate * dur)
    n_split = rng.binomial(n_created, src.split_efficiency) if n_created else 0
    out = {"start_plus": [], "start_minus": [], "stop_plus": [], "stop_minus": []}

    if n_split:
        emission = t0 + rng.random(n_split) * dur
        eff_d1 = d1 + (rng.normal(0.0, config.analyzer1.phase_noise_sigma, n_split)
                       if config.analyzer1.phase_noise_sigma > 0 else 0.0)
        eff_d2 = d2 + (rng.normal(0.0, config.analyzer2.phase_noise_sigma, n_split)
                       if config.analyzer2.phase_noise_sigma > 0 else 0.0)
        branch, i, j = _sample_branches_outcomes(eff_d1, eff_d2, config.visibility,
                                                 n_split, rng)
        # Arm traversal offsets: the central branch collapses to a common arm
        # (dt = 0 either way); the mixed branches sit at +-path_delay.
        common_long = rng.random(n_split) < 0.5
        start_off = np.where(branch == 0, np.where(common_long, delay, 0.0),
                             np.where(branch == 2, delay, 0.0))
        stop_off = np.where(branch == 0, np.where(common_long, delay, 0.0),
                            np.where(branch == 1, delay, 0.0))
        det1 = rng.random(n_split) < src.arm1_transmission * config.detector_start.efficiency
        det2 = rng.random(n_split) < src.arm2_transmission * config.detector_stop.efficiency

        t_start = apply_jitter((emission + start_off)[det1],
                               config.detector_start, rng)
        t_stop = apply_jitter((emission + stop_off)[det2] + config.tphc.center_offset,
                              config.detector_stop, rng)
        i_det, j_det = i[det1], j[det2]
        out["start_plus"].append(_quantize(t_start[i_det == 1]))
        out["start_minus"].append(_quantize(t_start[i_det == -1]))
        out["stop_plus"].append(_quantize(t_stop[j_det == 1]))
        out["stop_minus"].append(_quantize(t_stop[j_det == -1]))

    for side, det in (("start", config.detector_start), ("stop", config.detector_stop)):
        for port in ("plus", "minus"):
            darks = t0 + generate_dark_counts(det.dark_rate, dur, rng)
            out[f"{side}_{port}"].append(_quantize(darks))

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

"""Detection-event containers, the binary record format, and the windowed
coincidence / histogram machinery shared by the simulator and the analysis
layer.

Timestamps are integer picoseconds; the coincidence window test is closed on
both edges at that quantization.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from .config import TphcParams

PS = 1e-12  # timestamp quantum, seconds

MAGIC = b"FRSN"
FORMAT_VERSION = 1

# Channel byte: bit 0 = side (0 start/Si, 1 stop/Ge), bit 1 = output port
# (0 for the +1 port, set for the -1 port). The monitored + ports therefore
# use channel values 0 and 1.
CH_START_PLUS = 0
CH_STOP_PLUS = 1
CH_START_MINUS = 2
CH_STOP_MINUS = 3

OUTCOMES: Tuple[Tuple[int, int], ...] = ((1, 1), (1, -1), (-1, 1), (-1, -1))

RECORD_DTYPE = np.dtype([("channel", "u1"), ("time_ps", "<u8")])


@dataclass
class EventStream:
    """Per-port sorted detection timestamps (int64 picoseconds) for one run."""

    duration: float
    start_plus: np.ndarray
    start_minus: np.ndarray
    stop_plus: np.ndarray
    stop_minus: np.ndarray

    def port(self, side: str, sign: int) -> np.ndarray:
        return getattr(self, f"{side}_{'plus' if sign > 0 else 'minus'}")

    def starts(self) -> np.ndarray:
        return np.sort(np.concatenate([self.start_plus, self.start_minus]))

    def stops(self) -> np.ndarray:
        return np.sort(np.concatenate([self.stop_plus, self.stop_minus]))

    def to_records(self) -> np.ndarray:
        """Time-ordered structured array of (channel, time_ps) records.

        Negative timestamps (possible from jitter near t = 0) are clamped to 0
        to fit the unsigned wire format.
        """
        chans = (CH_START_PLUS, CH_START_MINUS, CH_STOP_PLUS, CH_STOP_MINUS)
        ports = (self.start_plus, self.start_minus, self.stop_plus, self.stop_minus)
        n = sum(len(p) for p in ports)
        rec = np.empty(n, dtype=RECORD_DTYPE)
        k = 0
        for chan, times in zip(chans, ports):
            rec["channel"][k:k + len(times)] = chan
            rec["time_ps"][k:k + len(times)] = np.maximum(times, 0).astype(np.uint64)
            k += len(times)
        order = np.argsort(rec["time_ps"], kind="stable")
        return rec[order]

    @classmethod
    def from_records(cls, records: np.ndarray, duration: float) -> "EventStream":
        chan = records["channel"]
        if chan.max(initial=0) > CH_STOP_MINUS:
            raise ValueError(f"unknown channel byte {chan.max()} in the records")
        times = records["time_ps"].astype(np.int64)
        ports = {}
        for name, code in (("start_plus", CH_START_PLUS), ("start_minus", CH_START_MINUS),
                           ("stop_plus", CH_STOP_PLUS), ("stop_minus", CH_STOP_MINUS)):
            ports[name] = np.sort(times[chan == code])
        return cls(duration=duration, **ports)

    def write(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(bytes([FORMAT_VERSION]))
            self.to_records().tofile(fh)

    @classmethod
    def read(cls, path, duration: float) -> "EventStream":
        with open(path, "rb") as fh:
            header = fh.read(5)
            if header[:4] != MAGIC:
                raise ValueError(f"{path}: not a detection-record file")
            if header[4] != FORMAT_VERSION:
                raise ValueError(f"{path}: unsupported format version {header[4]}")
            data = fh.read()
        if len(data) % RECORD_DTYPE.itemsize:
            raise ValueError(f"{path}: truncated, {len(data)} record bytes is not a multiple of 9")
        return cls.from_records(np.frombuffer(data, dtype=RECORD_DTYPE), duration)


@dataclass
class CountSummary:
    """Singles and windowed coincidence counts for one phase setting.

    Singles refer to the monitored + output ports (the detectors feeding the
    start/stop electronics); coincidences are kept for all four port pairings.
    """

    duration: float
    singles_start: int
    singles_stop: int
    coincidences: Dict[Tuple[int, int], int] = field(default_factory=dict)
    accidental_estimate: float = 0.0


@dataclass
class Histogram:
    """Start-stop delay histogram (the TPHC spectrum)."""

    bin_width: float
    origin: float
    counts: np.ndarray

    @property
    def bin_centers(self) -> np.ndarray:
        return self.origin + (np.arange(len(self.counts)) + 0.5) * self.bin_width

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def accidental_rate(singles_start: float, singles_stop: float, window: float) -> float:
    """Uncorrelated-coincidence rate: product of the singles rates and the
    coincidence-window width."""
    if singles_start < 0 or singles_stop < 0 or window < 0:
        raise ValueError("singles rates and window width must be >= 0")
    return singles_start * singles_stop * window


def _stop_ranges(starts: np.ndarray, stops: np.ndarray, lo_ps: int, hi_ps: int):
    """Per start, the index range [lo, hi) of stops with stop - start in [lo_ps, hi_ps]."""
    lo = np.searchsorted(stops, starts + lo_ps, side="left")
    hi = np.searchsorted(stops, starts + hi_ps, side="right")
    return lo, hi


def window_coincidences(stream: EventStream, tphc: TphcParams,
                        path_delay: float | None = None) -> CountSummary:
    """Count start-stop pairs with |dt - center_offset| <= window_width / 2 per
    output-port pairing, plus monitored singles and the accidental estimate.

    A window at least as wide as the interferometer path delay no longer
    rejects the side peaks; that is reported as a warning, not an error.
    """
    if path_delay is not None and tphc.window_width >= path_delay:
        warnings.warn(
            f"coincidence window {tphc.window_width} s does not exclude the "
            f"side peaks at the {path_delay} s path delay",
            stacklevel=2,
        )
    duration = stream.duration
    singles_start = len(stream.start_plus)
    singles_stop = len(stream.stop_plus)
    coinc = {outcome: 0 for outcome in OUTCOMES}
    if tphc.window_width > 0:
        half_ps = int(round(tphc.window_width / 2 / PS))
        center_ps = int(round(tphc.center_offset / PS))
        for i, j in OUTCOMES:
            lo, hi = _stop_ranges(stream.port("start", i), stream.port("stop", j),
                                  center_ps - half_ps, center_ps + half_ps)
            coinc[(i, j)] = int((hi - lo).sum())
            del lo, hi  # free before the next pairing's searches
    accidental = accidental_rate(singles_start / duration, singles_stop / duration,
                                 tphc.window_width) * duration
    return CountSummary(
        duration=duration,
        singles_start=singles_start,
        singles_stop=singles_stop,
        coincidences=coinc,
        accidental_estimate=accidental,
    )


def build_histogram(stream: EventStream, bin_width: float, range_: float) -> Histogram:
    """Histogram of start-stop delays within +-range_, ports merged per side.

    Every (start, stop) pair with |dt| <= range_ contributes one entry, so the
    total count equals the number of paired events.
    """
    if bin_width <= 0:
        raise ValueError(f"bin_width must be > 0, got {bin_width}")
    starts = stream.starts()
    stops = stream.stops()
    range_ps = int(round(range_ / PS))
    nbins = max(1, int(np.ceil(2 * range_ / bin_width)))
    if len(starts) == 0 or len(stops) == 0:
        return Histogram(bin_width=bin_width, origin=-range_, counts=np.zeros(nbins, dtype=np.int64))
    lo, hi = _stop_ranges(starts, stops, -range_ps, range_ps)
    counts_per = hi - lo
    total = int(counts_per.sum())
    # Gather all in-range stop indices without a Python loop.
    cum = np.cumsum(counts_per)
    base = np.repeat(lo, counts_per)
    within = np.arange(total) - np.repeat(cum - counts_per, counts_per)
    dts = (stops[base + within] - np.repeat(starts, counts_per)) * PS
    edges = -range_ + bin_width * np.arange(nbins + 1)
    counts, _ = np.histogram(dts, bins=edges)
    return Histogram(bin_width=bin_width, origin=-range_, counts=counts.astype(np.int64))

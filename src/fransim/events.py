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

        ``time_ps`` holds the signed time in two's complement, so its 8 bytes
        are a little-endian signed integer and a negative time (possible from
        jitter near t = 0) reads back unchanged. Files written when times were
        clamped at 0 hold none at or above 2**63, so they read as before.
        """
        chans = (CH_START_PLUS, CH_START_MINUS, CH_STOP_PLUS, CH_STOP_MINUS)
        ports = (self.start_plus, self.start_minus, self.stop_plus, self.stop_minus)
        times = np.concatenate(ports)
        order = np.argsort(times, kind="stable")
        rec = np.empty(len(times), dtype=RECORD_DTYPE)
        rec["channel"] = np.repeat(np.array(chans, np.uint8), [len(p) for p in ports])[order]
        times.sort()  # in place: no second 8-byte-per-event copy at the peak
        rec["time_ps"] = times
        return rec

    @classmethod
    def from_records(cls, records: np.ndarray, duration: float) -> "EventStream":
        chan = records["channel"]
        if chan.max(initial=0) > CH_STOP_MINUS:
            raise ValueError(f"unknown channel byte {chan.max()} in the records")
        times = records["time_ps"].astype(np.int64)  # back from two's complement
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

    @classmethod
    def from_counts(cls, duration: float, singles_start: int, singles_stop: int,
                    coincidences: Dict[Tuple[int, int], int],
                    window_width: float) -> "CountSummary":
        """The summary of these counts, with the accidental estimate from the
        singles totals: (singles_start/T)(singles_stop/T)·window·T."""
        accidental = accidental_rate(singles_start / duration, singles_stop / duration,
                                     window_width) * duration
        return cls(duration, singles_start, singles_stop, coincidences, accidental)


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


def window_edges_ps(tphc: TphcParams) -> Tuple[int, int]:
    """The closed window [lo, hi] on dt = stop - start, in integer ps."""
    half_ps = round(tphc.window_width / 2 / PS)
    center_ps = round(tphc.center_offset / PS)
    return center_ps - half_ps, center_ps + half_ps


def _pairs(starts: np.ndarray, stops: np.ndarray, lo_ps: int, hi_ps: int):
    """Yield (start indices, stop indices) of the pairs with stop - start in
    [lo_ps, hi_ps], one round at a time: one search finds each start's first
    stop past the low edge, then each start still in its window steps one stop
    per round. Work is O(starts + pairs); rounds = most stops in one window.
    """
    w = np.arange(len(starts))
    k = np.searchsorted(stops, starts + lo_ps, side="left")
    while True:
        inside = k < len(stops)
        w, k = w[inside], k[inside]
        inside = stops[k] <= starts[w] + hi_ps
        w, k = w[inside], k[inside]
        if not len(w):
            return
        yield w, k
        k = k + 1


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
    coinc = {outcome: 0 for outcome in OUTCOMES}
    if tphc.window_width > 0:
        lo, hi = window_edges_ps(tphc)
        for i, j in OUTCOMES:
            coinc[(i, j)] = sum(len(w) for w, _ in _pairs(
                stream.port("start", i), stream.port("stop", j), lo, hi))
    return CountSummary.from_counts(stream.duration, len(stream.start_plus),
                                    len(stream.stop_plus), coinc, tphc.window_width)


def build_histogram(stream: EventStream, bin_width: float, range_: float) -> Histogram:
    """Histogram of start-stop delays within +-range_, ports merged per side.

    Every (start, stop) pair with |dt| <= range_ contributes one entry, so the
    total count equals the number of paired events. Sizing and filling are in
    integer ps: the range and bin width are rounded to the grid, and the
    ceil(2 range / bin) bins are [edge, edge + bin), the last one also holding
    dt = +range. A bin width that rounds to 0 ps raises ``ValueError``.
    """
    bin_ps = round(bin_width / PS)
    if bin_ps <= 0:
        raise ValueError(f"bin_width must be at least 1 ps after rounding, got {bin_width}")
    starts = stream.starts()
    stops = stream.stops()
    range_ps = round(range_ / PS)
    nbins = max(1, -(-2 * range_ps // bin_ps))
    dts = [stops[k] - starts[w] for w, k in _pairs(starts, stops, -range_ps, range_ps)]
    index = (np.concatenate(dts or [np.empty(0, np.int64)]) + range_ps) // bin_ps
    counts = np.bincount(np.minimum(index, nbins - 1), minlength=nbins).astype(np.int64)
    return Histogram(bin_width=bin_ps * PS, origin=-range_ps * PS, counts=counts)

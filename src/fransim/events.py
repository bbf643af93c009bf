"""Detection-event containers, the binary record format, and the windowed
coincidence / histogram machinery shared by the simulator and the analysis
layer.

Timestamps are integer picoseconds; the coincidence window test is closed on
both edges at that quantization. Pairing works on packed keys
``time_ps * 4 + channel``: one sorted array holds every port, so the events
that can pair are the ones whose neighbours lie within the window's reach.
"""
from __future__ import annotations

import os
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
# EventStream port of each channel byte, in channel order.
CHANNEL_PORTS = ("start_plus", "stop_plus", "start_minus", "stop_minus")
# Packed keys hold times with |t| < 2**61 ps (about 26.7 days) in an int64.
PACK_LIMIT_PS = 2**61

OUTCOMES: Tuple[Tuple[int, int], ...] = ((1, 1), (1, -1), (-1, 1), (-1, -1))

RECORD_DTYPE = np.dtype([("channel", "u1"), ("time_ps", "<u8")])

# Long key arrays are scanned, and FRSN records read and written, this many
# at a time, so temporaries and buffers stay small next to a whole run's keys.
_CHUNK = 1 << 16


def _port(channel: int) -> property:
    """The sorted ps times of one channel byte; assigning new ones repacks."""
    def times(self) -> np.ndarray:
        return self.keys[(self.keys & 3) == channel] >> 2

    def repack(self, new: np.ndarray) -> None:
        self.keys = pack_keys([new if c == channel else getattr(self, name)
                               for c, name in enumerate(CHANNEL_PORTS)])
    return property(times, repack)


@dataclass
class EventStream:
    """One run's detection events: sorted int64 keys ``time_ps * 4 + channel``
    (see :func:`pack_keys`).

    The four ports are views computed on demand, ``keys[(keys & 3) == c] >> 2``.
    A stream made for counting alone may leave + events without a position,
    those that pair with no event: ``unplaced_stop_plus`` and
    ``unplaced_start_plus`` count them, :func:`window_coincidences` adds them
    to the singles, and such a stream is not a record.
    """

    duration: float
    keys: np.ndarray
    unplaced_stop_plus: int = 0
    unplaced_start_plus: int = 0

    start_plus = _port(CH_START_PLUS)
    stop_plus = _port(CH_STOP_PLUS)
    start_minus = _port(CH_START_MINUS)
    stop_minus = _port(CH_STOP_MINUS)

    @classmethod
    def from_ports(cls, duration: float, start_plus, start_minus, stop_plus,
                   stop_minus) -> "EventStream":
        """The stream of four arrays of ps times, one per port, each in any order."""
        return cls(duration, pack_keys([start_plus, stop_plus, start_minus, stop_minus]))

    def port(self, side: str, sign: int) -> np.ndarray:
        return getattr(self, f"{side}_{'plus' if sign > 0 else 'minus'}")

    def to_records(self) -> np.ndarray:
        """Structured array of (channel, time_ps) records, ordered by time and,
        at equal times, by channel byte (see :func:`_encode`)."""
        self._check_placed()
        records = np.empty(len(self.keys), dtype=RECORD_DTYPE)
        _encode(self.keys, records)
        return records

    @classmethod
    def from_records(cls, records: np.ndarray, duration: float) -> "EventStream":
        """The stream of (channel, time_ps) records (see :func:`_decode`)."""
        keys = np.empty(len(records), np.int64)
        if not _decode(records, keys, 0, "in the records"):
            keys.sort()
        return cls(duration, keys)

    def write(self, path) -> None:
        """Write the FRSN v1 file: the magic, the version byte, then the
        records, encoded :data:`_CHUNK` at a time into one reused buffer."""
        self._check_placed()
        buffer = np.empty(min(_CHUNK, len(self.keys)), dtype=RECORD_DTYPE)
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(bytes([FORMAT_VERSION]))
            for begin in range(0, len(self.keys), _CHUNK):
                keys = self.keys[begin:begin + _CHUNK]
                _encode(keys, buffer[:len(keys)])
                fh.write(buffer[:len(keys)])

    def _check_placed(self) -> None:
        if self.unplaced_start_plus or self.unplaced_stop_plus:
            raise ValueError(f"the stream holds no position for {self.unplaced_start_plus} "
                             f"start + and {self.unplaced_stop_plus} stop + events: it was "
                             f"made for counting, not as a record")

    @classmethod
    def read(cls, path, duration: float) -> "EventStream":
        """The stream of an FRSN v1 file.

        The key array is sized from the file length, and the records are
        read :data:`_CHUNK` at a time into one reused buffer and decoded
        straight into it, so reading holds the keys and one chunk. The keys
        are sorted only if one of them decreases.
        """
        with open(path, "rb") as fh:
            header = fh.read(5)
            if header[:4] != MAGIC:
                raise ValueError(f"{path}: not a detection-record file")
            if len(header) < 5:
                raise ValueError(f"{path}: truncated, no format version byte")
            if header[4] != FORMAT_VERSION:
                raise ValueError(f"{path}: unsupported format version {header[4]}")
            size = os.fstat(fh.fileno()).st_size - len(header)
            if size % RECORD_DTYPE.itemsize:
                raise ValueError(f"{path}: truncated, {size} record bytes is not a multiple of 9")
            keys = np.empty(size // RECORD_DTYPE.itemsize, np.int64)
            buffer = np.empty(min(_CHUNK, len(keys)), dtype=RECORD_DTYPE)
            in_order = True
            for begin in range(0, len(keys), _CHUNK):
                records = buffer[:min(_CHUNK, len(keys) - begin)]
                got = fh.readinto(records)
                if got != records.nbytes:
                    raise ValueError(f"{path}: truncated while read, {begin * 9 + got} "
                                     f"of {size} record bytes")
                in_order &= _decode(records, keys, begin, f"in {path}")
        if not in_order:
            keys.sort()
        return cls(duration, keys)


def _encode(keys: np.ndarray, records: np.ndarray) -> None:
    """Write the (channel, time_ps) records of ``keys`` into ``records``, a
    :data:`RECORD_DTYPE` array of the same length.

    ``time_ps`` holds the signed time in two's complement, so its 8 bytes are
    a little-endian signed integer and a negative time (possible from jitter
    near t = 0) reads back unchanged.
    """
    np.bitwise_and(keys, 3, out=records["channel"], casting="unsafe")
    np.right_shift(keys, 2, out=records["time_ps"], casting="unsafe")


def _decode(records: np.ndarray, keys: np.ndarray, begin: int, where: str) -> bool:
    """Write the keys of ``records`` into ``keys[begin:begin + len(records)]``
    and tell whether no key decreases from ``keys[begin - 1]`` on.

    A channel byte above 3 or a time with |t| >= 2**61 ps raises
    ``ValueError`` ending in ``where``. Records written before the (time,
    channel) order hold ties in channel order (0, 2, 1, 3), so their keys
    decrease; equal keys are indistinguishable, so any sort restores them.
    """
    chan = records["channel"]
    if chan.max(initial=0) > CH_STOP_MINUS:
        raise ValueError(f"unknown channel byte {chan.max()} {where}")
    out = keys[begin:begin + len(records)]
    np.copyto(out, records["time_ps"], casting="unsafe")  # back from two's complement
    _check_packable(out, where)
    out <<= 2
    out += chan
    run = keys[max(begin - 1, 0):begin + len(records)]
    return not (run[1:] < run[:-1]).any()


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


def _check_packable(times: np.ndarray, where: str) -> None:
    """Raise ``ValueError`` unless every time has |t| < 2**61 ps."""
    if len(times) and (times.min() <= -PACK_LIMIT_PS or times.max() >= PACK_LIMIT_PS):
        raise ValueError(f"event time outside the packable +-2**61 ps, "
                         f"{times.min()} to {times.max()} ps {where}")


def pack_keys(blocks) -> np.ndarray:
    """Sorted int64 keys ``time_ps * 4 + channel``, where ``blocks[c]`` holds
    ps times of channel byte ``c``.

    Keys order events by time and, at equal times, by channel byte; ``key >> 2``
    is the time and ``key & 3`` the channel. A time with |t| >= 2**61 ps does
    not fit and raises ``ValueError``. The blocks are written into one array
    and sorted in place, so packing needs no buffer beyond the keys.
    """
    keys = np.empty(sum(len(times) for times in blocks), np.int64)
    end = 0
    for channel, times in enumerate(blocks):
        begin, end = end, end + len(times)
        pack_into(keys[begin:end], times, channel)
    keys.sort()
    return keys


def pack_into(keys: np.ndarray, times: np.ndarray, channel: int) -> None:
    """Write the (unsorted) keys of ps ``times`` on ``channel`` into ``keys``,
    an int64 array of the same length; |t| >= 2**61 ps raises ``ValueError``."""
    _check_packable(times, f"on channel {channel}")
    np.multiply(times, 4, out=keys)
    keys += channel


def pair_positions(keys: np.ndarray, reach_ps: int):
    """Positions in sorted packed ``keys`` of the (start, stop) pairs with
    |stop - start| <= reach_ps, each pair once.

    Every key between the two events of a pair is within 4 reach + 3 of its
    successor. A neighbour-gap pass keeps the few positions whose next key is
    that close; round r then looks r keys ahead of each one still in reach,
    checks the side bits and the exact |dt|, and drops the positions whose
    r+1-th successor is out of reach. Rounds = most events within one reach.
    """
    gap = 4 * reach_ps + 3
    near = [np.flatnonzero(np.diff(keys[i:i + _CHUNK + 1]) <= gap) + i
            for i in range(0, len(keys) - 1, _CHUNK)]
    p = np.concatenate(near) if near else np.empty(0, np.int64)
    starts, stops = [], []
    step = 1
    while len(p):
        a, b = keys[p], keys[p + step]
        pair = ((a & 1) != (b & 1)) & ((b >> 2) - (a >> 2) <= reach_ps)
        start_first = (a & 1) == 0
        starts.append(np.where(start_first, p, p + step)[pair])
        stops.append(np.where(start_first, p + step, p)[pair])
        step += 1
        p = p[p + step < len(keys)]
        p = p[keys[p + step] - keys[p] <= gap]
    if not starts:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    return np.concatenate(starts), np.concatenate(stops)


def pairing_counts(keys: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Pairs per output-port pairing, in :data:`OUTCOMES` order, from the
    port bit (bit 1) of each pair's start and stop key."""
    return np.bincount((keys[starts] & 2) | (keys[stops] & 2) >> 1, minlength=4)


def window_coincidences(stream: EventStream, tphc: TphcParams,
                        path_delay: float | None = None) -> CountSummary:
    """Count start-stop pairs with |dt| <= window_width / 2 per output-port
    pairing, plus monitored singles and the accidental estimate. The
    stream's unplaced start + and stop + events count as singles. A window at
    least as wide as the interferometer path delay no longer rejects the
    side peaks; that is reported as a warning, not an error.
    """
    if path_delay is not None and tphc.window_width >= path_delay:
        warnings.warn(
            f"coincidence window {tphc.window_width} s does not exclude the "
            f"side peaks at the {path_delay} s path delay",
            stacklevel=2,
        )
    keys = stream.keys
    singles_start = singles_stop = 0
    for begin in range(0, len(keys), _CHUNK):  # a chunk's channels at a time
        channels = np.bitwise_and(keys[begin:begin + _CHUNK], 3, dtype=np.uint8,
                                  casting="unsafe")
        singles_start += int(np.count_nonzero(channels == CH_START_PLUS))
        singles_stop += int(np.count_nonzero(channels == CH_STOP_PLUS))
    singles_start += stream.unplaced_start_plus
    singles_stop += stream.unplaced_stop_plus
    coinc = dict.fromkeys(OUTCOMES, 0)
    if tphc.window_width > 0:
        counts = pairing_counts(keys, *pair_positions(keys, round(tphc.window_width / 2 / PS)))
        coinc = dict(zip(OUTCOMES, counts.tolist()))
    return CountSummary.from_counts(stream.duration, singles_start, singles_stop,
                                    coinc, tphc.window_width)


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
    range_ps = round(range_ / PS)
    nbins = max(1, -(-2 * range_ps // bin_ps))
    keys = stream.keys
    starts, stops = pair_positions(keys, range_ps)
    index = ((keys[stops] >> 2) - (keys[starts] >> 2) + range_ps) // bin_ps
    counts = np.bincount(np.minimum(index, nbins - 1), minlength=nbins).astype(np.int64)
    return Histogram(bin_width=bin_ps * PS, origin=-range_ps * PS, counts=counts)

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
from concurrent.futures import ThreadPoolExecutor
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
# at a time, so temporaries and buffers stay small next to a whole run's keys;
# from two chunks on, in two halves on two threads (see _halves).
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
        if not _decode(records, keys, "in the records"):
            keys.sort()
        return cls(duration, keys)

    def write(self, path) -> None:
        """Write the FRSN v1 file: the magic, the version byte, then the
        records, encoded :data:`_CHUNK` at a time into a reused buffer. A
        stream of two chunks or more is written in two halves on two threads
        (:func:`_halves`), each at its own file offset.

        ``path`` must name a seekable regular file, not a FIFO. It is
        overwritten in place: 5 zero bytes, the records, a cut to 5 + 9n
        bytes, and the header last, so a write that stops part way leaves a
        file that :meth:`read` refuses. It is not truncated first, since
        ext4 (``auto_da_alloc``, on by default) writes a file truncated to
        0 bytes back to disk when it is closed: a 113 MB record took
        0.09-0.12 s a write so, against 0.05 s in place on one thread, on a
        2-core VM.
        """
        self._check_placed()
        keys = self.keys
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            _pwrite(fd, bytes(5), 0)

            def part(begin: int, end: int) -> None:
                buffer = np.empty(min(_CHUNK, end - begin), dtype=RECORD_DTYPE)
                for at in range(begin, end, _CHUNK):
                    records = buffer[:min(_CHUNK, end - at)]
                    _encode(keys[at:at + len(records)], records)
                    _pwrite(fd, records, 5 + RECORD_DTYPE.itemsize * at)
            _halves(len(keys), part)
            os.ftruncate(fd, 5 + RECORD_DTYPE.itemsize * len(keys))
            _pwrite(fd, MAGIC + bytes([FORMAT_VERSION]), 0)
        finally:
            os.close(fd)

    def _check_placed(self) -> None:
        if self.unplaced_start_plus or self.unplaced_stop_plus:
            raise ValueError(f"the stream holds no position for {self.unplaced_start_plus} "
                             f"start + and {self.unplaced_stop_plus} stop + events: it was "
                             f"made for counting, not as a record")

    @classmethod
    def read(cls, path, duration: float) -> "EventStream":
        """The stream of an FRSN v1 file, a seekable regular file.

        The key array is sized from the file length, and the records are
        read :data:`_CHUNK` at a time into a reused buffer and decoded
        straight into it. A file of two chunks or more is read in two halves
        on two threads (:func:`_halves`), each with its own buffer, so
        reading holds the keys and two chunks. The keys are sorted only if
        one of them decreases, within a chunk or across a chunk edge.
        """
        with open(path, "rb") as fh:
            header = fh.read(5)
            if header[:4] != MAGIC:
                raise ValueError(f"{path}: not a detection-record file, or one whose "
                                 f"write did not finish")
            if len(header) < 5:
                raise ValueError(f"{path}: truncated, no format version byte")
            if header[4] != FORMAT_VERSION:
                raise ValueError(f"{path}: unsupported format version {header[4]}")
            size = os.fstat(fh.fileno()).st_size - len(header)
            if size % RECORD_DTYPE.itemsize:
                raise ValueError(f"{path}: truncated, {size} record bytes is not a multiple of 9")
            keys = np.empty(size // RECORD_DTYPE.itemsize, np.int64)

            def part(begin: int, end: int) -> bool:
                buffer = np.empty(min(_CHUNK, end - begin), dtype=RECORD_DTYPE)
                in_order = True
                for at in range(begin, end, _CHUNK):
                    records = buffer[:min(_CHUNK, end - at)]
                    got = os.preadv(fh.fileno(), [records], 5 + RECORD_DTYPE.itemsize * at)
                    if got != records.nbytes:
                        raise ValueError(f"{path}: truncated while read, "
                                         f"{RECORD_DTYPE.itemsize * at + got} of {size} "
                                         f"record bytes")
                    in_order &= _decode(records, keys[at:at + len(records)], f"in {path}")
                return in_order
            in_order = all(_halves(len(keys), part))
        # The halves check inside their chunks; the chunk edges are checked here.
        edges = np.arange(_CHUNK, len(keys), _CHUNK)
        if not in_order or (keys[edges] < keys[edges - 1]).any():
            keys.sort()
        return cls(duration, keys)


def _halves(n: int, part) -> list:
    """``[part(0, mid), part(mid, n)]``, the second half run on one extra
    thread, where ``mid`` holds half of the :data:`_CHUNK`-sized chunks of
    ``n``, rounded down; ``[part(0, n)]`` on this thread alone when ``n`` is
    under two chunks.

    The split depends on ``n`` alone. numpy and file I/O release the GIL, so
    the halves of a long record or key array run on two cores.
    """
    if n < 2 * _CHUNK:
        return [part(0, n)]
    mid = -(-n // _CHUNK) // 2 * _CHUNK
    with ThreadPoolExecutor(max_workers=1) as pool:  # waits for the second half
        second = pool.submit(part, mid, n)
        return [part(0, mid), second.result()]


def _pwrite(fd: int, data, offset: int) -> None:
    """Write all of ``data`` at ``offset`` of ``fd``."""
    view = memoryview(data).cast("B")
    while view:
        done = os.pwrite(fd, view, offset)
        view, offset = view[done:], offset + done


def _encode(keys: np.ndarray, records: np.ndarray) -> None:
    """Write the (channel, time_ps) records of ``keys`` into ``records``, a
    :data:`RECORD_DTYPE` array of the same length.

    ``time_ps`` holds the signed time in two's complement, so its 8 bytes are
    a little-endian signed integer and a negative time (possible from jitter
    near t = 0) reads back unchanged.
    """
    np.bitwise_and(keys, 3, out=records["channel"], casting="unsafe")
    np.right_shift(keys, 2, out=records["time_ps"], casting="unsafe")


def _decode(records: np.ndarray, out: np.ndarray, where: str) -> bool:
    """Write the keys of ``records`` into ``out``, an int64 array of the same
    length, and tell whether no key of ``out`` decreases.

    A channel byte above 3 or a time with |t| >= 2**61 ps raises
    ``ValueError`` ending in ``where``. Records written before the (time,
    channel) order hold ties in channel order (0, 2, 1, 3), so their keys
    decrease; equal keys are indistinguishable, so any sort restores them.
    """
    chan = records["channel"]
    if chan.max(initial=0) > CH_STOP_MINUS:
        raise ValueError(f"unknown channel byte {chan.max()} {where}")
    np.copyto(out, records["time_ps"], casting="unsafe")  # back from two's complement
    _check_packable(out, where)
    out <<= 2
    out += chan
    return not (out[1:] < out[:-1]).any()


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

    def close_gaps(begin: int, end: int) -> list:
        return [np.flatnonzero(np.diff(keys[i:i + _CHUNK + 1]) <= gap) + i
                for i in range(begin, end, _CHUNK)]
    near = [p for half in _halves(len(keys) - 1, close_gaps) for p in half]
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

    def singles(begin: int, end: int) -> Tuple[int, int]:
        start = stop = 0
        for at in range(begin, end, _CHUNK):  # a chunk's channels at a time
            channels = np.bitwise_and(keys[at:at + _CHUNK], 3, dtype=np.uint8,
                                      casting="unsafe")
            start += int(np.count_nonzero(channels == CH_START_PLUS))
            stop += int(np.count_nonzero(channels == CH_STOP_PLUS))
        return start, stop
    halves = _halves(len(keys), singles)
    singles_start = sum(start for start, _ in halves) + stream.unplaced_start_plus
    singles_stop = sum(stop for _, stop in halves) + stream.unplaced_stop_plus
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
    dt = +range. A bin width that rounds to 0 ps, or a range that rounds
    below 0 ps, raises ``ValueError``.
    """
    bin_ps = round(bin_width / PS)
    if bin_ps <= 0:
        raise ValueError(f"bin_width must be at least 1 ps after rounding, got {bin_width}")
    range_ps = round(range_ / PS)
    if range_ps < 0:
        raise ValueError(f"range_ must be at least 0 ps after rounding, got {range_}")
    nbins = max(1, -(-2 * range_ps // bin_ps))
    keys = stream.keys
    starts, stops = pair_positions(keys, range_ps)
    index = ((keys[stops] >> 2) - (keys[starts] >> 2) + range_ps) // bin_ps
    counts = np.bincount(np.minimum(index, nbins - 1), minlength=nbins).astype(np.int64)
    return Histogram(bin_width=bin_ps * PS, origin=-range_ps * PS, counts=counts)

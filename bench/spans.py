"""Span recorder and the wrappers that time fransim's layers from outside.

A span records (name, start, end, parent). While :func:`installed` is active,
the module attributes in :data:`TARGETS` are replaced by wrappers that open a
span around each call and add the call's work counts to the recorder; the
originals are put back when the context exits. fransim itself is not edited:
each wrapped attribute is the name a caller looks up at call time, for example
``fransim.simulator.window_coincidences`` for the call inside
``simulate_setting``.
"""
from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import Counter

import numpy as np

from fransim import analysis, cli, config, events, simulator


class Recorder:
    """In-memory spans plus work counters of one process."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent index or None]
        self.counts = Counter()
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def self_times(self):
        """Each span's duration minus the time its direct children cover.

        Children of one span run one after another in this single thread, so
        the covered time is the sum of their durations.
        """
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def totals(self):
        """name -> (total seconds, self seconds, calls)."""
        out = {}
        for (name, start, end, _), own in zip(self.spans, self.self_times()):
            total, self_s, calls = out.get(name, (0.0, 0.0, 0))
            out[name] = (total + end - start, self_s + own, calls + 1)
        return out


def _stream_events(stream):
    return sum(len(stream.port(side, sign))
               for side in ("start", "stop") for sign in (1, -1))


def _window_counts(args, kwargs, summary):
    stream = args[0]
    return {"events.window_starts": len(stream.start_plus) + len(stream.start_minus),
            "events.coincidences": sum(summary.coincidences.values())}


# (owner, attribute, span name, counter(args, kwargs, result) -> counts or None)
TARGETS = [
    (cli, "main", "cli.main", None),
    (cli, "reproduction_config", "config.load", None),
    (config, "reproduction_config", "config.load", None),
    (config, "loads_config", "config.load", None),
    (config, "validate_config", "config.validate", None),
    (simulator, "validate_config", "config.validate", None),
    (cli, "scan_fringe", "analysis.scan", None),
    (cli, "fit_fringe", "analysis.fit", None),
    (analysis, "curve_fit", "analysis.curve_fit", None),
    (analysis, "simulate_setting", "simulator.setting", None),
    (simulator, "simulate_setting", "simulator.setting", None),
    (simulator, "emit_event_stream", "simulator.emit",
     lambda a, k, r: {"simulator.events": _stream_events(r)}),
    (simulator, "generate_dark_counts", "simulator.dark",
     lambda a, k, r: {"simulator.dark_events": len(r)}),
    (simulator, "apply_jitter", "simulator.jitter",
     lambda a, k, r: {"simulator.signal_events": int(np.size(a[0]))}),
    (simulator, "window_coincidences", "events.window", _window_counts),
    (events, "window_coincidences", "events.window", _window_counts),
    (events, "build_histogram", "events.histogram",
     lambda a, k, r: {"events.histogram_entries": r.total}),
    (events.EventStream, "write", "events.write",
     lambda a, k, r: {"events.bytes_written": os.path.getsize(a[1])}),
    (events.EventStream, "read", "events.read",
     lambda a, k, r: {"events.bytes_read": os.path.getsize(a[1])}),
]


def _wrap(recorder, func, name, counter):
    @functools.wraps(func)
    def traced(*args, **kwargs):
        with recorder.span(name):
            result = func(*args, **kwargs)
        if counter is not None:
            recorder.counts.update(counter(args, kwargs, result))
        return result
    return traced


@contextlib.contextmanager
def installed(recorder):
    """Route every :data:`TARGETS` attribute through ``recorder``; restore on exit."""
    saved = []
    try:
        for owner, attr, name, counter in TARGETS:
            original = vars(owner).get(attr)
            if original is None:  # a refactor removed it: its layer reads 0
                continue
            saved.append((owner, attr, original))
            if isinstance(original, classmethod):
                wrapped = classmethod(_wrap(recorder, original.__func__, name, counter))
            else:
                wrapped = _wrap(recorder, original, name, counter)
            setattr(owner, attr, wrapped)
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(recorder):
    """The per-layer metrics of one traced process, keyed as in BENCHMARK.json."""
    totals = recorder.totals()
    counts = recorder.counts

    def total(name):
        return totals.get(name, (0.0, 0.0, 0))[0]

    def own(name):
        return totals.get(name, (0.0, 0.0, 0))[1]

    def calls(name):
        return totals.get(name, (0.0, 0.0, 0))[2]

    emit_s = total("simulator.emit")
    sim_events = counts["simulator.events"]
    io_s = total("events.write") + total("events.read")
    io_bytes = counts["events.bytes_written"] + counts["events.bytes_read"]
    return {
        "config.load_s": total("config.load"),
        "config.validate_s": total("config.validate"),
        "config.validate_calls": calls("config.validate"),
        "simulator.emit_s": emit_s,
        "simulator.emit_self_s": own("simulator.emit"),
        "simulator.dark_s": total("simulator.dark"),
        "simulator.jitter_s": total("simulator.jitter"),
        "simulator.emit_calls": calls("simulator.emit"),
        "simulator.events": sim_events,
        "simulator.dark_events": counts["simulator.dark_events"],
        "simulator.signal_events": counts["simulator.signal_events"],
        "simulator.signal_fraction": _ratio(counts["simulator.signal_events"], sim_events),
        "simulator.events_per_s": _ratio(sim_events, emit_s),
        "events.window_s": total("events.window"),
        "events.window_calls": calls("events.window"),
        "events.window_starts": counts["events.window_starts"],
        "events.coincidences": counts["events.coincidences"],
        "events.coinc_per_start": _ratio(counts["events.coincidences"],
                                         counts["events.window_starts"]),
        "events.histogram_s": total("events.histogram"),
        "events.histogram_entries": counts["events.histogram_entries"],
        "events.write_s": total("events.write"),
        "events.read_s": total("events.read"),
        "events.file_bytes": counts["events.bytes_written"],
        "events.io_mb_per_s": _ratio(io_bytes / 1e6, io_s),
        "analysis.scan_s": total("analysis.scan"),
        "analysis.scan_self_s": own("analysis.scan"),
        "analysis.fit_s": total("analysis.fit"),
        "analysis.fit_attempts": calls("analysis.curve_fit"),
        "cli.main_s": total("cli.main"),
        "cli.self_s": own("cli.main"),
    }

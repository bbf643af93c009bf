"""The benchmark's workloads and the analytic oracle their output checks use.

Each workload is a closed loop with one caller: ``setup()`` prepares its
inputs, ``run()`` is the timed part and returns a JSON-able output, and
``check(output)`` returns the list of failed checks (empty when correct).
Calls into fransim go through module attributes (``fransim.cli.main``, ...)
so that the tracing wrappers in ``spans`` see them. The reasons for each
workload are in README.md next to this file.
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
import os
from dataclasses import replace

import numpy as np

import fransim.cli
import fransim.config
import fransim.events
import fransim.simulator
from fransim import quantum

PS = 1e-12
FWHM_PER_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))
OUTCOMES = ((1, 1), (1, -1), (-1, 1), (-1, -1))

# A count fails its check when |z| exceeds this: about 6e-7 per count by
# chance, so a failure means a wrong program, not an unlucky seed.
Z_BAND = 5.0


# ---------------------------------------------------------------------------
# oracle: analytic expectations from the config and fransim.quantum

def port_rates(cfg):
    """Expected singles rate of one start port and of one stop port (1/s)."""
    src = cfg.source
    split = src.pair_rate * src.split_efficiency
    start = split * src.arm1_transmission * cfg.detector_start.efficiency / 2
    stop = split * src.arm2_transmission * cfg.detector_stop.efficiency / 2
    return start + cfg.detector_start.dark_rate, stop + cfg.detector_stop.dark_rate


def event_rate(cfg):
    """Expected detection events per second over all four ports."""
    start, stop = port_rates(cfg)
    return 2.0 * (start + stop)


def expected_counts(cfg, d1, d2, duration):
    """Means of the monitored (+) singles and of the four windowed coincidence
    counts of one setting: true central-peak pairs from the interference law
    plus accidentals over the closed window on the 1 ps grid."""
    src = cfg.source
    both = (src.pair_rate * src.split_efficiency
            * src.arm1_transmission * cfg.detector_start.efficiency
            * src.arm2_transmission * cfg.detector_stop.efficiency)
    start, stop = port_rates(cfg)
    half_ps = round(cfg.tphc.window_width / 2 / PS)
    window = (2 * half_ps + 1) * PS
    sigma = math.hypot(cfg.detector_start.jitter_fwhm,
                       cfg.detector_stop.jitter_fwhm) / FWHM_PER_SIGMA
    accept = math.erf((half_ps + 0.5) * PS / (sigma * math.sqrt(2.0))) if sigma > 0 else 1.0
    coinc = {(i, j): duration * (both * accept * quantum.coincidence_probability(
                 i, j, d1, d2, cfg.visibility) + start * stop * window)
             for i, j in OUTCOMES}
    return duration * start, duration * stop, coinc


def z_failures(label, observed, mean, sigma=None):
    """[] if observed is within Z_BAND of mean (Poisson sigma by default)."""
    z = (observed - mean) / (math.sqrt(mean) if sigma is None else sigma)
    if abs(z) <= Z_BAND:
        return []
    return [f"{label}: observed {observed:.6g}, expected {mean:.6g}, z = {z:.2f}"]


def summary_failures(summary, cfg, d1, d2, label):
    """z checks of a CountSummary's singles and its four pairings."""
    e_start, e_stop, e_coinc = expected_counts(cfg, d1, d2, summary.duration)
    fails = (z_failures(f"{label} singles_start", summary.singles_start, e_start)
             + z_failures(f"{label} singles_stop", summary.singles_stop, e_stop))
    for key in OUTCOMES:
        fails += z_failures(f"{label} coincidences{key}", summary.coincidences[key],
                            e_coinc[key])
    return fails


def summary_dict(summary):
    return {
        "duration": summary.duration,
        "singles_start": summary.singles_start,
        "singles_stop": summary.singles_stop,
        "coincidences": {f"{i},{j}": summary.coincidences[(i, j)] for i, j in OUTCOMES},
        "accidental_estimate": summary.accidental_estimate,
    }


# ---------------------------------------------------------------------------
# workloads

class Repro:
    """`fransim reproduce-paper`: 25 settings x 2 s, then the fit and the verdict."""

    def __init__(self, seed, workdir, points=25, dwell=2.0):
        self.seed, self.points, self.dwell = seed, points, dwell
        self.out = os.path.join(workdir, "fringe.csv")

    def setup(self):
        self.config = replace(fransim.config.reproduction_config(), seed=self.seed)
        self.expected_events = self.points * self.dwell * event_rate(self.config)

    def run(self):
        argv = ["reproduce-paper", "--seed", str(self.seed), "--points", str(self.points),
                "--dwell", repr(self.dwell), "--out", self.out, "--quiet"]
        table = io.StringIO()
        with contextlib.redirect_stdout(table):
            code = fransim.cli.main(argv)
        with open(self.out) as fh:
            fringe = fh.read()
        return {"exit_code": code, "table": table.getvalue(), "fringe_csv": fringe}

    def check(self, output):
        fails = [] if output["exit_code"] == 0 else [
            f"reproduce-paper exited {output['exit_code']}:\n{output['table']}"]
        rows = list(csv.DictReader(line for line in output["fringe_csv"].splitlines()
                                   if not line.startswith("#")))
        if len(rows) != self.points:
            return fails + [f"fringe CSV has {len(rows)} rows, expected {self.points}"]
        cfg = self.config
        window = cfg.tphc.window_width
        for k, row in enumerate(rows):
            d1 = cfg.analyzer1.phase + 4.0 * math.pi * float(row["control"]) / cfg.wavelength1
            e_start, e_stop, e_coinc = expected_counts(cfg, d1, cfg.analyzer2.phase, self.dwell)
            fails += z_failures(f"point {k} raw (+,+)", int(row["raw"]), e_coinc[(1, 1)])
            # The accidentals are singles_start * singles_stop * window / T.
            e_acc = e_start * e_stop * window / self.dwell
            fails += z_failures(f"point {k} accidentals", float(row["accidentals"]), e_acc,
                                e_acc * math.sqrt(1 / e_start + 1 / e_stop))
        return fails


DARK_CONFIG = """\
# acceptance criterion 1b: dark counts only, 250 kHz start / 380 kHz stop per port
seed = {seed}
source.pair_rate = 0
source.split_efficiency = 1
source.arm1_transmission = 1
source.arm2_transmission = 1
detector_start.efficiency = 1
detector_start.dark_rate = 250 kHz
detector_stop.efficiency = 1
detector_stop.dark_rate = 380 kHz
detector_stop.jitter_fwhm = 0 ps
"""
PUBLISHED_ACCIDENTALS_HZ = 33.25


class DarkLong:
    """One long dark-only `simulate_setting`: the whole stream is materialised."""

    def __init__(self, seed, workdir, duration=60.0):
        self.seed, self.duration = seed, duration

    def setup(self):
        self.config = fransim.config.loads_config(DARK_CONFIG.format(seed=self.seed),
                                                  origin="dark_long")
        self.expected_events = self.duration * event_rate(self.config)

    def run(self):
        self.summary = fransim.simulator.simulate_setting(self.config, 0.0, 0.0,
                                                          self.duration, self.seed)
        return summary_dict(self.summary)

    def check(self, output):
        rate = self.summary.coincidences[(1, 1)] / self.summary.duration
        fails = [] if abs(rate - PUBLISHED_ACCIDENTALS_HZ) <= 0.10 * PUBLISHED_ACCIDENTALS_HZ \
            else [f"(+,+) rate {rate:.2f} Hz outside 10% of {PUBLISHED_ACCIDENTALS_HZ} Hz"]
        return fails + summary_failures(self.summary, self.config, 0.0, 0.0, "dark_long")


HIST_BIN = 50e-12
HIST_RANGE = 2e-9


class TagIO:
    """FRSN write, read back, histogram and window count of a prepared stream."""

    def __init__(self, seed, workdir, duration=10.0):
        self.seed, self.duration = seed, duration
        self.path = os.path.join(workdir, "stream.frsn")

    def setup(self):
        self.config = replace(fransim.config.reproduction_config(), seed=self.seed)
        self.stream = fransim.simulator.emit_event_stream(self.config, 0.0, 0.0,
                                                          self.duration, self.seed)
        self.expected_events = self.duration * event_rate(self.config)

    def run(self):
        self.back = self.hist = self.summary = None  # free the last execution's output
        self.stream.write(self.path)
        self.back = fransim.events.EventStream.read(self.path, self.duration)
        self.hist = fransim.events.build_histogram(self.back, HIST_BIN, HIST_RANGE)
        self.summary = fransim.events.window_coincidences(
            self.back, self.config.tphc, path_delay=self.config.analyzer1.path_delay)
        return {"summary": summary_dict(self.summary), "histogram": self.hist.counts.tolist()}

    def check(self, output):
        fails = []
        ports = ("start_plus", "start_minus", "stop_plus", "stop_minus")
        for port in ports:
            if not np.array_equal(getattr(self.stream, port), getattr(self.back, port)):
                fails.append(f"{port} read back differs from the stream written")
        n_events = sum(len(getattr(self.stream, port)) for port in ports)
        size = os.path.getsize(self.path)
        if size != 5 + 9 * n_events:
            fails.append(f"file has {size} bytes for {n_events} records")
        # Independent pair count: from each stop, the starts within +-range.
        starts = np.sort(np.concatenate([self.stream.start_plus, self.stream.start_minus]))
        stops = np.concatenate([self.stream.stop_plus, self.stream.stop_minus])
        range_ps = round(HIST_RANGE / PS)
        pairs = int((np.searchsorted(starts, stops + range_ps, side="right")
                     - np.searchsorted(starts, stops - range_ps, side="left")).sum())
        if self.hist.total != pairs:
            fails.append(f"histogram total {self.hist.total} != {pairs} pairs within +-2 ns")
        return fails + summary_failures(self.summary, self.config, 0.0, 0.0, "tag_io")


WORKLOADS = {"repro": Repro, "dark_long": DarkLong, "tag_io": TagIO}

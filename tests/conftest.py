from dataclasses import replace

import numpy as np

from fransim.config import (
    DetectorParams,
    ExperimentConfig,
    InterferometerParams,
    SourceParams,
    TphcParams,
)
from fransim.events import PS


def clean_config(pair_rate=1e5, visibility=0.957, window=350e-12,
                 jitter_stop=0.0, dark_start=0.0, dark_stop=0.0,
                 seed=1) -> ExperimentConfig:
    """Lossless, dark-free baseline; every imperfection opt-in."""
    return ExperimentConfig(
        source=SourceParams(pair_rate=pair_rate, split_efficiency=1.0,
                            arm1_transmission=1.0, arm2_transmission=1.0),
        analyzer1=InterferometerParams(),
        analyzer2=InterferometerParams(),
        detector_start=DetectorParams(efficiency=1.0, dark_rate=dark_start),
        detector_stop=DetectorParams(efficiency=1.0, dark_rate=dark_stop,
                                     jitter_fwhm=jitter_stop),
        tphc=TphcParams(window_width=window),
        visibility=visibility,
        seed=seed,
    )


def side_times(stream, side):
    """Sorted ps times of both ports of one side, "start" or "stop"."""
    return np.sort(np.concatenate([stream.port(side, 1), stream.port(side, -1)]))


def stops_moved(stream, offset):
    """``stream`` with every stop event moved by ``-offset`` seconds, rounded
    to whole ps, so a window centred on 0 counts the peak at ``offset``.

    A stream made for counting, with unplaced events, is refused: it keeps
    only the starts near its own stops, so its moved stops would pair
    against starts it never kept."""
    if stream.unplaced_stop_plus or stream.unplaced_start_plus:
        raise ValueError("stops_moved takes a record, not a stream made for counting")
    keys = stream.keys - (stream.keys & 1) * (4 * round(offset / PS))
    keys.sort(kind="stable")
    return replace(stream, keys=keys)

"""Apparatus parameterization: typed config, validation, and a plain-text
key-value file format with unit suffixes (stored internally in SI units)."""
from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field, replace

__all__ = [
    "ConfigError",
    "SourceParams",
    "InterferometerParams",
    "DetectorParams",
    "TphcParams",
    "ExperimentConfig",
    "default_config",
    "reproduction_config",
    "load_config",
    "loads_config",
    "dump_config",
    "config_hash",
    "parse_quantity",
]


class ConfigError(ValueError):
    """Configuration parse or invariant failure; message carries the key path."""


@dataclass
class SourceParams:
    pair_rate: float = 2.0e7            # created pairs / s
    split_efficiency: float = 0.05      # pair exits by different output fibers
    arm1_transmission: float = 0.77     # aggregate post-source loss, start arm
    arm2_transmission: float = 0.00551  # aggregate post-source loss, stop arm


@dataclass
class InterferometerParams:
    phase: float = 0.0                  # rad
    path_delay: float = 0.7e-9          # s, long minus short traversal time
    phase_noise_sigma: float = 0.0      # rad, optional white phase noise


@dataclass
class DetectorParams:
    efficiency: float = 0.65
    dark_rate: float = 0.0              # counts / s, per detector
    jitter_fwhm: float = 0.0            # s


@dataclass
class TphcParams:
    window_width: float = 350e-12       # s
    center_offset: float = 0.0          # s, calibrated central-peak position


@dataclass
class ExperimentConfig:
    source: SourceParams = field(default_factory=SourceParams)
    analyzer1: InterferometerParams = field(default_factory=InterferometerParams)
    analyzer2: InterferometerParams = field(default_factory=InterferometerParams)
    detector_start: DetectorParams = field(
        default_factory=lambda: DetectorParams(efficiency=0.65, dark_rate=60.0)
    )
    detector_stop: DetectorParams = field(
        default_factory=lambda: DetectorParams(
            efficiency=0.17, dark_rate=180e3, jitter_fwhm=200e-12
        )
    )
    tphc: TphcParams = field(default_factory=TphcParams)
    wavelength1: float = 704e-9         # m, start-side photon wavelength
    visibility: float = 0.957
    seed: int = 12345


def default_config() -> ExperimentConfig:
    """Defaults matching the published apparatus values where quoted; the
    pair rate and arm transmissions are tuned so the start-detector singles
    land near 250 kHz with coincidence statistics at the published scale."""
    return ExperimentConfig()


def reproduction_config() -> ExperimentConfig:
    """Default config with the stop-detector dark rate raised so its total
    singles reach the published 380 kHz (the unmodeled background of the
    real stop detector is folded into its dark rate)."""
    cfg = default_config()
    cfg = replace(cfg, detector_stop=replace(cfg.detector_stop, dark_rate=3.795e5))
    return cfg


# ---------------------------------------------------------------------------
# validation

def _require(ok: bool, key: str, msg: str) -> None:
    if not ok:
        raise ConfigError(f"{key}: {msg}")


def _check_prob(value: float, key: str) -> None:
    _require(math.isfinite(value) and 0.0 <= value <= 1.0, key, f"must lie in [0, 1], got {value}")


def validate_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """Check all type invariants; raises ConfigError with the offending key path."""
    s = cfg.source
    _require(math.isfinite(s.pair_rate) and s.pair_rate >= 0, "source.pair_rate", "must be >= 0")
    _check_prob(s.split_efficiency, "source.split_efficiency")
    _check_prob(s.arm1_transmission, "source.arm1_transmission")
    _check_prob(s.arm2_transmission, "source.arm2_transmission")
    for name, ana in (("analyzer1", cfg.analyzer1), ("analyzer2", cfg.analyzer2)):
        _require(math.isfinite(ana.phase), f"{name}.phase", "must be finite")
        _require(ana.path_delay > 0, f"{name}.path_delay", "must be > 0")
        _require(ana.phase_noise_sigma >= 0, f"{name}.phase_noise_sigma", "must be >= 0")
    _require(
        cfg.analyzer1.path_delay == cfg.analyzer2.path_delay,
        "analyzer2.path_delay",
        "both interferometers must share the same path delay",
    )
    for name, det in (("detector_start", cfg.detector_start), ("detector_stop", cfg.detector_stop)):
        _check_prob(det.efficiency, f"{name}.efficiency")
        _require(det.dark_rate >= 0, f"{name}.dark_rate", "must be >= 0")
        _require(det.jitter_fwhm >= 0, f"{name}.jitter_fwhm", "must be >= 0")
    _require(cfg.tphc.window_width > 0, "tphc.window_width", "must be > 0")
    _require(
        cfg.tphc.window_width < cfg.analyzer1.path_delay,
        "tphc.window_width",
        f"must be smaller than the {cfg.analyzer1.path_delay} s path delay "
        "so the side peaks are excluded",
    )
    _require(math.isfinite(cfg.tphc.center_offset), "tphc.center_offset", "must be finite")
    _require(cfg.wavelength1 > 0, "wavelength1", "must be > 0")
    _check_prob(cfg.visibility, "visibility")
    _require(isinstance(cfg.seed, int) and cfg.seed >= 0, "seed", "must be a non-negative integer")
    return cfg


# ---------------------------------------------------------------------------
# unit-suffixed quantities

_UNIT_SCALE = {
    "": 1.0,
    "s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9, "ps": 1e-12,
    "m": 1.0, "mm": 1e-3, "um": 1e-6, "nm": 1e-9,
    "Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9,
    "hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9,
    "rad": 1.0,
}

_QTY_RE = re.compile(r"^\s*([-+]?[0-9.]+(?:[eE][-+]?[0-9]+)?)\s*([a-zA-Z]*)\s*$")


def parse_quantity(text: str, key: str = "value") -> float:
    """Parse '350 ps', '704nm', '180 kHz' or a bare number into SI units."""
    m = _QTY_RE.match(text)
    if m is None:
        raise ConfigError(f"{key}: cannot parse quantity {text!r}")
    value, unit = m.groups()
    if unit not in _UNIT_SCALE:
        raise ConfigError(f"{key}: unknown unit suffix {unit!r} in {text!r}")
    return float(value) * _UNIT_SCALE[unit]


def _parse_int(text: str, key: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {text!r}") from None


# Canonical key order; each entry: (dotted key, parser tag).
_KEYS = [
    ("visibility", "float"),
    ("wavelength1", "qty"),
    ("seed", "int"),
    ("source.pair_rate", "qty"),
    ("source.split_efficiency", "float"),
    ("source.arm1_transmission", "float"),
    ("source.arm2_transmission", "float"),
    ("analyzer1.phase", "qty"),
    ("analyzer1.path_delay", "qty"),
    ("analyzer1.phase_noise_sigma", "float"),
    ("analyzer2.phase", "qty"),
    ("analyzer2.path_delay", "qty"),
    ("analyzer2.phase_noise_sigma", "float"),
    ("detector_start.efficiency", "float"),
    ("detector_start.dark_rate", "qty"),
    ("detector_start.jitter_fwhm", "qty"),
    ("detector_stop.efficiency", "float"),
    ("detector_stop.dark_rate", "qty"),
    ("detector_stop.jitter_fwhm", "qty"),
    ("tphc.window_width", "qty"),
    ("tphc.center_offset", "qty"),
]
_KEY_KIND = dict(_KEYS)


def _get(cfg: ExperimentConfig, dotted: str):
    obj = cfg
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def _set(cfg: ExperimentConfig, dotted: str, value) -> None:
    parts = dotted.split(".")
    obj = cfg
    for part in parts[:-1]:
        obj = getattr(obj, part)
    setattr(obj, parts[-1], value)


def loads_config(text: str, origin: str = "<string>") -> ExperimentConfig:
    """Parse config text on top of the defaults; unknown keys are rejected."""
    cfg = default_config()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        kind = _KEY_KIND.get(key)
        if kind is None:
            raise ConfigError(f"{origin}:{lineno}: unknown key {key!r}")
        where = f"{origin}:{lineno}: {key}"
        if kind == "int":
            parsed = _parse_int(value, where)
        elif kind == "qty":
            parsed = parse_quantity(value, where)
        else:
            try:
                parsed = float(value)
            except ValueError:
                raise ConfigError(f"{where}: expected a number, got {value!r}") from None
        _set(cfg, key, parsed)
    return validate_config(cfg)


def load_config(path) -> ExperimentConfig:
    """Load and validate a config file; an empty file yields the defaults."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return loads_config(text, origin=str(path))


def dump_config(cfg: ExperimentConfig) -> str:
    """Canonical SI-unit dump; load(dump(cfg)) round-trips byte-identically."""
    lines = []
    for key, kind in _KEYS:
        value = _get(cfg, key)
        lines.append(f"{key} = {int(value) if kind == 'int' else repr(float(value))}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    """Short stable hash of the canonical dump, for output provenance headers."""
    return hashlib.sha256(dump_config(cfg).encode()).hexdigest()[:16]

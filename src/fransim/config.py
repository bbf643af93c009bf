"""Apparatus parameterization: typed config, validation, and a plain-text
key-value file format with unit suffixes (stored internally in SI units)."""
from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field, fields, is_dataclass, replace

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


SLICE_SECONDS = 1.0  # the simulator's batching granularity for the derived RNG streams
# Jitter bound of a slice's edge bands, in standard deviations: a Gaussian
# offset lies past it with probability below 1e-32 per event. It must fit in
# one slice, so validation rejects a wider jitter.
JITTER_SIGMAS = 12


def fwhm_to_sigma(fwhm: float) -> float:
    return fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))


# Field metadata of a value the config file may give with a unit suffix.
QTY = {"tag": "qty"}


@dataclass
class SourceParams:
    pair_rate: float = field(default=2.0e7, metadata=QTY)  # created pairs / s
    split_efficiency: float = 0.05      # pair exits by different output fibers
    arm1_transmission: float = 0.77     # aggregate post-source loss, start arm
    arm2_transmission: float = 0.00551  # aggregate post-source loss, stop arm


@dataclass
class InterferometerParams:
    phase: float = field(default=0.0, metadata=QTY)  # rad
    path_delay: float = field(default=0.7e-9, metadata=QTY)  # s, long minus short traversal time
    phase_noise_sigma: float = 0.0      # rad, optional white phase noise


@dataclass
class DetectorParams:
    efficiency: float = 0.65
    dark_rate: float = field(default=0.0, metadata=QTY)  # counts / s, per detector
    jitter_fwhm: float = field(default=0.0, metadata=QTY)  # s


@dataclass
class TphcParams:
    window_width: float = field(default=350e-12, metadata=QTY)  # s


@dataclass
class ExperimentConfig:
    # Field order is the canonical key order of the config dump.
    visibility: float = 0.957
    wavelength1: float = field(default=704e-9, metadata=QTY)  # m, start-side photon wavelength
    seed: int = 12345
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
    _require(0.0 <= value <= 1.0, key, f"must lie in [0, 1], got {value}")


def validate_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """Check all type invariants; raises ConfigError with the offending key path."""
    for key, tag, owner, attr in _fields(cfg):
        if tag != "int":
            value = getattr(owner, attr)
            _require(math.isfinite(value), key, f"must be finite, got {value}")
    s = cfg.source
    _require(s.pair_rate >= 0, "source.pair_rate", "must be >= 0")
    _check_prob(s.split_efficiency, "source.split_efficiency")
    _check_prob(s.arm1_transmission, "source.arm1_transmission")
    _check_prob(s.arm2_transmission, "source.arm2_transmission")
    for name, ana in (("analyzer1", cfg.analyzer1), ("analyzer2", cfg.analyzer2)):
        _require(0 < ana.path_delay <= SLICE_SECONDS, f"{name}.path_delay",
                 f"must be > 0 and fit in one {SLICE_SECONDS} s slice, got {ana.path_delay} s")
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
        _require(JITTER_SIGMAS * fwhm_to_sigma(det.jitter_fwhm) <= SLICE_SECONDS,
                 f"{name}.jitter_fwhm", f"its {JITTER_SIGMAS}-sigma reach must fit in one "
                 f"{SLICE_SECONDS} s slice, got {det.jitter_fwhm} s")
    _require(cfg.tphc.window_width > 0, "tphc.window_width", "must be > 0")
    _require(
        cfg.tphc.window_width < cfg.analyzer1.path_delay,
        "tphc.window_width",
        f"must be smaller than the {cfg.analyzer1.path_delay} s path delay "
        "so the side peaks are excluded",
    )
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

# One float literal (digits with at most one point, at least one digit), then a unit.
_QTY_RE = re.compile(r"^\s*([-+]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?)"
                     r"\s*([a-zA-Z]*)\s*$")


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


def _fields(obj, prefix: str = ""):
    """Yield (dotted key, parser tag, owner, attribute) of every config key
    under the dataclass ``obj``, in field order, walking nested dataclasses.
    The tag is ``int`` for an int field, ``qty`` for a field declared with
    ``metadata=QTY`` (a unit suffix is allowed) and ``float`` otherwise."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            yield from _fields(value, f"{prefix}{f.name}.")
        else:
            tag = f.metadata.get("tag", "int" if f.type in (int, "int") else "float")
            yield prefix + f.name, tag, obj, f.name


def loads_config(text: str, origin: str = "<string>") -> ExperimentConfig:
    """Parse config text on top of the defaults; unknown keys are rejected."""
    cfg = default_config()
    keys = {key: (tag, owner, attr) for key, tag, owner, attr in _fields(cfg)}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in keys:
            raise ConfigError(f"{origin}:{lineno}: unknown key {key!r}")
        tag, owner, attr = keys[key]
        where = f"{origin}:{lineno}: {key}"
        if tag == "int":
            parsed = _parse_int(value, where)
        elif tag == "qty":
            parsed = parse_quantity(value, where)
        else:
            try:
                parsed = float(value)
            except ValueError:
                raise ConfigError(f"{where}: expected a number, got {value!r}") from None
        setattr(owner, attr, parsed)
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
    for key, tag, owner, attr in _fields(cfg):
        value = getattr(owner, attr)
        lines.append(f"{key} = {int(value) if tag == 'int' else repr(float(value))}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    """Short stable hash of the canonical dump, for output provenance headers."""
    return hashlib.sha256(dump_config(cfg).encode()).hexdigest()[:16]

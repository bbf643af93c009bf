"""From raw events or count summaries to the published quantities: histograms,
net coincidence fringes, fitted visibility with error, correlation
coefficients, CHSH S, and the significance of violation."""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import quantum
from .config import ExperimentConfig, config_hash
from .events import (  # noqa: F401  (re-exported analysis surface)
    CountSummary,
    EventStream,
    Histogram,
    OUTCOMES,
    accidental_rate,
    build_histogram,
    window_coincidences,
)
from .quantum import ChshSettings, UndefinedCorrelationError
from .simulator import simulate_setting, simulate_settings  # noqa: F401  (re-exported)

__all__ = [
    "FringePoint",
    "FringeFit",
    "ChshReport",
    "VIOLATION_SIGMAS",
    "FitError",
    "accidental_rate",
    "scan_fringe",
    "fit_fringe",
    "chsh_experiment",
    "significance_from_visibility",
    "build_histogram",
    "window_coincidences",
    "fringe_csv",
    "chsh_report_text",
    "chsh_report_json",
]

class FitError(RuntimeError):
    """Sinusoid fit failed to converge; message carries the diagnostics."""


def significance_from_visibility(vis: float, vis_sigma: float) -> float:
    """Standard deviations of CHSH violation implied by a fitted visibility,
    via S = 2*sqrt(2)*V and first-order error propagation."""
    if vis_sigma <= 0:
        raise ValueError(f"vis_sigma must be > 0, got {vis_sigma}")
    return (quantum.S_MAX * vis - 2.0) / (quantum.S_MAX * vis_sigma)


# ---------------------------------------------------------------------------
# fringe scan and fit

@dataclass
class FringePoint:
    control: float            # mirror displacement (m) or phase (rad)
    raw_coincidences: int
    accidentals: float
    net: float                # raw - accidentals, never clamped


@dataclass
class FringeFit:
    mean_level: float
    visibility: float         # raw fitted value, may exceed [0, 1]
    visibility_sigma: float
    phase0: float
    period: float
    goodness: float           # reduced chi-square

    @property
    def visibility_clamped(self) -> float:
        return min(max(self.visibility, 0.0), 1.0)


def _point_seed(base_seed: int, index: int) -> int:
    return int(np.random.SeedSequence([base_seed, 7919, index]).generate_state(1)[0])


def scan_fringe(config: ExperimentConfig, scan_axis: str,
                points: Sequence[float], dwell: float) -> List[FringePoint]:
    """Simulate a fringe scan, one count summary per control value.

    scan_axis 'mirror1' moves the bulk-interferometer mirror: a displacement x
    sets d1 = analyzer1.phase + 4*pi*x/wavelength1 (double-pass Michelson).
    scan_axis 'phase2' drives the fiber-interferometer phase directly.
    Only the (+,+) port pairing is recorded, mirroring single-output
    detection; accidentals are subtracted per point. So each setting makes
    and counts the + ports alone, with the full run's counts of those. All
    the points go through one :func:`fransim.simulator.simulate_settings`
    call, point k at seed ``_point_seed(config.seed, k)``.
    """
    if scan_axis not in ("mirror1", "phase2"):
        raise ValueError(f"unknown scan axis {scan_axis!r}")
    if len(points) < 5:
        raise ValueError(f"need at least 5 scan points, got {len(points)}")
    bad = [x for x in points if not math.isfinite(x)]
    if bad:
        raise ValueError(f"scan points must be finite, got {bad[0]}")
    settings = []
    for k, x in enumerate(points):
        if scan_axis == "mirror1":
            d1 = config.analyzer1.phase + 4.0 * math.pi * x / config.wavelength1
            d2 = config.analyzer2.phase
        else:
            d1 = config.analyzer1.phase
            d2 = x
        settings.append((d1, d2, _point_seed(config.seed, k)))
    result = []
    for x, summary in zip(points, simulate_settings(config, settings, dwell,
                                                    monitored_only=True)):
        raw = summary.coincidences[(1, 1)]
        acc = summary.accidental_estimate
        result.append(FringePoint(control=float(x), raw_coincidences=raw,
                                  accidentals=acc, net=raw - acc))
    return result


def _sine(x, mean, vis, phase0, period):
    return mean * (1.0 + vis * np.cos(2.0 * np.pi * x / period + phase0))


def _sine_jac(x, mean, vis, phase0, period):
    """Columns d_sine/d(mean, vis, phase0, period)."""
    k = 2.0 * np.pi * x / period
    cos, sin = np.cos(k + phase0), np.sin(k + phase0)
    return np.column_stack([1.0 + vis * cos, mean * cos, -mean * vis * sin,
                            mean * vis * sin * k / period])


_EPS = np.finfo(float).eps
_XTOL = _FTOL = 1.49012e-8   # MINPACK's defaults, as scipy's curve_fit uses them
_MAX_TRIALS = 1000


def curve_fit(f, x, y, p0, sigma, jac):
    """Weighted least squares of y ~ f(x, *p) by Levenberg-Marquardt.

    Minimises sum(((y - f) / sigma)**2) from p0, with jac(x, *p) the Jacobian
    of f. Each step solves the damped Gauss-Newton system through the SVD of
    the weighted Jacobian with its columns scaled to unit norm (Marquardt's
    diag(J'J) damping), so a period in metres and a level in counts are
    treated alike. A step is taken only if it lowers the cost; the damping
    then falls tenfold, and after a rejected step it grows tenfold.

    Converged: an accepted step moved p by at most XTOL or lowered the cost by
    at most FTOL, relative; a step was rejected while the linear model
    predicted at most an FTOL relative drop (the rest is rounding); or the
    residuals are at the rounding level of y.

    Returns (popt, pcov), pcov being the covariance with sigma taken as
    absolute (scipy's absolute_sigma=True), from the same scaled SVD. A
    singular value below eps * max(m, n) * s_max means the data do not fix
    every parameter; scipy's curve_fit drops it and understates the errors,
    here pcov is then all inf. Raises ValueError for non-finite input and
    RuntimeError when no step lowers the cost or after _MAX_TRIALS trial
    steps.
    """
    x, y, sigma, p = (np.asarray(a, dtype=float) for a in (x, y, sigma, p0))
    if not all(np.isfinite(a).all() for a in (x, y, sigma, p)):
        raise ValueError("array must not contain infs or NaNs")
    rounding_cost = (len(y) * _EPS) ** 2 * float((y / sigma) @ (y / sigma))

    def residual(q):
        r = (y - f(x, *q)) / sigma
        return r, float(r @ r)

    r, cost = residual(p)
    lam, linearised, converged = 1e-3, False, False
    for _ in range(_MAX_TRIALS):
        if not linearised:
            j = jac(x, *p) / sigma[:, None]
            scale = np.linalg.norm(j, axis=0)
            scale[scale == 0] = 1.0
            u, s, vt = np.linalg.svd(j / scale, full_matrices=False)
            ur, linearised = u.T @ r, True
        if converged or cost <= rounding_cost:
            break
        z = vt.T @ (s * ur / (s * s + lam))
        trial = p + z / scale
        r_trial, cost_trial = residual(trial)
        if cost_trial < cost:
            converged = (np.linalg.norm(z) <= _XTOL * np.linalg.norm(scale * p)
                         or cost - cost_trial <= _FTOL * cost)
            p, r, cost, lam, linearised = trial, r_trial, cost_trial, lam / 10.0, False
        elif ur @ ur <= _FTOL * cost:
            break
        elif np.array_equal(trial, p):
            raise RuntimeError(f"no step lowers the cost {cost:.6g} at p = {p}")
        else:
            lam *= 10.0
    else:
        raise RuntimeError(f"no convergence in {_MAX_TRIALS} trial steps")
    if s[-1] <= _EPS * max(j.shape) * s[0]:
        return p, np.full((len(p), len(p)), np.inf)
    cov = (vt.T / s ** 2) @ vt
    return p, cov / np.outer(scale, scale)


def fit_fringe(points: Sequence[FringePoint], period_hint: float) -> FringeFit:
    """Weighted nonlinear least squares of net = A*(1 + V*cos(2*pi*x/T + phi)).

    Weights start from Poisson errors on the raw counts (sqrt(raw), floored at
    raw = 1); after the first convergence the fit is repeated once with
    model-based weights (sqrt of the fitted expected raw count), which removes
    the low-count bias of weighting by observed fluctuations. The period is
    seeded from period_hint, the scan axis's known period, and the level,
    visibility and phase by the weighted linear least-squares fit at that
    period. Degenerate (all-equal) data yields a flat fit with V = 0. A fit
    whose scan spans less than half of its fitted period, or whose data do
    not fix every parameter (see :func:`curve_fit`), raises ``FitError``:
    its level and visibility are not told apart.
    """
    if len(points) < 5:
        raise ValueError(f"need at least 5 points to fit, got {len(points)}")
    x = np.array([p.control for p in points], dtype=float)
    y = np.array([p.net for p in points], dtype=float)
    bad = np.flatnonzero(~(np.isfinite(x) & np.isfinite(y)))
    if len(bad):
        raise ValueError(f"fit points must be finite, point {bad[0]} has "
                         f"control {x[bad[0]]} and net {y[bad[0]]}")
    sigma = np.sqrt(np.maximum([p.raw_coincidences for p in points], 1.0))

    if np.allclose(y, y[0]):
        return FringeFit(mean_level=float(y.mean()), visibility=0.0,
                         visibility_sigma=0.0, phase0=0.0,
                         period=float(period_hint), goodness=0.0)

    # Seed: at a fixed period the model A + A·V·cos(phi)·cos kx - A·V·sin(phi)·sin kx
    # is linear, so weighted linear least squares solves it at period_hint.
    k = 2.0 * np.pi / period_hint
    basis = np.column_stack([np.ones_like(x), np.cos(k * x), np.sin(k * x)]) / sigma[:, None]
    a, b, c = np.linalg.lstsq(basis, y / sigma, rcond=None)[0]
    p0 = (a, math.hypot(b, c) / a, math.atan2(-c, b), period_hint)
    try:
        popt, pcov = curve_fit(_sine, x, y, p0=p0, sigma=sigma, jac=_sine_jac)
    except RuntimeError as exc:
        raise FitError(f"sinusoid fit failed: {exc}") from exc

    # One reweighting pass: expected raw count = fitted net + accidentals.
    accidentals = np.array([p.accidentals for p in points], dtype=float)
    model_sigma = np.sqrt(np.maximum(_sine(x, *popt) + accidentals, 1.0))
    try:
        popt, pcov = curve_fit(_sine, x, y, p0=popt, sigma=model_sigma, jac=_sine_jac)
        sigma = model_sigma
    except RuntimeError:
        pass  # keep the raw-weighted solution

    mean, vis, phase0, period = popt
    span = float(np.ptp(x))
    if span < abs(period) / 2 or not np.isfinite(pcov).all():
        raise FitError(f"the fringe is not resolved: the scan spans {span:.4g}, "
                       f"{span / abs(period):.3g} of the fitted period {abs(period):.4g}, "
                       f"too little to tell the level from the visibility")
    vis_sigma = float(np.sqrt(pcov[1, 1]))
    if vis < 0:  # flip into the V >= 0 convention
        vis, phase0 = -vis, phase0 + math.pi
    if period < 0:
        period, phase0 = -period, -phase0
    resid = (y - _sine(x, mean, vis, phase0, period)) / sigma
    dof = max(len(x) - 4, 1)
    return FringeFit(
        mean_level=float(mean),
        visibility=float(vis),
        visibility_sigma=vis_sigma,
        phase0=float(quantum.reduce_phase(phase0)),
        period=float(period),
        goodness=float(resid @ resid) / dof,
    )


# ---------------------------------------------------------------------------
# CHSH

# A report is violating when S exceeds the local bound 2 by at least this
# many of its standard errors, so that noise above 2 is not called a violation.
VIOLATION_SIGMAS = 3.0


@dataclass
class ChshReport:
    settings: ChshSettings
    correlations: List[float]
    correlation_sigmas: List[float]
    s: float
    s_sigma: float
    significance: float            # (s - 2) / s_sigma, meaningful when s > 2
    single_port_correlations: List[float] = field(default_factory=list)
    single_port_s: Optional[float] = None
    sampler: str = "quantum"

    @property
    def violating(self) -> bool:
        """S - 2 is at least :data:`VIOLATION_SIGMAS` standard errors."""
        return self.significance >= VIOLATION_SIGMAS


def _counts_to_correlation(net: dict, raw: dict) -> Tuple[float, float]:
    """E and its Poisson standard error from net counts keyed by (i, j).

    E = (N++ - N+- - N-+ + N--) / sum N on the net counts themselves: a net
    count is unbiased and may be negative where the accidentals exceed a
    pairing's raw count, so E may then leave [-1, 1]. The variance of each
    net count is taken from the raw count (accidental subtraction adds
    variance, so raw is the conservative Poisson scale).
    """
    total = sum(net.values())
    if total <= 0:
        raise UndefinedCorrelationError("no net coincidences in this setting")
    e = sum(i * j * net[(i, j)] for (i, j) in OUTCOMES) / total
    var = sum(((i * j - e) / total) ** 2 * max(raw[(i, j)], 1.0)
              for (i, j) in OUTCOMES)
    return e, math.sqrt(var)


def _single_port_correlation(net: dict) -> float:
    """Single-output estimator: E from the (+,+) rate alone, normalized by the
    per-pairing mean level (> 0: :func:`_counts_to_correlation` rejects an
    empty setting first) and relying on the symmetry R++ = R--, R+- = R-+."""
    mean_level = sum(net.values()) / 4.0
    return net[(1, 1)] / mean_level - 1.0


def chsh_experiment(config: ExperimentConfig, settings: ChshSettings,
                    dwell: float, law: str = "quantum") -> ChshReport:
    """Run the four CHSH settings through the Monte Carlo engine, pairs following
    the :data:`fransim.quantum.PAIR_LAWS` entry ``law`` (the report's ``sampler``),
    and compute S with propagated Poisson errors from accidental-subtracted counts.
    The settings go through one :func:`fransim.simulator.simulate_settings`
    call, setting k at seed ``_point_seed(config.seed, 1000 + k)``."""
    pairs = [(d1, d2, _point_seed(config.seed, 1000 + k))
             for k, (d1, d2) in enumerate(settings.pairs())]
    es, sigmas, singles = [], [], []
    for summary in simulate_settings(config, pairs, dwell, law=law):
        raw = summary.coincidences
        net = {key: raw[key] - summary.accidental_estimate for key in OUTCOMES}
        e, se = _counts_to_correlation(net, raw)
        es.append(e)
        sigmas.append(se)
        singles.append(_single_port_correlation(net))
    s = settings.combine(es)
    s_sigma = math.sqrt(sum(sg ** 2 for sg in sigmas))
    return ChshReport(
        settings=settings,
        correlations=es,
        correlation_sigmas=sigmas,
        s=s,
        s_sigma=s_sigma,
        significance=(s - 2.0) / s_sigma,
        single_port_correlations=singles,
        single_port_s=settings.combine(singles),
        sampler=law,
    )


# ---------------------------------------------------------------------------
# serialization

TOOL_VERSION = "0.1.0"


def _provenance_lines(config: ExperimentConfig, **extra) -> List[str]:
    lines = [
        f"# fransim {TOOL_VERSION}",
        f"# config_hash = {config_hash(config)}",
        f"# seed = {config.seed}",
        f"# visibility = {config.visibility!r}",
    ]
    lines.extend(f"# {key} = {value!r}" for key, value in extra.items())
    return lines


def fringe_csv(points: Sequence[FringePoint], config: ExperimentConfig,
               dwell: float) -> str:
    lines = _provenance_lines(config, dwell=dwell)
    lines.append("control,raw,accidentals,net")
    for p in points:
        lines.append(f"{p.control!r},{p.raw_coincidences},"
                     f"{p.accidentals!r},{p.net!r}")
    return "\n".join(lines) + "\n"


def chsh_report_text(report: ChshReport) -> str:
    """Flat key=value rendering of a CHSH report."""
    pairs = [
        ("sampler", report.sampler),
        ("s", report.s),
        ("s_sigma", report.s_sigma),
        ("violating", report.violating),
        ("significance", report.significance),
        ("single_port_s", report.single_port_s),
    ]
    for k, (e, se) in enumerate(zip(report.correlations, report.correlation_sigmas)):
        pairs.append((f"e{k}", e))
        pairs.append((f"e{k}_sigma", se))
    return "\n".join(f"{key} = {value}" for key, value in pairs) + "\n"


def chsh_report_json(report: ChshReport) -> str:
    payload = asdict(report)
    payload["violating"] = report.violating
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"

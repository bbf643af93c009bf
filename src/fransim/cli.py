"""Command-line front end: config ingestion, run orchestration, persistence,
and a one-command reproduction of the headline experimental numbers."""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import analysis
from .analysis import (
    TOOL_VERSION,
    chsh_experiment,
    chsh_report_json,
    chsh_report_text,
    fit_fringe,
    fringe_csv,
    lhv_chsh_experiment,
    scan_fringe,
    significance_from_visibility,
)
from .config import (
    ExperimentConfig,
    config_hash,
    default_config,
    dump_config,
    load_config,
    reproduction_config,
)
from .quantum import STANDARD_SETTINGS
from .simulator import simulate_setting

DEFAULT_SCAN_SPAN = 600e-9  # m of mirror displacement, ~1.7 fringes


def _load(args, default=default_config) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else default()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _write(path: Path, text: str, quiet: bool) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    if not quiet:
        print(f"wrote {path}", file=sys.stderr)


def _manifest(cfg: ExperimentConfig, command: str, out: Path, **extra) -> str:
    lines = [
        f"tool = fransim {TOOL_VERSION}",
        f"command = {command}",
        f"output = {out.name}",
        f"config_hash = {config_hash(cfg)}",
        f"seed = {cfg.seed}",
    ]
    lines.extend(f"{key} = {value}" for key, value in extra.items())
    return "\n".join(lines) + "\n# config\n" + dump_config(cfg)


def _sidecar(out: Path) -> Path:
    return out.with_suffix(out.suffix + ".manifest")


def cmd_simulate(args) -> int:
    cfg = _load(args)
    summary = simulate_setting(cfg, cfg.analyzer1.phase, cfg.analyzer2.phase,
                               args.dwell, cfg.seed)
    c = summary.coincidences
    lines = [
        "duration,singles_start,singles_stop,c_pp,c_pm,c_mp,c_mm,accidental_estimate",
        f"{summary.duration!r},{summary.singles_start},{summary.singles_stop},"
        f"{c[(1, 1)]},{c[(1, -1)]},{c[(-1, 1)]},{c[(-1, -1)]},"
        f"{summary.accidental_estimate!r}",
    ]
    out = Path(args.out)
    _write(out, "\n".join(lines) + "\n", args.quiet)
    _write(_sidecar(out), _manifest(cfg, "simulate", out, dwell=args.dwell), args.quiet)
    return 0


def cmd_scan(args) -> int:
    cfg = _load(args)
    controls = np.linspace(0.0, args.span, args.points)
    points = scan_fringe(cfg, args.axis, controls, args.dwell)
    out = Path(args.out)
    _write(out, fringe_csv(points, cfg, args.dwell), args.quiet)
    _write(_sidecar(out),
           _manifest(cfg, "scan", out, dwell=args.dwell, points=args.points,
                     axis=args.axis, span=args.span),
           args.quiet)
    hint = cfg.wavelength1 / 2 if args.axis == "mirror1" else 2 * math.pi
    fit = fit_fringe(points, period_hint=hint)
    if not args.quiet:
        print(f"fitted visibility = {fit.visibility:.4f} +- {fit.visibility_sigma:.4f}, "
              f"period = {fit.period:.4g}", file=sys.stderr)
    return 0


def _write_chsh_report(args, cfg, report, command: str, **extra) -> int:
    out = Path(args.out)
    _write(out, chsh_report_text(report), args.quiet)
    _write(out.with_suffix(out.suffix + ".json"), chsh_report_json(report), args.quiet)
    _write(_sidecar(out), _manifest(cfg, command, out, **extra), args.quiet)
    return 0


def cmd_chsh(args) -> int:
    cfg = _load(args)
    report = chsh_experiment(cfg, STANDARD_SETTINGS, args.dwell)
    return _write_chsh_report(args, cfg, report, "chsh", dwell=args.dwell)


def cmd_lhv(args) -> int:
    cfg = _load(args)
    report = lhv_chsh_experiment(STANDARD_SETTINGS, args.pairs, cfg.seed)
    return _write_chsh_report(args, cfg, report, "lhv", pairs=args.pairs)


def cmd_reproduce_paper(args) -> int:
    cfg = _load(args, reproduction_config)

    controls = np.linspace(0.0, args.span, args.points)
    points = scan_fringe(cfg, "mirror1", controls, args.dwell)
    fit = fit_fringe(points, period_hint=cfg.wavelength1 / 2)

    acc_rate = float(np.mean([p.accidentals for p in points])) / args.dwell
    sig = significance_from_visibility(fit.visibility_clamped, fit.visibility_sigma)

    rows = [
        ("accidental rate (Hz)", acc_rate, 33.25, abs(acc_rate - 33.25) <= 0.10 * 33.25),
        ("fitted visibility", fit.visibility, 0.957,
         abs(fit.visibility - 0.957) <= 3 * fit.visibility_sigma),
        ("visibility std error", fit.visibility_sigma, 0.0315,
         0.005 <= fit.visibility_sigma <= 0.08),
        ("violation significance", sig, 7.93, 5.0 <= sig <= 11.0),
    ]
    width = max(len(r[0]) for r in rows)
    print(f"{'quantity':<{width}}  {'simulated':>12}  {'published':>12}  verdict")
    for name, got, want, ok in rows:
        print(f"{name:<{width}}  {got:>12.4g}  {want:>12.4g}  "
              f"{'pass' if ok else 'FAIL'}")
    if args.out:
        out = Path(args.out)
        _write(out, fringe_csv(points, cfg, args.dwell), args.quiet)
        _write(_sidecar(out),
               _manifest(cfg, "reproduce-paper", out, dwell=args.dwell,
                         points=args.points, span=args.span),
               args.quiet)
    return 0 if all(r[3] for r in rows) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fransim",
        description="Two-photon interference simulator and analysis toolkit",
    )
    parser.add_argument("--version", action="version", version=f"fransim {TOOL_VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, dwell=2.0):
        p.add_argument("--config", help="config file (plain key = value, unit suffixes)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--quiet", action="store_true")
        p.add_argument("--dwell", type=float, default=dwell,
                       help="integration time per setting, seconds")

    p = sub.add_parser("simulate", help="one setting, counts to CSV")
    common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("scan", help="fringe scan over mirror displacement or phase")
    common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--points", type=int, default=25)
    p.add_argument("--span", type=float, default=DEFAULT_SCAN_SPAN,
                   help="scan span (m for mirror1, rad for phase2)")
    p.add_argument("--axis", choices=("mirror1", "phase2"), default="mirror1")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("chsh", help="four-setting CHSH run")
    common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_chsh)

    p = sub.add_parser("lhv", help="CHSH with the classical local sampler")
    common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--pairs", type=int, default=1_000_000,
                   help="samples per setting")
    p.set_defaults(func=cmd_lhv)

    p = sub.add_parser("reproduce-paper",
                       help="fringe scan + fit + significance vs published values")
    common(p)
    p.add_argument("--out")
    p.add_argument("--points", type=int, default=25)
    p.add_argument("--span", type=float, default=DEFAULT_SCAN_SPAN)
    p.set_defaults(func=cmd_reproduce_paper)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, analysis.FitError) as exc:  # incl. ConfigError, UndefinedCorrelationError
        print(f"fransim: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

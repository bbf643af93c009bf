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
    validate_config,
)
from .quantum import STANDARD_SETTINGS
from .simulator import simulate_setting

DEFAULT_SCAN_SPAN = 600e-9  # m of mirror displacement, ~1.7 fringes


def _load(args, default=default_config) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else default()
    if args.seed is not None:
        cfg = validate_config(replace(cfg, seed=args.seed))
    return cfg


def _save(args, cfg: ExperimentConfig, command: str, text: str,
          json_text: str | None = None, **extra) -> None:
    """Write ``text`` to ``--out``, then ``json_text`` (if given) to
    ``--out``.json and the run's manifest (``extra`` adds its lines) to
    ``--out``.manifest, naming each file on stderr unless ``--quiet``."""
    out = Path(args.out)
    head = {"tool": f"fransim {TOOL_VERSION}", "command": command, "output": out.name,
            "config_hash": config_hash(cfg), "seed": cfg.seed, **extra}
    manifest = "".join(f"{key} = {value}\n" for key, value in head.items())
    manifest += "# config\n" + dump_config(cfg)
    out.parent.mkdir(parents=True, exist_ok=True)
    for suffix, content in (("", text), (".json", json_text), (".manifest", manifest)):
        if content is not None:
            path = out.with_suffix(out.suffix + suffix)
            path.write_text(content)
            if not args.quiet:
                print(f"wrote {path}", file=sys.stderr)


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
    _save(args, cfg, "simulate", "\n".join(lines) + "\n", dwell=args.dwell)
    return 0


def cmd_scan(args) -> int:
    cfg = _load(args)
    mirror = args.axis == "mirror1"
    span = args.span
    if span is None:  # a phase scan sweeps the phase the mirror default sweeps on d1
        span = DEFAULT_SCAN_SPAN if mirror else 4.0 * math.pi * DEFAULT_SCAN_SPAN / cfg.wavelength1
    controls = np.linspace(0.0, span, args.points)
    points = scan_fringe(cfg, args.axis, controls, args.dwell)
    _save(args, cfg, "scan", fringe_csv(points, cfg, args.dwell), dwell=args.dwell,
          points=args.points, axis=args.axis, span=span)
    fit = fit_fringe(points, period_hint=cfg.wavelength1 / 2 if mirror else 2 * math.pi)
    if not args.quiet:
        print(f"fitted visibility = {fit.visibility:.4f} +- {fit.visibility_sigma:.4f}, "
              f"period = {fit.period:.4g}", file=sys.stderr)
    return 0


def cmd_chsh(args) -> int:
    cfg = _load(args)
    report = chsh_experiment(cfg, STANDARD_SETTINGS, args.dwell, law=args.law)
    _save(args, cfg, args.command, chsh_report_text(report), chsh_report_json(report),
          dwell=args.dwell)
    return 0


def cmd_reproduce_paper(args) -> int:
    cfg = _load(args, reproduction_config)

    controls = np.linspace(0.0, args.span, args.points)
    points = scan_fringe(cfg, "mirror1", controls, args.dwell)
    fit = fit_fringe(points, period_hint=cfg.wavelength1 / 2)

    acc_rate = float(np.mean([p.accidentals for p in points])) / args.dwell
    # A flat scan fits with no error on V, so it has no significance and fails.
    sig = (significance_from_visibility(fit.visibility_clamped, fit.visibility_sigma)
           if fit.visibility_sigma > 0 else math.nan)

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
        _save(args, cfg, "reproduce-paper", fringe_csv(points, cfg, args.dwell),
              dwell=args.dwell, points=args.points, span=args.span)
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
    p.add_argument("--span", type=float,
                   help=f"scan span: m for mirror1 (default {DEFAULT_SCAN_SPAN}), rad for "
                        f"phase2 (default 4*pi*{DEFAULT_SCAN_SPAN}/wavelength1, the phase "
                        "the mirror default sweeps: 10.71 at 704 nm)")
    p.add_argument("--axis", choices=("mirror1", "phase2"), default="mirror1")
    p.set_defaults(func=cmd_scan)

    for name, law, about in (("chsh", "quantum", "four-setting CHSH run"),
                             ("lhv", "lhv", "four-setting CHSH run with the local pair law")):
        p = sub.add_parser(name, help=about)
        common(p)
        p.add_argument("--out", required=True)
        p.set_defaults(func=cmd_chsh, law=law)

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
    # ValueError includes ConfigError and UndefinedCorrelationError; OSError
    # is an output that cannot be written.
    try:
        return args.func(args)
    except (ValueError, OSError, analysis.FitError) as exc:
        print(f"fransim: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

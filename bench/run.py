#!/usr/bin/env python3
"""fransim benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Run from the root of a source checkout:

    python3 bench/run.py --workload repro --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --workload tag_io --seed 1 --seconds 24 --trace 1 --out r.jsonl
    python3 bench/run.py --compare parent.jsonl change.jsonl

A run starts child processes (``worker.py``) one at a time, with ``src/`` on
PYTHONPATH and BLAS threads set to 1 in the child's environment only. An
untraced run starts two children on distinct inputs derived from ``--seed``,
each executing the workload for half of ``--seconds``, then set-up-only
children. Wall and set-up times are scaled to a reference machine speed
measured between children (see ``calibrate``). A traced run starts an
untraced and a traced child on the same input: their outputs must be
identical, and the difference of their wall times is the tracing overhead.

The last line of standard output is the result: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of BENCHMARK.json, or with
``--trace 1`` its per-layer metrics). The line before it is the full record:
the samples of every child, ``fail_ratio`` and the environment. ``--out``
appends that record, with the traced spans, to a JSON-lines file, which
``--compare`` reads.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(BENCH_DIR, "worker.py")

RUN_CHILDREN = 2        # untraced children per run, each timing for --seconds / 2
MIN_SETUPS = 5          # setup_s is the median of at least this many set-ups
RUN_TIMEOUT_S = 170     # children still running this long after the run began are killed
CAL_REF_S = 0.47        # calibrate() on the baseline machine; times are scaled to it


class BenchError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def program_seed(seed, index):
    """Seed of the index-th input of a run, derived from the workload seed."""
    digest = hashlib.sha256(f"fransim-bench/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


def calibrate():
    """Seconds for a fixed numpy kernel (random draws, sort, search, quantize).

    The machine's speed drifts by 10-30 % over tens of seconds (other tenants
    share it). The parent runs this kernel between children, when nothing
    else of the benchmark runs, and scales each child's times by CAL_REF_S
    over the mean of the calibrations just before and after it.
    """
    rng = np.random.default_rng(12345)
    t0 = time.perf_counter()
    a = np.sort(rng.random(1 << 20))
    np.searchsorted(a, rng.random(1 << 20))
    np.rint(a * 1e12).astype(np.int64)
    return time.perf_counter() - t0


def run_child(workload, seed, trace, role, budget, workdir, deadline):
    """Start one worker, wait for it, return its report (None if it died)."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=SRC)
    child_dir = tempfile.mkdtemp(dir=workdir)
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, WORKER, workload, str(seed), str(trace), role, repr(budget),
         child_dir, repr(spawned)],
        stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - spawned, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None
    finally:
        shutil.rmtree(child_dir, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    report = json.loads(lines[-1])
    report.update(seed=seed, trace=trace, role=role)
    imported = report.pop("fransim")
    if not imported.startswith(SRC):
        raise BenchError(f"fransim was imported from {imported}, not {SRC}")
    return report


def run_children(workload, seed, seconds, trace, workdir):
    """The children of one run: the timed ones, then set-up-only ones.

    Untraced: RUN_CHILDREN children on distinct inputs, each repeating the
    workload for its share of --seconds. Traced: one untraced and one traced
    child on the same input, one execution each.
    """
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if trace:
        plan = [(0, 0, 0.0), (0, 1, 0.0)]
    else:
        plan = [(i, 0, seconds / RUN_CHILDREN) for i in range(RUN_CHILDREN)]
    samples = []
    before = calibrate()

    def child(index, traced, role, budget):
        nonlocal before
        report = run_child(workload, program_seed(seed, index), traced, role, budget,
                           workdir, deadline)
        after = calibrate()
        if report is not None:
            report["speed"] = CAL_REF_S / ((before + after) / 2)
        before = after
        return report

    for index, traced, budget in plan:
        report = child(index, traced, "run", budget)
        if report is None:
            if not samples:
                raise BenchError(f"the first {workload} child failed to start or run")
            report = {"seed": program_seed(seed, index), "trace": traced, "role": "run",
                      "executions": 1, "failures": ["child process died or timed out"]}
        samples.append(report)
    index = len(plan)
    while not trace and sum("setup_s" in s for s in samples) < MIN_SETUPS:
        report = child(index, 0, "setup", 0.0)
        if report is None:
            raise BenchError(f"a {workload} set-up child failed")
        samples.append(report)
        index += 1
    return samples


def executions_failed(runs):
    """(attempted, failed) executions: a child with a failed check fails them all."""
    attempted = sum(s["executions"] for s in runs)
    return attempted, sum(s["executions"] for s in runs if s["failures"])


def scaled_walls(runs):
    return [w * s["speed"] for s in runs for w in s.get("walls", [])]


def end_to_end(runs, samples):
    walls = [(s["events"], w * s["speed"]) for s in runs for w in s.get("walls", [])]
    attempted, failed = executions_failed(runs)
    return {
        "wall_s": statistics.median(w for _, w in walls),
        "events_per_s": statistics.median(e / w for e, w in walls),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in runs if "peak_rss_mb" in s),
        "setup_s": statistics.median(s["setup_s"] * s["speed"]
                                     for s in samples if "setup_s" in s),
        "pass_ratio": 1.0 - failed / attempted,
    }


def unscaled(samples):
    """Medians of the measured times before scaling, kept in the full record."""
    runs = [s for s in samples if s["role"] == "run"]
    return {"wall_s": statistics.median(w for s in runs for w in s.get("walls", [])),
            "setup_s": statistics.median(s["setup_s"] for s in samples if "setup_s" in s),
            "speed": statistics.median(s["speed"] for s in samples if "speed" in s)}


def per_layer(runs):
    traced = [s for s in runs if s["trace"] and "layers" in s]
    plain = [s for s in runs if not s["trace"] and s.get("walls")]
    if not traced or not plain:
        raise BenchError("no traced and untraced pair completed")
    metrics = {name: statistics.median(s["layers"][name] for s in traced)
               for name in traced[0]["layers"]}
    metrics["trace.overhead_s"] = (statistics.median(scaled_walls(traced))
                                   - statistics.median(scaled_walls(plain)))
    return metrics


def mark_pair_mismatches(runs):
    """Fail each traced child whose output differs from its untraced partner's."""
    digest = {s["seed"]: s.get("digest") for s in runs if not s["trace"]}
    for s in runs:
        if s["trace"] and s.get("digest") != digest.get(s["seed"]):
            s["failures"].append("traced output differs from the untraced output")


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def _source_sha256():
    """Digest of src/, which identifies the code when the checkout is not a git tree."""
    h = hashlib.sha256()
    for path in sorted(pathlib.Path(SRC).rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed, samples):
    versions = next((s["versions"] for s in samples if "versions" in s), {})
    return {"git_sha": _git_sha(), "source_sha256": _source_sha256(),
            "python": platform.python_version(), **versions,
            "nproc": os.cpu_count(), "cpu": _cpu_model(), "platform": platform.platform(),
            "workload_seed": seed}


def measure(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {names}")
    if not os.path.isfile(os.path.join(SRC, "fransim", "__init__.py")):
        raise BenchError(f"no fransim sources under {SRC}")
    workdir = tempfile.mkdtemp(prefix=".bench-", dir=ROOT)
    try:
        samples = run_children(args.workload, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    runs = [s for s in samples if s["role"] == "run"]
    if args.trace:
        mark_pair_mismatches(runs)
        metrics, wanted = per_layer(runs), spec["per_layer"]
    else:
        metrics, wanted = end_to_end(runs, samples), spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    attempted, failed = executions_failed(runs)
    for s in runs:
        for failure in s["failures"]:
            print(f"check failed (seed {s['seed']}): {failure}", file=sys.stderr)
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "fail_ratio": failed / attempted,
              "unscaled": unscaled(samples),
              "environment": environment(args.seed, samples), **summary,
              "samples": samples}
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    for s in samples:
        s.pop("spans", None)
    print(json.dumps(record))
    print(json.dumps(summary))


# ---------------------------------------------------------------------------
# compare mode

def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """Classify one metric of one workload by the choosing-metrics section 8 rule.

    improved   the change wins at least 9 of 10 pairs (ties count for neither)
               and the medians differ by more than the parent's quartile spread
    worse      the change's median is worse than the parent's by more than bound
    unresolved the parent's own quartile spread is wider than bound, unless
               every change run reads better than every parent run
    unchanged  otherwise
    """
    sign = 1 if better == "higher" else -1
    q1, med_a, q3 = _quartiles(parent)
    med_b = _quartiles(change)[1]
    gains = [sign * (b - a) for a, b in zip(parent, change)]
    wins = sum(g > 0 for g in gains)
    if gains and wins >= 0.9 * len(gains) and sign * (med_b - med_a) > q3 - q1:
        return "improved"
    scale = abs(med_a) or 1.0
    if (q3 - q1) / scale > bound and not min(sign * b for b in change) > max(sign * a for a in parent):
        return "unresolved"
    if sign * (med_a - med_b) / scale > bound:
        return "worse"
    return "unchanged"


def compare(path_a, path_b, spec):
    def load(path):
        rows = {}
        with open(path) as fh:
            for line in fh:
                if line.strip():
                    rec = json.loads(line)
                    if not rec["trace"]:
                        rows.setdefault(rec["workload"], []).append(rec)
        return rows

    runs_a, runs_b = load(path_a), load(path_b)
    print(f"A = {path_a}\nB = {path_b}\n"
          "runs are paired in file order; quartiles from statistics.quantiles(n=4)")
    row = "{:<10} {:<13} {:>5}  {:<30} {:<30} {:>7}  {}"
    print(row.format("workload", "metric", "n", "A median [q1, q3]", "B median [q1, q3]",
                     "B/A", "verdict"))
    for workload in (w["name"] for w in spec["workloads"]):
        a_recs, b_recs = runs_a.get(workload, []), runs_b.get(workload, [])
        if not a_recs or not b_recs:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in a_recs]
            b = [r["metrics"][name]["value"] for r in b_recs]
            qa, qb = _quartiles(a), _quartiles(b)
            ratio = qb[1] / qa[1] if qa[1] else float("nan")
            label = verdict(a, b, metric["better"], metric["bound"])
            print(row.format(workload, name, f"{len(a)}/{len(b)}",
                             f"{qa[1]:.4g} [{qa[0]:.4g}, {qa[2]:.4g}]",
                             f"{qb[1]:.4g} [{qb[0]:.4g}, {qb[2]:.4g}]",
                             f"{ratio:.3f}", label))
        fails = [sum(r["failed"] for r in recs) / sum(r["attempted"] for r in recs)
                 for recs in (a_recs, b_recs)]
        print(f"{workload:<10} {'fail_ratio':<13} A {fails[0]:.4g}  B {fails[1]:.4g}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full record to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two files written with --out")
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        if args.compare:
            compare(*args.compare, spec)
            return 0
        if not args.workload:
            parser.error("--workload is required")
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        measure(args, spec)
    except (BenchError, OSError) as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

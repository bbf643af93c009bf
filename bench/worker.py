"""One benchmark child process: set up a workload, run it, check it.

Usage: worker.py WORKLOAD SEED TRACE ROLE BUDGET WORKDIR SPAWNED

ROLE is ``run`` or ``setup`` (set up only). A ``run`` child executes the
workload once, then again on the same input while the next execution would
still end within BUDGET seconds of the first one's start. SPAWNED is the
parent's ``time.monotonic()`` just before it started this process, so
``setup_s`` covers interpreter start, imports, config construction and input
preparation. The output of the last execution is checked, and every execution
must give the same output. The process prints one JSON object on its standard
output; the workload's own printing is sent to standard error.
"""
import json
import os
import sys
import time


def _versions():
    import numpy
    import scipy
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "bit_generator": type(numpy.random.default_rng(0).bit_generator).__name__}


def main(argv):
    name, seed, trace, role, budget, workdir, spawned = argv
    report = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    sys.stdout = sys.stderr

    import contextlib
    import hashlib
    import resource
    import traceback

    import fransim
    import spans
    import workloads

    recorder = spans.Recorder() if trace == "1" else None

    def span(label):
        return recorder.span(label) if recorder else contextlib.nullcontext()

    result = {"fransim": os.path.dirname(fransim.__file__), "versions": _versions()}
    workload = workloads.WORKLOADS[name](int(seed), workdir)
    walls, digests, failures = [], [], []
    with spans.installed(recorder) if recorder else contextlib.nullcontext():
        with span("bench.setup"):
            workload.setup()
        result["setup_s"] = time.monotonic() - float(spawned)
        if role == "run":
            first = time.perf_counter()
            while True:
                t0 = time.perf_counter()
                try:
                    with span("bench.run"):
                        output = workload.run()
                except Exception:
                    failures.append(traceback.format_exc())
                    break
                walls.append(time.perf_counter() - t0)
                digests.append(hashlib.sha256(
                    json.dumps(output, sort_keys=True).encode()).hexdigest())
                if time.perf_counter() - first + walls[-1] > float(budget):
                    break
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if role == "run":
        executions = len(walls) + bool(failures)  # an execution that raised counts
        if walls:
            try:
                failures += workload.check(output)
            except Exception:
                failures.append(traceback.format_exc())
            if len(set(digests)) > 1:
                failures.append(f"repeated executions gave {len(set(digests))} outputs")
        result.update(walls=walls, digest=digests[-1] if digests else None,
                      executions=executions, events=workload.expected_events,
                      failures=failures)
    if recorder:
        result["layers"] = spans.layer_metrics(recorder)
        result["spans"] = recorder.spans
    report.write(json.dumps(result) + "\n")
    report.close()


if __name__ == "__main__":
    main(sys.argv[1:])

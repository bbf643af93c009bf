"""Self-tests of the benchmark: tracing changes no output and leaves fransim's
module attributes as it found them; the output checks catch a wrong output."""
import contextlib
import json
import os

import pytest

import run
import spans
import workloads

# Small sizes keep these tests quick; the benchmark itself uses the defaults.
SMALL = {"repro": {"points": 5, "dwell": 0.2},
         "dark_long": {"duration": 1.0},
         "tag_io": {"duration": 0.5}}


def run_small(name, workdir, recorder=None):
    workload = workloads.WORKLOADS[name](7, str(workdir), **SMALL[name])
    with spans.installed(recorder) if recorder else contextlib.nullcontext():
        workload.setup()
        output = workload.run()
    return workload, output


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_matches_untraced_and_restores_attributes(name, tmp_path):
    before = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in spans.TARGETS]
    _, plain = run_small(name, tmp_path)
    recorder = spans.Recorder()
    _, traced = run_small(name, tmp_path, recorder)

    assert traced == plain
    assert all(vars(owner)[attr] is original for owner, attr, original in before)
    roots = sum(end - start for _, start, end, parent in recorder.spans if parent is None)
    assert sum(recorder.self_times()) == pytest.approx(roots, rel=1e-9)
    metrics = spans.layer_metrics(recorder)
    assert metrics["config.validate_calls"] >= metrics["simulator.emit_calls"] >= 1
    assert metrics["events.window_calls"] >= 1
    if name == "repro":
        assert metrics["simulator.emit_calls"] == SMALL["repro"]["points"]
        assert metrics["analysis.fit_attempts"] >= 2
        assert 0 < metrics["cli.self_s"] < metrics["cli.main_s"]
    if name == "tag_io":
        assert metrics["events.file_bytes"] == 5 + 9 * metrics["simulator.events"]


def test_per_layer_metrics_match_benchmark_json():
    with open(os.path.join(os.path.dirname(__file__), "..", "BENCHMARK.json")) as fh:
        names = {m["name"] for m in json.load(fh)["per_layer"]}
    assert names == set(spans.layer_metrics(spans.Recorder())) | {"trace.overhead_s"}


def test_tag_io_check_passes_and_catches_a_changed_read_back(tmp_path):
    workload, output = run_small("tag_io", tmp_path)
    assert workload.check(output) == []
    workload.back.stop_plus = workload.back.stop_plus + 1
    workload.summary.coincidences[(1, 1)] = 0
    fails = workload.check(output)
    assert any("stop_plus read back differs" in f for f in fails)
    assert any("coincidences(1, 1)" in f for f in fails)


def test_oracle_gives_the_dark_only_accidental_product(tmp_path):
    workload = workloads.DarkLong(1, str(tmp_path))
    workload.setup()
    start, stop, coinc = workloads.expected_counts(workload.config, 0.0, 0.0, 1.0)
    assert (start, stop) == (250e3, 380e3)
    # closed window of 350 ps on the 1 ps grid: 351 grid points
    assert all(c == pytest.approx(250e3 * 380e3 * 351e-12) for c in coinc.values())


def test_compare_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    assert run.verdict(parent, [x * 0.8 for x in parent], "lower", 0.25) == "improved"
    assert run.verdict(parent, [x * 1.3 for x in parent], "lower", 0.25) == "worse"
    assert run.verdict(parent, [x * 1.01 for x in parent], "lower", 0.25) == "unchanged"
    assert run.verdict(parent, [x * 1.3 for x in parent], "higher", 0.25) == "improved"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert run.verdict(noisy, [x * 1.2 for x in noisy], "lower", 0.25) == "unresolved"

"""Self-tests of the host-time benchmark, on tiny workloads.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import gc
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import harness  # noqa: E402
import tracing  # noqa: E402
from repro.runtime import JobResult, JobStatus, TraceSpec, make_trace  # noqa: E402

SEED = 1

#: Entry points each workload must reach: a renamed or bypassed entry
#: point would otherwise drop its layer from the measurement silently.
STORE_PATH = {"convert", "encode_program", "encode_image", "decode_program",
              "decode_image", "Alrescha.program", "compile_pass",
              "ArtifactStore.conversion", "ArtifactStore.load_template",
              "ArtifactStore.save_template", "load_dataset"}
SERVE_PATH = {"make_trace", "Device.attempt", "DevicePool.nominal_cycles",
              "DevicePool.nominal_dram_bytes", "Scheduler.run",
              "Scheduler.start", "Scheduler.advance", "Scheduler.finish",
              "EventQueue.push", "EventQueue.pop", "EventQueue.mark_stale",
              "build_report", "report_json"}
EXPECTED = {
    "serve-eager": STORE_PATH | SERVE_PATH | {"Alrescha.run_spmv",
                                              "Alrescha.run_symgs_sweep"},
    "serve-storm": STORE_PATH | SERVE_PATH | {
        "Device.attempt_batch", "DevicePool.nominal_batch_cycles",
        "Alrescha.run_spmv_batch", "Alrescha.run_symgs_batch"},
    "pcg-solve": STORE_PATH | {
        "pcg", "AcceleratorBackend.spmv", "AcceleratorBackend.precondition",
        "AcceleratorBackend.vector_op", "dot", "norm2", "waxpby",
        "Alrescha.run_spmv", "Alrescha.run_symgs_sweep"},
    # Simulate mode without hedging or batching prices nothing from the
    # golden caches, and its deadlines outlive the trace: nothing goes stale.
    "store-start": STORE_PATH | SERVE_PATH - {
        "DevicePool.nominal_cycles", "DevicePool.nominal_dram_bytes",
        "EventQueue.mark_stale"} | {"Alrescha.run_spmv",
                                    "Alrescha.run_symgs_sweep"},
}


def tiny(name, tmp_path):
    return harness.make_workload(name, SEED, tmp_path / name, small=True)


def traced_unit(wl):
    """One traced unit of ``wl``; returns the recorder."""
    rec = tracing.Recorder()
    handle = tracing.install(rec)
    wl.recorder = rec
    try:
        wl.unit()
    finally:
        wl.recorder = None
        handle.remove()
    return rec


@pytest.mark.parametrize("name", harness.WORKLOADS)
def test_tiny_run_passes_output_checks(name, tmp_path):
    wl = tiny(name, tmp_path)
    metrics = harness.measure(wl, seconds=0.0)
    assert wl.log == []
    assert all(op.correct for op in wl.ops)
    assert sum(op.failed for op in wl.ops) == 0
    assert set(metrics) == set(harness.END_TO_END)
    for sample in metrics.values():
        assert math.isfinite(sample.value) and sample.value > 0
        assert sample.samples >= 1


@pytest.mark.parametrize("name", harness.WORKLOADS)
def test_every_layer_wrapper_fires(name, tmp_path):
    rec = traced_unit(tiny(name, tmp_path))
    fired = {span for span, (_own, _total, calls) in rec.by_name().items()
             if calls > 0}
    assert EXPECTED[name] <= fired, sorted(EXPECTED[name] - fired)


def test_every_entry_point_is_expected_somewhere():
    wrapped = {tracing.span_name(owner, attr)
               for _metric, _module, owner, attr in tracing.ENTRY_POINTS}
    assert wrapped == set().union(*EXPECTED.values())


def test_install_restores_originals_and_rejects_missing_entry_points(
        monkeypatch):
    import repro.runtime.events as events
    original = events.EventQueue.push
    tracing.install(tracing.Recorder()).remove()
    assert events.EventQueue.push is original
    monkeypatch.setattr(tracing, "ENTRY_POINTS", tracing.ENTRY_POINTS + (
        ("events.s", "repro.runtime.events", "EventQueue", "renamed"),))
    with pytest.raises(AttributeError, match="EventQueue.renamed"):
        tracing.install(tracing.Recorder())
    assert events.EventQueue.push is original


@pytest.mark.parametrize("name", harness.WORKLOADS)
def test_traced_and_untraced_runs_agree(name, tmp_path):
    plain = tiny(name, tmp_path / "plain")
    harness.measure(plain, seconds=0.0)
    traced = tiny(name, tmp_path / "traced")
    layers = harness.measure_traced(traced, 0.0, tmp_path / "spans.npz")
    assert all(op.correct for op in traced.ops), traced.log
    assert {k: layers[k] for k in harness.SIM_KEYS} == plain.sim
    if isinstance(plain, harness.ServeWorkload):
        assert traced._reference == plain._reference
        assert traced.start_reference == plain.start_reference


@pytest.mark.parametrize("name", harness.WORKLOADS)
def test_self_times_add_up_to_traced_wall(name, tmp_path):
    wl = tiny(name, tmp_path)
    layers = harness.measure_traced(wl, 0.0, tmp_path / "spans.npz")
    self_times = sum(layers[m] for m in tracing.SELF_TIME_METRICS)
    total = self_times + layers["trace.unattributed_s"]
    assert total == pytest.approx(layers["trace.wall_s"], rel=1e-9)
    assert min(layers[m] for m in tracing.SELF_TIME_METRICS) >= 0.0
    assert layers["trace.unattributed_s"] >= 0.0
    spans = dict(np.load(tmp_path / "spans.npz"))
    assert len(spans["start"]) == len(spans["parent"]) > 0
    assert set(layers) >= set(harness.PER_LAYER)


def test_probe_calls_no_program_code_and_runs_with_gc_off():
    probe = harness.Probe()
    calls = []

    def profile(frame, event, _arg):
        if event == "call":
            calls.append((frame.f_globals.get("__name__", ""),
                          gc.isenabled()))

    sys.setprofile(profile)
    try:
        probe.run()
    finally:
        sys.setprofile(None)
    modules = {module for module, _on in calls}
    assert not {m for m in modules if m.split(".")[0] == "repro"}
    assert any(m.startswith("scipy") for m in modules)
    assert not any(on for m, on in calls if m.startswith("scipy"))
    assert gc.isenabled() and len(probe.times) == 1


def test_failure_counter_counts_missing_and_failed_jobs():
    trace = make_trace(TraceSpec(n_requests=6, seed=SEED))
    results = [JobResult(job.job_id, JobStatus.OK) for job in trace]
    assert harness.count_failed(trace, results) == 0
    del results[3]
    assert harness.count_failed(trace, results) == 1
    results[0].status = JobStatus.FAILED
    results[1].status = JobStatus.REJECTED
    assert harness.count_failed(trace, results) == 2


def test_exits_without_result_when_the_program_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-eager",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""

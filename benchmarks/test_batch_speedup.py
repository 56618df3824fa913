"""Batched multi-RHS serving: cycles-per-job and wall-clock win.

The scheduler's coalescing policy exists because the accelerator's
batched kernels stream the one-time-programmed payload once per fused
dispatch.  This benchmark pins both halves of that claim:

* **kernel sweep** — ``run_spmv_batch`` at widths 1..8: stream cycles
  per job collapse with k (the payload appears once) while compute
  scales, so simulated cycles per job fall well below the solo cost;
* **serving sweep** — the same burst workload served with ``--batch``
  1..8: fused dispatches cut the makespan and report the avoided DRAM
  traffic;
* **wall-clock** — one width-k batched call beats k solo calls on the
  host too (shared template replay and delivery).

Not marked slow: the CI fast lane runs this to keep the batching
speedup from regressing silently.
"""

import time

import numpy as np

from repro.analysis import render_table
from repro.core import Alrescha, KernelType
from repro.datasets import load_dataset
from repro.runtime import serve
from repro.sim.memory import StreamingMemory

from conftest import run_once, save_and_print

WIDTHS = (1, 2, 4, 8)

#: Interleaved timing rounds of the wall-clock comparison.
ROUNDS = 100


def test_batch_stream_cycles_per_job(benchmark, scale, results_dir):
    matrix = load_dataset("stencil27", scale=max(scale, 0.1)).matrix
    n = matrix.shape[0]
    rng = np.random.default_rng(23)

    def measure():
        out = {}
        for k in WIDTHS:
            acc = Alrescha.from_matrix(KernelType.SPMV, matrix)
            x = rng.normal(size=(n, k))
            y, report = acc.run_spmv_batch(x)
            assert np.allclose(y, matrix @ x, atol=1e-8)
            out[k] = report
        return out

    reports = run_once(benchmark, measure)
    stream_per_job = {
        k: rep.counters.get("dram_bytes") / rep.bytes_per_cycle / k
        for k, rep in reports.items()}
    rows = [[k, rep.cycles, rep.cycles / k, stream_per_job[k],
             rep.counters.get("dram_requests")]
            for k, rep in reports.items()]
    save_and_print(
        results_dir, "batch_speedup_kernel",
        render_table(
            ["batch k", "cycles", "cycles/job", "stream cy/job",
             "DRAM reqs"],
            rows, title="Batched SpMV: payload streamed once per batch",
        ),
    )
    # The payload stream is issued once regardless of width...
    reqs = {k: rep.counters.get("dram_requests")
            for k, rep in reports.items()}
    assert len(set(reqs.values())) == 1
    # ...so mean stream cycles per job drop at least 2x by k=4 and
    # keep falling, and total cycles per job fall with them.
    assert stream_per_job[4] <= stream_per_job[1] / 2.0
    assert stream_per_job[8] < stream_per_job[4]
    per_job = [reports[k].cycles / k for k in WIDTHS]
    for a, b in zip(per_job, per_job[1:]):
        assert b < a


def test_batch_serving_sweep(benchmark, scale, results_dir):
    # A burst of same-workload requests against one device: a queue
    # forms, and larger max_batch fuses more of it per dispatch.
    kwargs = dict(n_requests=24, n_devices=1, fault_rate=0.0, seed=11,
                  scale=0.05, workloads=(("stencil27", "spmv"),),
                  mean_interarrival_cycles=50.0,
                  deadline_range=(300_000.0, 500_000.0),
                  zero_deadline_prob=0.0)

    def measure():
        return {k: serve(max_batch=k, **kwargs)[1] for k in WIDTHS}

    reports = run_once(benchmark, measure)
    mem = StreamingMemory()  # converts saved bytes to channel cycles
    rows = [[k, rep.makespan_cycles, rep.batches, rep.batched_jobs,
             rep.stream_bytes_saved / 1024.0,
             mem.cost_cycles(rep.stream_bytes_saved)]
            for k, rep in reports.items()]
    save_and_print(
        results_dir, "batch_speedup_serving",
        render_table(
            ["max_batch", "makespan cy", "batches", "fused jobs",
             "saved KiB", "saved stream cy"],
            rows, title="Batched serving: coalesced dispatch sweep",
        ),
    )
    solo = reports[1]
    assert solo.batches == 0 and solo.stream_bytes_saved == 0.0
    fused = reports[4]
    assert fused.batches >= 1 and fused.batched_jobs >= 4
    assert fused.stream_bytes_saved > 0.0
    # Fusing the queue cuts the makespan; wider keeps helping.
    assert fused.makespan_cycles < solo.makespan_cycles
    assert reports[8].makespan_cycles <= fused.makespan_cycles


def test_batch_wall_clock_win(benchmark, scale, results_dir):
    matrix = load_dataset("stencil27", scale=max(scale, 0.1)).matrix
    n = matrix.shape[0]
    k = 8
    rng = np.random.default_rng(29)
    x = rng.normal(size=(n, k))
    acc = Alrescha.from_matrix(KernelType.SPMV, matrix)
    acc.run_spmv(x[:, 0])  # warm the compiled plan + batch template
    acc.run_spmv_batch(x)

    def measure():
        # Solo and batched timings alternate, so a slow phase of a
        # shared host lands on both paths alike; best of ROUNDS each.
        solo = batched = float("inf")
        for _ in range(ROUNDS):
            t0 = time.perf_counter()
            for col in range(k):
                acc.run_spmv(x[:, col])
            t1 = time.perf_counter()
            acc.run_spmv_batch(x)
            t2 = time.perf_counter()
            solo = min(solo, t1 - t0)
            batched = min(batched, t2 - t1)
        return solo, batched

    solo, batched = run_once(benchmark, measure)
    save_and_print(
        results_dir, "batch_speedup_wallclock",
        render_table(
            ["path", f"best of {ROUNDS} (ms)", "per job (ms)"],
            [[f"{k} solo runs", solo * 1e3, solo * 1e3 / k],
             ["1 batched run", batched * 1e3, batched * 1e3 / k]],
            title=f"Host wall-clock, width {k}",
        ),
    )
    # Narrow margin, measured on stencil27 at scale 0.1 (n=216, k=8) on
    # a shared 2-vCPU host: batched/solo median 0.94, at most 0.983
    # over 80 interleaved best-of-100 trials (best of 25 reached 1.004
    # in 2 of 80).  The batched SpMV still runs one matmul per column
    # to stay bit-identical to solo service (core/plan.py), so its only
    # host saving is one dispatch and one report clone instead of k,
    # ~6%.
    assert batched < solo

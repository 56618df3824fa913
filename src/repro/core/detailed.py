"""Detailed timing simulation: bounded buffers and backpressure.

The analytic model in :mod:`repro.core.accelerator` assumes the FIFOs in
front of the FCU are deep enough for memory to run ahead of compute
("uninterrupted streaming").  This module drops that assumption: it
replays the exact job sequence of a programmed kernel through an
event-jump simulation with

* a memory channel that streams one block at a time, but only while the
  A-FIFO has a free slot (finite ``fifo_depth``),
* an in-order compute engine whose per-job occupancy follows the same
  data-path costs as the analytic model, and
* explicit drain + reconfigure + fill penalties at data-path switches.

Its two uses: (1) cross-validating the analytic cycle counts (tests
assert agreement within a tolerance at generous depths), and (2) the
FIFO-depth ablation — §4.3's buffers are exactly what lets memory run
ahead, and shrinking them to depth 1 visibly serialises stream and
compute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import SimulationError
from repro.core.accelerator import Alrescha, AlreschaConfig
from repro.core.config import DataPathType
from repro.core.datapaths import DataPathTiming

#: Default A-FIFO capacity, in blocks.  A 64-entry, 8-byte-word FIFO
#: holds one 8x8 block; a small bank of them gives the run-ahead window.
DEFAULT_FIFO_DEPTH = 8


@dataclass
class DetailedReport:
    """Outcome of one detailed pass simulation."""

    cycles: float
    mem_busy_cycles: float
    mem_stall_cycles: float
    engine_busy_cycles: float
    engine_idle_cycles: float
    switch_penalty_cycles: float
    n_jobs: int
    fifo_depth: int

    @property
    def memory_utilization(self) -> float:
        if self.cycles <= 0:
            return 0.0
        return self.mem_busy_cycles / self.cycles

    @property
    def engine_utilization(self) -> float:
        if self.cycles <= 0:
            return 0.0
        return self.engine_busy_cycles / self.cycles


@dataclass(frozen=True)
class _Job:
    dp: DataPathType
    stream_cycles: float
    compute_cycles: float


def _jobs_from_accelerator(acc: Alrescha,
                           timing: DataPathTiming) -> List[_Job]:
    jobs: List[_Job] = []
    spb = timing.stream_cycles_per_block()
    for group in acc.image.rows:
        for op in group.streaming:
            jobs.append(_Job(op.dp, spb,
                             timing.compute_cycles_per_block(op.dp)))
        if group.diagonal is not None:
            op = group.diagonal
            jobs.append(_Job(op.dp, spb,
                             timing.compute_cycles_per_block(op.dp)))
    return jobs


def simulate_pass(acc: Alrescha, fifo_depth: int = DEFAULT_FIFO_DEPTH,
                  config: Optional[AlreschaConfig] = None
                  ) -> DetailedReport:
    """Event-jump simulation of one pass over the programmed kernel."""
    if fifo_depth < 1:
        raise SimulationError(f"FIFO depth must be >= 1, got {fifo_depth}")
    cfg = config or acc.config
    timing = cfg.timing()
    jobs = _jobs_from_accelerator(acc, timing)
    if not jobs:
        return DetailedReport(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0,
                              fifo_depth)

    reconfig = float(cfg.reconfig_cycles)
    hide = cfg.hide_reconfig_under_drain

    n = len(jobs)
    arrival = [0.0] * n          # when job i has fully streamed
    start = [0.0] * n            # when the engine starts job i
    finish = [0.0] * n           # when the engine finishes job i
    mem_busy = 0.0
    engine_busy = 0.0
    switch_penalty_total = 0.0
    mem_free = 0.0               # memory channel free time
    prev_dp: Optional[DataPathType] = None

    for i, job in enumerate(jobs):
        # Streaming can begin once the channel is free AND the FIFO has
        # a slot: slot frees when job i - fifo_depth *starts* compute.
        gate = start[i - fifo_depth] if i >= fifo_depth else 0.0
        stream_begin = max(mem_free, gate)
        arrival[i] = stream_begin + job.stream_cycles
        mem_free = arrival[i]
        mem_busy += job.stream_cycles

        # Engine: in order, after the previous job, plus the switch
        # penalty when the data path changes.
        ready = finish[i - 1] if i else 0.0
        penalty = 0.0
        if prev_dp is not job.dp:
            if prev_dp is not None:
                drain = timing.drain(prev_dp)
                exposed = max(0.0, reconfig - drain) if hide else reconfig
                penalty += drain + exposed
            penalty += timing.pipeline_fill(job.dp)
            switch_penalty_total += penalty
        prev_dp = job.dp
        start[i] = max(arrival[i], ready + penalty)
        finish[i] = start[i] + job.compute_cycles
        engine_busy += job.compute_cycles

    total = finish[-1] + timing.drain(jobs[-1].dp)
    return DetailedReport(
        cycles=total,
        mem_busy_cycles=mem_busy,
        mem_stall_cycles=max(0.0, total - mem_busy),
        engine_busy_cycles=engine_busy,
        engine_idle_cycles=max(0.0, total - engine_busy
                               - switch_penalty_total),
        switch_penalty_cycles=switch_penalty_total,
        n_jobs=n,
        fifo_depth=fifo_depth,
    )


def fifo_depth_sweep(acc: Alrescha,
                     depths: Optional[List[int]] = None
                     ) -> dict:
    """Detailed cycles across FIFO depths (the §4.3 buffer ablation)."""
    out = {}
    for depth in depths or [1, 2, 4, 8, 16, 32]:
        report = simulate_pass(acc, fifo_depth=depth)
        out[depth] = {
            "cycles": report.cycles,
            "memory_utilization": report.memory_utilization,
            "engine_utilization": report.engine_utilization,
            "mem_stall_cycles": report.mem_stall_cycles,
        }
    return out


def crosscheck_with_analytic(acc: Alrescha, analytic_cycles: float,
                             fifo_depth: int = DEFAULT_FIFO_DEPTH
                             ) -> dict:
    """Compare the detailed simulation against the analytic model."""
    detailed = simulate_pass(acc, fifo_depth=fifo_depth)
    ratio = detailed.cycles / analytic_cycles if analytic_cycles else 0.0
    return {
        "analytic_cycles": analytic_cycles,
        "detailed_cycles": detailed.cycles,
        "ratio": ratio,
        "fifo_depth": fifo_depth,
    }

"""Deterministic multi-device serving runtime.

The serving layer above the single-accelerator substrate: a trace of
kernel/solver requests is admitted through a bounded queue and executed
over a pool of independently-seeded
:class:`~repro.core.accelerator.Alrescha` devices, with per-device
circuit breakers, deadline enforcement, retry-on-another-device, and
graceful degradation to the golden reference kernels.  Everything runs
on simulated cycles under seeded RNG — no wall clock, no threads — so a
whole serve run is bit-reproducible and unit-testable.

Quick start::

    from repro.runtime import serve
    results, report = serve(n_requests=200, n_devices=4,
                            fault_rate=0.05, seed=7)
    print(report.render())
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.runtime.autoscale import AutoscaleConfig, Autoscaler
from repro.runtime.events import Event, EventKind, EventQueue
from repro.runtime.jobs import (
    JOB_KERNELS,
    Job,
    JobResult,
    JobStatus,
    TraceSpec,
    dump_trace,
    load_trace,
    make_trace,
)
from repro.runtime.metrics import (
    AutoscaleReport,
    DeviceStats,
    PoolReport,
    build_report,
    percentile,
    report_json,
)
from repro.runtime.pool import (
    Attempt,
    CircuitBreaker,
    Device,
    DevicePool,
    HealthWindow,
    value_crc,
)
from repro.runtime.fleet import (
    Fleet,
    FleetConfig,
    FleetReport,
    PoolStats,
    serve_fleet,
)
from repro.runtime.jobs import TRACE_SCHEMA_VERSION
from repro.runtime.scheduler import (
    Eviction,
    Scheduler,
    SchedulerConfig,
    serve_inputs,
)
from repro.sim.chaos import ChaosModel, Incident, PoolChaosModel

__all__ = [
    "JOB_KERNELS",
    "Attempt",
    "AutoscaleConfig",
    "AutoscaleReport",
    "Autoscaler",
    "ChaosModel",
    "CircuitBreaker",
    "Device",
    "DevicePool",
    "DeviceStats",
    "Event",
    "EventKind",
    "EventQueue",
    "Eviction",
    "Fleet",
    "FleetConfig",
    "FleetReport",
    "HealthWindow",
    "Incident",
    "Job",
    "JobResult",
    "JobStatus",
    "PoolChaosModel",
    "PoolReport",
    "PoolStats",
    "Scheduler",
    "SchedulerConfig",
    "TRACE_SCHEMA_VERSION",
    "TraceSpec",
    "build_report",
    "dump_trace",
    "load_trace",
    "make_trace",
    "percentile",
    "report_json",
    "serve",
    "serve_fleet",
    "value_crc",
]


def serve(n_requests: int, n_devices: int = 4, fault_rate: float = 0.0,
          seed: int = 0, scale: float = 0.05,
          workloads: Optional[Tuple[Tuple[str, str], ...]] = None,
          trace: Optional[List[Job]] = None,
          scheduler_config: Optional[SchedulerConfig] = None,
          tracer=None, max_batch: int = 1,
          execution: str = "simulate",
          chaos: Optional[ChaosModel] = None,
          hedge_after: Optional[float] = None,
          artifact_store=None,
          autoscale: Optional[AutoscaleConfig] = None,
          **trace_kwargs) -> Tuple[List[JobResult], PoolReport]:
    """Serve a seeded workload trace over a fresh device pool.

    Builds the trace (unless one is passed explicitly via ``trace``),
    the pool and the scheduler from ``seed`` and runs to completion.
    Two calls with identical arguments produce field-for-field
    identical :class:`PoolReport`\\ s — the determinism contract the
    property tests pin down.  Extra keyword arguments are forwarded to
    :class:`TraceSpec` (e.g. ``deadline_range``,
    ``mean_interarrival_cycles``).

    ``tracer`` (a :class:`~repro.observe.tracer.Tracer`) records job
    spans per ``device<N>`` track, degraded fallbacks on ``reference``
    and shed jobs on ``scheduler``; ``None`` changes nothing.

    ``max_batch > 1`` lets the scheduler coalesce compatible queued
    requests into multi-RHS dispatches that stream the matrix payload
    once per batch; ``1`` (the default) disables coalescing.  Ignored
    when an explicit ``scheduler_config`` is supplied (set
    :attr:`SchedulerConfig.max_batch` there instead).

    ``execution="model"`` prices attempts from the golden nominal-cycle
    caches instead of running kernels — identical scheduling decisions
    and cycle arithmetic, no numerics (``value_crc`` is 0) — which is
    what makes 100k–1M-job traces feasible (the load benchmarks).

    ``chaos`` (a :class:`~repro.sim.chaos.ChaosModel`) attaches the
    device-lifecycle chaos layer: seeded crashes and hangs per device,
    survived via salvage/retry, breaker quarantine and verified
    recovery.  ``hedge_after`` enables hedged dispatch at that multiple
    of the nominal estimate.  Both default off, and off means *inert*:
    attempts settle eagerly at dispatch and the report is
    field-identical to one from before the chaos layer existed.
    Ignored when an explicit ``scheduler_config`` is supplied (set
    :attr:`SchedulerConfig.hedge_after` there instead; ``chaos`` still
    applies — it is pool state, not scheduler policy).

    ``artifact_store`` (a :class:`~repro.store.ArtifactStore`) resolves
    the pool's programming phase — once per distinct program, shared by
    every device — through a content-addressed cache: a primed store
    serves the whole run with zero compilations (its
    :class:`~repro.store.StoreReport` counters prove it) while answers
    and reports stay byte-identical.  ``None`` — the default — is the
    storeless path, bit-identical to pre-store behaviour.

    ``autoscale`` (an :class:`~repro.runtime.autoscale.AutoscaleConfig`)
    makes the pool's device count elastic: ``n_devices`` is the
    starting size, grown to ``min_devices`` at cycle 0 if below the
    floor, then scaled within ``[min_devices, max_devices]`` by
    queue-depth and health signals with drain-before-remove semantics.
    ``None`` — the default — keeps capacity frozen and the report
    field-identical to the pre-autoscale runtime.
    """
    trace, scheduler_config = serve_inputs(
        n_requests, seed, scale, workloads, trace, scheduler_config,
        max_batch, hedge_after, trace_kwargs)
    pool = DevicePool(n_devices, fault_rate=fault_rate, seed=seed,
                      tracer=tracer, execution=execution, chaos=chaos,
                      artifact_store=artifact_store)
    scheduler = Scheduler(pool, scheduler_config, autoscale=autoscale)
    return scheduler.run(trace)

"""Pool-level metrics: counters and simulated-latency percentiles.

A :class:`PoolReport` is the serving analogue of a
:class:`~repro.core.report.SimReport`: one value object summarising a
whole workload trace — admission counts, terminal-status counts,
breaker trips, per-device statistics, and latency percentiles measured
in simulated cycles.  Every field is derived deterministically from the
job results (nearest-rank percentiles, no interpolation surprises), so
two runs of the same seeded trace compare equal field-for-field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence

# The canonical encoder of a PoolReport or FleetReport, looked up here
# at call time (``metrics.report_json``) by the CLI and the host-time
# benchmark.
from repro.core.report import report_json  # noqa: F401
from repro.errors import ConfigError
from repro.runtime.jobs import JobResult, JobStatus


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation).

    ``q`` must be in [0, 100] (:class:`~repro.errors.ConfigError`
    otherwise).  Returns 0.0 for an empty sequence.  The rank is
    ``ceil(q * n / 100)`` computed in exact rational arithmetic: a
    float product like ``64.4 * 250`` lands a hair above the true
    integer 161 and a float-only ceiling then overshoots the rank by
    one.  ``Fraction(str(q))`` reads the *decimal* value the caller
    wrote, not the binary float approximation stored for it.
    """
    if not 0.0 <= q <= 100.0:
        raise ConfigError(f"percentile q must be in [0, 100], got {q}")
    if not values:
        return 0.0
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, min(n, math.ceil(Fraction(str(q)) * n / 100)))
    return ordered[rank - 1]


@dataclass(frozen=True)
class DeviceStats:
    """Per-device slice of a :class:`PoolReport`."""

    device_id: int
    jobs_run: int
    #: Lifetime failed attempts on the device (every failure ever
    #: recorded, not a rolling-window slice).
    failures_total: int
    #: Failure fraction over the breaker's rolling health window at the
    #: end of the run — the quantity the breaker actually trips on.
    window_failure_rate: float
    breaker_trips: int
    breaker_state: str
    busy_cycles: float
    faults_injected: int
    #: Cycles the device spent crashed or hung (0.0 without chaos).
    downtime_cycles: float = 0.0
    #: Lifecycle incidents the device suffered (0 without chaos).
    crashes: int = 0
    hangs: int = 0


@dataclass(frozen=True)
class AutoscaleReport:
    """Elastic-capacity summary for one autoscaled serve run.

    Attached to :class:`PoolReport` (and aggregated into
    :class:`~repro.runtime.fleet.FleetReport`) only when an
    :class:`~repro.runtime.autoscale.AutoscaleConfig` was supplied;
    ``None`` — the default — keeps every report field-identical to a
    run from before the autoscaler existed.
    """

    #: Configured capacity bounds the run scaled within.
    min_devices: int
    max_devices: int
    #: ``SCALE_EVAL`` samples consumed on the simulated clock.
    evals: int
    #: Scale decisions taken (each scale-up provisions one device;
    #: each scale-down drains one).
    scale_ups: int
    scale_downs: int
    #: Devices actually added / retired, including the bootstrap grow
    #: to ``min_devices`` at cycle 0 (counted as added, not as a
    #: scale-up decision).
    devices_added: int
    devices_retired: int
    #: Largest and final live (non-retired) device counts.
    devices_peak: int
    devices_final: int
    #: Integral of live capacity over the run: device-cycles the fleet
    #: paid for, the denominator for utilisation-per-provisioned-cycle.
    device_cycles_provisioned: float
    #: Programmed images the scale-ups bound to their new devices: one
    #: per spmv or symgs workload already served, three per pcg
    #: workload (SpMV, SymGS, reversed SymGS).  Equal to the store hits
    #: of priming a device that programs its own copies.  0 without an
    #: :class:`~repro.store.ArtifactStore` and in ``model`` execution.
    prime_hits: int


@dataclass(frozen=True)
class PoolReport:
    """Outcome of serving one workload trace over a device pool."""

    requests: int
    admitted: int
    #: Terminal-status counts; keys are JobStatus values, all present.
    ok: int
    timeout: int
    degraded: int
    rejected: int
    failed: int
    #: Accelerator attempts consumed, and how many were retries beyond
    #: each job's first attempt.
    attempts: int
    retries: int
    breaker_trips: int
    #: Cycle at which the last job left the system.
    makespan_cycles: float
    #: Completed answers (ok+timeout+degraded) per million cycles.
    throughput_per_mcycle: float
    latency_p50_cycles: float
    latency_p99_cycles: float
    #: Highest number of jobs waiting for a device at any point.
    queue_peak: int
    #: Fused multi-RHS dispatches that produced answers (a batch of
    #: k >= 2 jobs served by one payload stream counts once).
    batches: int = 0
    #: Jobs served inside those fused dispatches.
    batched_jobs: int = 0
    #: DRAM bytes the fused dispatches avoided versus serving each
    #: member solo (k solo runs re-stream the programmed payload k
    #: times; a batch streams it once).
    stream_bytes_saved: float = 0.0
    #: Discrete events the heap-based engine consumed to drive the run
    #: (arrivals, dispatch completions, retry readiness, breaker
    #: reopens, deadline expiries).
    events_processed: int = 0
    #: Popped events discarded as stale (lazy deletion) — bookkeeping
    #: overhead, bounded by the load benchmarks.
    events_stale: int = 0
    #: Speculative duplicates launched by hedged dispatch, and how many
    #: of them won the race (produced the accepted answer).
    hedges_launched: int = 0
    hedges_won: int = 0
    #: Device-lifecycle incidents applied during the run (chaos layer).
    #: ``recoveries <= crashes + hangs``: an applied incident recovers
    #: once, but one still open when the last job finishes never
    #: consumes its ``DEVICE_RECOVER``.
    crashes: int = 0
    hangs: int = 0
    recoveries: int = 0
    #: Elastic-capacity summary; ``None`` whenever autoscaling was off,
    #: so default-path reports stay field-identical to PR 9.
    autoscale: "AutoscaleReport | None" = None
    devices: tuple = ()

    @property
    def answered(self) -> int:
        """Jobs that received a numerically-trustworthy answer."""
        return self.ok + self.timeout + self.degraded

    def render(self) -> str:
        """Human-readable report block for the ``serve`` CLI."""
        lines = [
            f"requests        : {self.requests}",
            f"admitted        : {self.admitted} "
            f"(rejected {self.rejected})",
            f"ok              : {self.ok}",
            f"degraded        : {self.degraded}",
            f"timeout         : {self.timeout}",
            f"failed          : {self.failed}",
            f"attempts        : {self.attempts} "
            f"({self.retries} retries)",
            f"breaker trips   : {self.breaker_trips}",
            f"queue peak      : {self.queue_peak}",
            f"makespan        : {self.makespan_cycles:,.0f} cycles",
            f"throughput      : {self.throughput_per_mcycle:.2f} "
            f"jobs/Mcycle",
            f"latency p50     : {self.latency_p50_cycles:,.0f} cycles",
            f"latency p99     : {self.latency_p99_cycles:,.0f} cycles",
            f"events          : {self.events_processed} processed "
            f"({self.events_stale} stale)",
        ]
        if self.batches:
            lines.append(
                f"batches         : {self.batches} "
                f"({self.batched_jobs} jobs fused)")
            lines.append(
                f"stream saved    : {self.stream_bytes_saved:,.0f} bytes")
        # Chaos/hedge lines appear only when the features fired, so a
        # chaos-free report renders byte-identically to before the
        # chaos layer existed.
        if self.hedges_launched:
            lines.append(
                f"hedges          : {self.hedges_launched} launched "
                f"({self.hedges_won} won)")
        if self.crashes or self.hangs:
            lines.append(
                f"chaos           : {self.crashes} crashes, "
                f"{self.hangs} hangs, {self.recoveries} recoveries")
        if self.autoscale is not None:
            a = self.autoscale
            lines.append(
                f"autoscale       : [{a.min_devices}, {a.max_devices}] "
                f"{a.scale_ups} ups, {a.scale_downs} downs "
                f"(peak {a.devices_peak}, final {a.devices_final})")
            lines.append(
                f"provisioned     : "
                f"{a.device_cycles_provisioned:,.0f} device-cycles, "
                f"{a.prime_hits} prime hits")
        for d in self.devices:
            line = (
                f"  device {d.device_id}: {d.jobs_run} jobs, "
                f"{d.failures_total} failures "
                f"({d.window_failure_rate:.0%} window), "
                f"{d.breaker_trips} trips "
                f"({d.breaker_state}), busy {d.busy_cycles:,.0f} cy, "
                f"{d.faults_injected} faults")
            if d.crashes or d.hangs:
                line += (f", down {d.downtime_cycles:,.0f} cy "
                         f"({d.crashes} crashes, {d.hangs} hangs)")
            lines.append(line)
        return "\n".join(lines)


def fold_results(results: Sequence[JobResult]) -> Dict[str, float]:
    """The report fields a serving report derives from its job results
    alone, keyed by field name: request and terminal-status counts,
    attempts and retries beyond each job's first, makespan, and the
    throughput and latency percentiles of the answered jobs."""
    by_status: Dict[JobStatus, int] = {s: 0 for s in JobStatus}
    latencies: List[float] = []
    attempts = 0
    retries = 0
    makespan = 0.0
    for r in results:
        by_status[r.status] += 1
        attempts += r.attempts
        retries += max(0, r.attempts - 1)
        makespan = max(makespan, r.finish_cycle)
        if r.answered:
            latencies.append(r.latency_cycles)
    answered = len(latencies)
    throughput = (answered / (makespan / 1e6)) if makespan > 0 else 0.0
    return dict(
        requests=len(results),
        ok=by_status[JobStatus.OK],
        timeout=by_status[JobStatus.TIMEOUT],
        degraded=by_status[JobStatus.DEGRADED],
        rejected=by_status[JobStatus.REJECTED],
        failed=by_status[JobStatus.FAILED],
        attempts=attempts,
        retries=retries,
        makespan_cycles=makespan,
        throughput_per_mcycle=throughput,
        latency_p50_cycles=percentile(latencies, 50.0),
        latency_p99_cycles=percentile(latencies, 99.0),
    )


def build_report(results: Sequence[JobResult], pool,
                 queue_peak: int, batches: int = 0,
                 batched_jobs: int = 0,
                 stream_bytes_saved: float = 0.0,
                 events_processed: int = 0,
                 events_stale: int = 0,
                 hedges_launched: int = 0,
                 hedges_won: int = 0,
                 crashes: int = 0,
                 hangs: int = 0,
                 recoveries: int = 0,
                 autoscale: "AutoscaleReport | None" = None
                 ) -> PoolReport:
    """Fold job results + pool state into one :class:`PoolReport`."""
    fold = fold_results(results)
    device_stats = tuple(
        DeviceStats(
            device_id=d.device_id,
            jobs_run=d.jobs_run,
            failures_total=d.health.failures,
            window_failure_rate=d.health.failure_rate,
            breaker_trips=d.breaker.trips,
            breaker_state=d.breaker.state,
            busy_cycles=d.busy_cycles,
            faults_injected=(d.fault_model.injected
                             if d.fault_model is not None else 0),
            downtime_cycles=d.downtime_cycles,
            crashes=d.crashes,
            hangs=d.hangs,
        )
        for d in pool.devices
    )
    return PoolReport(
        admitted=fold["requests"] - fold["rejected"],
        breaker_trips=pool.breaker_trips,
        queue_peak=queue_peak,
        batches=batches,
        batched_jobs=batched_jobs,
        stream_bytes_saved=stream_bytes_saved,
        events_processed=events_processed,
        events_stale=events_stale,
        hedges_launched=hedges_launched,
        hedges_won=hedges_won,
        crashes=crashes,
        hangs=hangs,
        recoveries=recoveries,
        autoscale=autoscale,
        devices=device_stats,
        **fold,
    )

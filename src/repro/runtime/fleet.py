"""Replicated multi-pool fleet serving with pool-outage failover.

One :class:`~repro.runtime.scheduler.Scheduler` over one
:class:`~repro.runtime.pool.DevicePool` survives device crashes, but
the pool itself is still a single point of failure.  This module adds
the layer above: a :class:`Fleet` serves one job trace over N pools
with

* **content-keyed routing** — a job's ``(dataset, scale, kernel)``
  names the programmed accelerator image it needs, so it is the shard
  key: ALRESCHA's locally-dense block-row format partitions one
  logical matrix into images that can be programmed onto disjoint
  pools.  The home pool is a CRC of the key; placement balances load
  across the key's replica set.
* **R-way replication for hot keys** — a key carrying at least
  ``hot_fraction`` of the trace is programmed onto ``replicas``
  consecutive pools, so a pool outage leaves a surviving replica that
  can serve the shard without reprogramming.
* **pool-level chaos** — a seeded
  :class:`~repro.sim.chaos.PoolChaosModel` draws whole-pool outages as
  ``POOL_OUTAGE``/``POOL_RECOVER`` events on the fleet's own heap.
  An outage voids every in-flight attempt in the pool (busy cycles
  refunded, attempt budgets refunded — the pool-scale mirror of the
  device crash contract) and hands every salvaged and queued job back
  to the fleet, which re-routes each to a surviving replica, or to any
  healthy pool when the shard has none: infrastructure loss alone
  never yields ``FAILED``.  Recovery is *verified*: the fleet readmits
  a pool only after a probe job actually succeeds on it, never because
  the drawn outage window elapsed.

Determinism
-----------
The fleet is a distributed discrete-event simulation run on one global
clock: every scheduler session exposes its next wake via
``peek_cycle``, which consumes nothing (a re-route, outage or
readmission may change a peeked session with no hand-back), and the
fleet always advances whichever source — session wake or fleet
event — is globally earliest (sessions first at ties, mirroring "job
events before lifecycle events").  Because every pool's clock is at
or behind any event being processed, a re-routed job is never
injected into a pool's past, and the whole run is a pure function of
the trace and the seeds: same inputs, byte-identical
:func:`~repro.runtime.metrics.report_json`.

The fleet owns routing, pool outages and failover only.  Every rule it
shares with a solo pool — the duplicate-id check, the serve inputs,
the reference-path answer and the result fold — is the scheduler's or
the metrics module's, so a 1-pool fleet serves exactly as
:func:`repro.runtime.serve` does.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, fields, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ConfigError
from repro.runtime.autoscale import AutoscaleConfig
from repro.runtime.events import EventKind, EventQueue
from repro.runtime.jobs import Job, JobResult, JobStatus
from repro.runtime.metrics import AutoscaleReport, PoolReport, fold_results
from repro.runtime.pool import DevicePool
from repro.runtime.scheduler import (
    Eviction,
    Scheduler,
    SchedulerConfig,
    serve_inputs,
    unique_job_ids,
)
from repro.sim.chaos import ChaosModel, PoolChaosModel

#: Per-pool fault-seed stride: pool ``i`` seeds its fault models from
#: ``seed + i * _POOL_SEED_STRIDE``, so pool 0 of a fleet is seeded
#: exactly like a solo pool (the single-pool identity guarantee) while
#: sibling pools draw independent streams.
_POOL_SEED_STRIDE = 1_000_003

#: Per-pool device-chaos seed stride (pool 0 keeps the base seed).
_POOL_CHAOS_STRIDE = 15_485_863

#: Content key of a job: the programmed accelerator image it needs.
ContentKey = Tuple[str, float, str]


def content_key(job: Job) -> ContentKey:
    """The shard key: which programmed image serves this job."""
    return (job.dataset, job.scale, job.kernel)


def home_pool(key: ContentKey, n_pools: int) -> int:
    """Deterministic home shard of a content key (CRC placement)."""
    token = f"{key[0]}:{key[1]!r}:{key[2]}"
    return zlib.crc32(token.encode()) % n_pools


@dataclass(frozen=True)
class FleetConfig:
    """Fleet-policy knobs (cycle units are simulated cycles)."""

    #: Number of independent device pools.
    n_pools: int = 1
    #: Replica-set width for hot content keys (capped at ``n_pools``).
    replicas: int = 1
    #: Cycles charged to move an evicted job to another pool — the
    #: failover is honest occupancy, never free.
    reroute_cycles: float = 500.0
    #: A content key is *hot* (gets replicated) when it carries at
    #: least this fraction of the trace's jobs.  ``0.0`` disables
    #: replication entirely; ``1.0`` replicates only a key that
    #: carries the whole trace.
    hot_fraction: float = 0.1
    #: Gap before retrying a failed readmission probe.
    probe_retry_cycles: float = 2_000.0
    #: Probe budget per outage; an exhausted budget leaves the pool
    #: down for the rest of the run (jobs keep routing around it).
    max_probes_per_outage: int = 16

    def __post_init__(self) -> None:
        if self.n_pools < 1:
            raise ConfigError(
                f"n_pools must be >= 1, got {self.n_pools}")
        if self.replicas < 1:
            raise ConfigError(
                f"replicas must be >= 1, got {self.replicas}")
        if self.reroute_cycles <= 0.0:
            # Strictly positive: a zero-cost re-route would land a job
            # in a pool *at* the fleet's current cycle, which the
            # target session may already have processed.
            raise ConfigError(
                f"reroute_cycles must be positive, got "
                f"{self.reroute_cycles}")
        if not 0.0 <= self.hot_fraction <= 1.0:
            raise ConfigError(
                f"hot_fraction must be in [0, 1], got "
                f"{self.hot_fraction}")
        if self.probe_retry_cycles <= 0.0:
            raise ConfigError(
                f"probe_retry_cycles must be positive, got "
                f"{self.probe_retry_cycles}")
        if self.max_probes_per_outage < 1:
            raise ConfigError(
                f"max_probes_per_outage must be >= 1, got "
                f"{self.max_probes_per_outage}")


@dataclass(frozen=True)
class PoolStats:
    """Per-pool slice of a :class:`FleetReport`."""

    pool_id: int
    outages: int
    downtime_cycles: float
    #: Jobs the pool handed back to the fleet during its outages.
    evictions: int
    reroutes_in: int
    reroutes_out: int
    probes: int
    probes_failed: int
    report: PoolReport


@dataclass(frozen=True)
class FleetReport:
    """Outcome of serving one trace over a replicated pool fleet."""

    pools: int
    replicas: int
    requests: int
    ok: int
    timeout: int
    degraded: int
    rejected: int
    failed: int
    #: Accelerator attempts consumed fleet-wide (prior-pool attempts
    #: of re-routed jobs included).
    attempts: int
    #: Re-route hops the fleet performed, and the transfer cycles they
    #: were charged (``reroutes * reroute_cycles``).  ``reroutes`` and
    #: the outage and probe totals below are sums over ``pool_stats``.
    reroutes: int
    reroute_cycles_charged: float
    outages: int
    downtime_cycles: float
    probes: int
    probes_failed: int
    makespan_cycles: float
    throughput_per_mcycle: float
    #: Fleet-wide latency percentiles over *origin-to-answer* latency
    #: (re-routed jobs measure from their original arrival).
    latency_p50_cycles: float
    latency_p99_cycles: float
    #: Fleet-wide elastic-capacity aggregate (per-pool counters
    #: summed; bounds are the shared config's).  ``None`` whenever
    #: autoscaling was off, keeping the report field-identical to the
    #: pre-autoscale fleet.
    autoscale: Optional[AutoscaleReport] = None
    pool_stats: Tuple[PoolStats, ...] = ()

    @property
    def answered(self) -> int:
        return self.ok + self.timeout + self.degraded

    def render(self) -> str:
        """Human-readable report block for the ``serve`` CLI."""
        lines = [
            f"pools           : {self.pools} "
            f"(replicas {self.replicas})",
            f"requests        : {self.requests}",
            f"ok              : {self.ok}",
            f"degraded        : {self.degraded}",
            f"timeout         : {self.timeout}",
            f"rejected        : {self.rejected}",
            f"failed          : {self.failed}",
            f"attempts        : {self.attempts}",
            f"reroutes        : {self.reroutes} "
            f"({self.reroute_cycles_charged:,.0f} cycles charged)",
            f"outages         : {self.outages} "
            f"({self.downtime_cycles:,.0f} cycles down)",
            f"probes          : {self.probes} "
            f"({self.probes_failed} failed)",
            f"makespan        : {self.makespan_cycles:,.0f} cycles",
            f"throughput      : {self.throughput_per_mcycle:.2f} "
            f"jobs/Mcycle",
            f"latency p50     : {self.latency_p50_cycles:,.0f} cycles",
            f"latency p99     : {self.latency_p99_cycles:,.0f} cycles",
        ]
        if self.autoscale is not None:
            a = self.autoscale
            lines.append(
                f"autoscale       : [{a.min_devices}, "
                f"{a.max_devices}] per pool, {a.scale_ups} ups, "
                f"{a.scale_downs} downs "
                f"({a.device_cycles_provisioned:,.0f} device-cycles, "
                f"{a.prime_hits} prime hits)")
        for p in self.pool_stats:
            r = p.report
            lines.append(
                f"  pool {p.pool_id}: {r.requests} jobs "
                f"({r.ok} ok, {r.degraded} degraded, "
                f"{r.timeout} timeout), "
                f"{p.outages} outages "
                f"({p.downtime_cycles:,.0f} cy down), "
                f"{p.evictions} evicted, "
                f"{p.reroutes_in} in / {p.reroutes_out} out, "
                f"{p.probes} probes")
        return "\n".join(lines)


@dataclass
class _PoolState:
    """What the fleet alone knows about one pool.

    Whether the pool is down, when its outage began and how many
    outages it has had are its session's (``Scheduler.pool_down``,
    ``outage_began`` and ``outages``); this record keeps the rest.
    """

    #: Jobs routed here, primaries and re-routes in: placement load.
    routed: int = 0
    #: The pool's outage stream and its pending incident (``None``
    #: without pool chaos).
    chaos: Optional[PoolChaosModel] = None
    incident: object = None
    #: Content key readmission probes run; ``None`` while no job was
    #: ever routed here.
    probe_key: Optional[ContentKey] = None
    #: Outcome of the probe in flight (``None`` when none is), and the
    #: probes spent on the current outage.
    probe_ok: Optional[bool] = None
    outage_probes: int = 0
    evictions: int = 0
    reroutes_in: int = 0
    reroutes_out: int = 0
    probes: int = 0
    probes_failed: int = 0


class _JobRecord:
    """Fleet-side routing state of one evicted job, built at its first
    eviction: a job its primary pool answers needs none."""

    __slots__ = ("origin", "tried", "reroutes", "prior_attempts")

    def __init__(self, origin: Job) -> None:
        self.origin = origin
        #: Pools the job has left (outage-evicted or transited during
        #: an outage).  Monotone — a job never returns to a tried pool
        #: — which is what bounds the failover chain.
        self.tried: Set[int] = set()
        self.reroutes = 0
        #: Accelerator attempts consumed in pools the job has left.
        self.prior_attempts = 0

    @property
    def deadline_at(self) -> float:
        return self.origin.arrival_cycle + self.origin.deadline_cycles


class Fleet:
    """Serves one trace over N independently-seeded scheduler sessions.

    Each pool is the pool and scheduler :func:`repro.runtime.serve`
    builds, replicated: pool ``i`` gets fault seed
    ``seed + i * 1_000_003`` and the device-chaos model ``chaos`` with
    only its seed moved (pool 0 identical to a solo pool), and the
    trace-track prefix ``p<i>.`` so all pools share one tracer without
    collisions.  All pools bind one image table, so a workload is
    programmed once per fleet.  Like its schedulers, a fleet serves
    one run.
    """

    def __init__(self, n_devices: int, config: FleetConfig,
                 fault_rate: float = 0.0, seed: int = 0,
                 scheduler_config: Optional[SchedulerConfig] = None,
                 tracer=None, execution: str = "simulate",
                 chaos: Optional[ChaosModel] = None,
                 pool_chaos: Optional[PoolChaosModel] = None,
                 artifact_store=None,
                 autoscale: Optional[AutoscaleConfig] = None) -> None:
        self.config = config
        self.autoscale = autoscale
        self.seed = seed
        self.tracer = tracer
        self.scheduler_config = scheduler_config or SchedulerConfig()
        self.pool_chaos = (pool_chaos if pool_chaos is not None
                           and pool_chaos.rate > 0.0 else None)
        lifecycle = self.pool_chaos is not None
        self.scheds: List[Scheduler] = []
        self._pool_state: List[_PoolState] = []
        for i in range(config.n_pools):
            if chaos is None or i == 0:
                pool_chaos_model = chaos
            else:
                pool_chaos_model = replace(
                    chaos, seed=chaos.seed + _POOL_CHAOS_STRIDE * i,
                    log=[])
            pool = DevicePool(
                n_devices, fault_rate=fault_rate,
                seed=seed + _POOL_SEED_STRIDE * i,
                tracer=tracer, execution=execution,
                chaos=pool_chaos_model, track_prefix=f"p{i}.",
                artifact_store=artifact_store)
            if self.scheds:
                # The pools share one compile configuration, so they
                # share pool 0's image table: each workload is
                # programmed once per fleet.
                pool.images = self.scheds[0].pool.images
            self.scheds.append(Scheduler(pool, self.scheduler_config,
                                         lifecycle=lifecycle,
                                         autoscale=autoscale))
            self._pool_state.append(_PoolState(
                chaos=None if self.pool_chaos is None
                else self.pool_chaos.spawn(i)))
        #: Each content key's replica set, home pool first (filled by
        #: :meth:`_route`).
        self._replica_sets: Dict[ContentKey, Tuple[int, ...]] = {}
        # ---- run state
        self._events = EventQueue()
        #: Routing records of the jobs an outage evicted, by job id.
        self._records: Dict[int, _JobRecord] = {}
        self._fleet_results: Dict[int, JobResult] = {}

    @property
    def pools(self) -> List[DevicePool]:
        """The device pools, in pool order (each session's pool)."""
        return [sched.pool for sched in self.scheds]

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _route(self, jobs: Sequence[Job]) -> List[List[Job]]:
        """Assign every job a primary pool; build replica sets.

        Jobs are scanned in ``(arrival_cycle, job_id)`` order; a key's
        replica set is its home pool plus the next ``replicas - 1``
        pools (mod N) when the key is hot, and the primary is the
        least-loaded member so far (replica-list order on ties).
        """
        unique_job_ids(jobs)
        n = self.config.n_pools
        ordered = sorted(jobs, key=lambda j: (j.arrival_cycle, j.job_id))
        counts: Dict[ContentKey, int] = {}
        for j in ordered:
            key = content_key(j)
            counts[key] = counts.get(key, 0) + 1
        # Boundary semantics pinned at both ends: ``hot_fraction=0.0``
        # replicates nothing (a zero floor used to make *every* key
        # "hot", since all counts are >= 0), and ``1.0`` replicates
        # only a key carrying the entire trace.
        hot_floor = self.config.hot_fraction * len(ordered)
        replica_sets = self._replica_sets
        for key, count in counts.items():
            hot = hot_floor > 0.0 and count >= hot_floor
            width = min(self.config.replicas, n) if hot else 1
            home = home_pool(key, n)
            replica_sets[key] = tuple((home + k) % n
                                      for k in range(width))
        pool_state = self._pool_state
        assignments: List[List[Job]] = [[] for _ in range(n)]
        for j in ordered:
            reps = replica_sets[content_key(j)]
            primary = min(reps, key=lambda p: (pool_state[p].routed,
                                               reps.index(p)))
            pool_state[primary].routed += 1
            assignments[primary].append(j)
        for key in sorted(replica_sets):
            for p in replica_sets[key]:
                if pool_state[p].probe_key is None:
                    pool_state[p].probe_key = key
        return assignments

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, jobs: Sequence[Job]) -> Tuple[List[JobResult],
                                                FleetReport]:
        """Serve every job; returns results (job-id order) + report.

        A second call raises :class:`~repro.errors.SimulationError`:
        each pool's session serves one run.
        """
        assignments = self._route(jobs)
        for i, sched in enumerate(self.scheds):
            sched.start(assignments[i])
        if self.pool_chaos is not None:
            # One pending outage per pool, strictly sequential: the
            # next is drawn only at readmission.
            for i in range(self.config.n_pools):
                self._draw_outage(i, 0.0)

        while True:
            best: Optional[Tuple[float, int]] = None
            for i, sched in enumerate(self.scheds):
                cycle = sched.peek_cycle()
                if cycle is not None and (best is None
                                          or (cycle, i) < best):
                    best = (cycle, i)
            if best is None:
                # All sessions drained: remaining fleet events stay
                # unconsumed, like open device incidents.
                break
            head = self._events.peek()
            if head is None or best[0] <= head.cycle:
                # Sessions win ties: a job completing exactly at an
                # outage onset completed.
                i = best[1]
                self.scheds[i].advance()
                self._drain_evictions(i)
                continue
            event = self._events.pop()
            if event.kind == EventKind.POOL_OUTAGE:
                self._apply_outage(event.key, event.cycle)
            else:
                self._apply_recover(event.key, event.cycle)

        return self._finish(jobs)

    # ------------------------------------------------------------------
    # Fleet events
    # ------------------------------------------------------------------
    def _draw_outage(self, i: int, now: float) -> None:
        """Draw pool ``i``'s next outage and push its onset."""
        state = self._pool_state[i]
        state.incident = state.chaos.next_incident(now)
        if state.incident is not None:
            self._events.push(state.incident.at, EventKind.POOL_OUTAGE, i)

    def _apply_outage(self, i: int, now: float) -> None:
        state = self._pool_state[i]
        state.outage_probes = 0
        self.scheds[i].begin_outage(now)
        self._drain_evictions(i)
        # The drawn ``until`` is the *earliest* readmission attempt;
        # actual readmission waits for a successful probe.
        self._events.push(state.incident.until, EventKind.POOL_RECOVER, i)

    def _apply_recover(self, i: int, now: float) -> None:
        """Probe-gated readmission state machine for pool ``i``.

        A POOL_RECOVER event either *starts* a probe (charging real
        cycles on the pool's device 0 and scheduling a second
        POOL_RECOVER at the probe's completion) or *lands* one: a
        successful probe readmits the pool at its completion cycle and
        draws the pool's next outage; a failed one schedules a retry
        until the per-outage budget runs out, after which the pool
        stays down and traffic keeps routing around it.
        """
        state = self._pool_state[i]
        if state.probe_ok is not None:
            ok, state.probe_ok = state.probe_ok, None
            if ok:
                self._readmit(i, now)
            else:
                self._events.push(
                    now + self.config.probe_retry_cycles,
                    EventKind.POOL_RECOVER, i)
            return
        key = state.probe_key
        if key is None:
            # No content key was ever routed here: nothing to probe
            # with, and nothing the pool could serve wrongly — readmit
            # directly.
            self._readmit(i, now)
            return
        if state.outage_probes >= self.config.max_probes_per_outage:
            return  # permanently down for this run
        state.outage_probes += 1
        state.probes += 1
        # Probe jobs are numbered fleet-wide, in the order they run.
        seq = sum(p.probes for p in self._pool_state)
        probe_job = Job(
            job_id=-seq, kernel=key[2], dataset=key[0],
            scale=key[1], arrival_cycle=now, deadline_cycles=1.0,
            seed=self.seed + 104_729 * seq)
        ok, finish = self.scheds[i].run_probe(probe_job, now)
        if not ok:
            state.probes_failed += 1
        state.probe_ok = ok
        self._events.push(finish, EventKind.POOL_RECOVER, i)

    def _readmit(self, i: int, now: float) -> None:
        sched = self.scheds[i]
        sched.readmit(now)
        if self.tracer is not None and now > sched.outage_began:
            self.tracer.add(
                f"outage#{i}.{sched.outages}", "outage",
                sched.outage_began, now, "fleet",
                args={"pool": float(i)})
        if self.pool_chaos is not None:
            self._draw_outage(i, now)

    # ------------------------------------------------------------------
    # Failover
    # ------------------------------------------------------------------
    def _drain_evictions(self, i: int) -> None:
        for ev in self.scheds[i].take_evicted():
            self._pool_state[i].evictions += 1
            self._reroute(ev, i)

    def _pick_target(self, rec: _JobRecord) -> Optional[int]:
        """Best untried pool: up replicas, then any up pool, then down
        replicas, then any down pool — least routed load, id ties."""
        untried = [p for p in range(self.config.n_pools)
                   if p not in rec.tried]
        if not untried:
            return None
        replicas = self._replica_sets[content_key(rec.origin)]

        def rank(p: int) -> Tuple[int, int, int]:
            up = not self.scheds[p].pool_down
            rep = p in replicas
            cls = 0 if (up and rep) else 1 if up else 2 if rep else 3
            return (cls, self._pool_state[p].routed, p)

        return min(untried, key=rank)

    def _reroute(self, ev: Eviction, from_pool: int) -> None:
        """Hand an evicted job to its next pool (or finalise it).

        The transfer is charged ``reroute_cycles``; the job's absolute
        deadline never moves.  A job whose deadline cannot survive the
        transfer is finalised TIMEOUT in transit; a job that has tried
        every pool falls back to the fleet-level reference path —
        DEGRADED or TIMEOUT, never FAILED, mirroring the scheduler's
        own degradation contract.
        """
        rec = self._records.get(ev.job.job_id)
        if rec is None:
            # First eviction: the job left the pool it was routed to
            # as the trace gave it.
            rec = self._records[ev.job.job_id] = _JobRecord(ev.job)
        rec.prior_attempts += ev.attempts
        rec.tried.add(from_pool)
        origin = rec.origin
        new_arrival = ev.cycle + self.config.reroute_cycles
        if rec.deadline_at <= new_arrival:
            finish = max(ev.cycle, rec.deadline_at)
            self._fleet_results[origin.job_id] = JobResult(
                job_id=origin.job_id, status=JobStatus.TIMEOUT,
                attempts=rec.prior_attempts,
                latency_cycles=finish - origin.arrival_cycle,
                finish_cycle=finish,
                error=(f"deadline expired in transit after pool "
                       f"{from_pool} outage"),
                pool_id=from_pool, reroutes=rec.reroutes)
            if self.tracer is not None:
                self.tracer.instant_event(
                    f"timeout#{origin.job_id}", "timeout", finish,
                    "fleet")
            return
        target = self._pick_target(rec)
        if target is None:
            # Every pool tried and lost: answer on the reference path,
            # priced by the pool the job left, with the span on the
            # unprefixed ``reference`` track.
            self._fleet_results[origin.job_id] = \
                self.scheds[from_pool].reference_answer(
                    origin, new_arrival, rec.prior_attempts, "reference",
                    pool_id=from_pool, reroutes=rec.reroutes)
            return
        rec.reroutes += 1
        self._pool_state[from_pool].reroutes_out += 1
        dest = self._pool_state[target]
        dest.reroutes_in += 1
        dest.routed += 1
        if dest.probe_key is None:
            # The target now holds traffic even if no key was
            # originally routed to it: future readmissions must be
            # probe-verified.
            dest.probe_key = content_key(origin)
        self.scheds[target].add_job(replace(
            origin, arrival_cycle=new_arrival,
            deadline_cycles=rec.deadline_at - new_arrival))
        if self.tracer is not None:
            self.tracer.instant_event(
                f"reroute#{origin.job_id}", "reroute", ev.cycle,
                "fleet", args={"from": float(from_pool),
                               "to": float(target)})

    # ------------------------------------------------------------------
    # Report assembly
    # ------------------------------------------------------------------
    def _finish(self, jobs: Sequence[Job]) -> Tuple[List[JobResult],
                                                    FleetReport]:
        merged: Dict[int, JobResult] = dict(self._fleet_results)
        pool_reports: List[PoolReport] = []
        for i, sched in enumerate(self.scheds):
            pool_results, report = sched.finish()
            pool_reports.append(report)
            for r in pool_results:
                r.pool_id = i
                merged[r.job_id] = r
        for job_id, rec in self._records.items():
            if job_id in self._fleet_results:
                continue  # finalised by the fleet itself
            # A re-routed job a pool answered: count the attempts it
            # spent in the pools it left, and measure latency from its
            # *original* arrival, so the re-route transfers it paid stay
            # visible in the percentiles.
            r = merged[job_id]
            r.reroutes = rec.reroutes
            r.attempts += rec.prior_attempts
            if r.status not in (JobStatus.REJECTED, JobStatus.FAILED):
                r.latency_cycles = r.finish_cycle - rec.origin.arrival_cycle

        ordered = [merged[j.job_id]
                   for j in sorted(jobs, key=lambda j: j.job_id)]
        fold = fold_results(ordered)
        del fold["retries"]  # a fleet report counts attempts only
        makespan = fold["makespan_cycles"]

        pool_stats = []
        for i, (sched, state, pool_report) in enumerate(
                zip(self.scheds, self._pool_state, pool_reports)):
            downtime = sched.pool_downtime_cycles
            if sched.pool_down:
                # Close a still-open outage against the makespan:
                # downtime and the trace span both end where the run
                # does.
                open_down = max(0.0, makespan - sched.outage_began)
                downtime += open_down
                if self.tracer is not None and open_down > 0.0:
                    self.tracer.add(
                        f"outage#{i}.{sched.outages}", "outage",
                        sched.outage_began, makespan, "fleet",
                        args={"pool": float(i)})
            pool_stats.append(PoolStats(
                pool_id=i, outages=sched.outages,
                downtime_cycles=downtime, evictions=state.evictions,
                reroutes_in=state.reroutes_in,
                reroutes_out=state.reroutes_out, probes=state.probes,
                probes_failed=state.probes_failed, report=pool_report))
        autoscale_agg = None
        scaled = [r.autoscale for r in pool_reports
                  if r.autoscale is not None]
        if scaled:
            # Every field sums over the pools in pool order (the
            # peak/final counts become fleet-wide device totals) except
            # the bounds, which are the shared config's.
            autoscale_agg = AutoscaleReport(**{
                f.name: (getattr(scaled[0], f.name)
                         if f.name in ("min_devices", "max_devices")
                         else sum(getattr(a, f.name) for a in scaled))
                for f in fields(AutoscaleReport)})
        # The fleet totals are sums over the pools; every hop leaves
        # one pool and reaches another.
        reroutes = sum(p.reroutes_out for p in pool_stats)
        report = FleetReport(
            pools=self.config.n_pools,
            replicas=self.config.replicas,
            reroutes=reroutes,
            reroute_cycles_charged=reroutes * self.config.reroute_cycles,
            autoscale=autoscale_agg,
            pool_stats=tuple(pool_stats),
            **{name: sum(getattr(p, name) for p in pool_stats)
               for name in ("outages", "downtime_cycles", "probes",
                            "probes_failed")},
            **fold,
        )
        return ordered, report


def serve_fleet(n_requests: int, n_devices: int = 4,
                fault_rate: float = 0.0, seed: int = 0,
                scale: float = 0.05,
                workloads: Optional[Tuple[Tuple[str, str], ...]] = None,
                trace: Optional[List[Job]] = None,
                scheduler_config: Optional[SchedulerConfig] = None,
                tracer=None, max_batch: int = 1,
                execution: str = "simulate",
                chaos: Optional[ChaosModel] = None,
                hedge_after: Optional[float] = None,
                pool_chaos: Optional[PoolChaosModel] = None,
                fleet_config: Optional[FleetConfig] = None,
                artifact_store=None,
                autoscale: Optional[AutoscaleConfig] = None,
                **trace_kwargs) -> Tuple[List[JobResult], FleetReport]:
    """Serve a seeded workload trace over a replicated pool fleet.

    The fleet analogue of :func:`repro.runtime.serve`: the same
    trace and policy inputs (one
    :func:`~repro.runtime.scheduler.serve_inputs` builds both) and the
    same pool parameters; ``fleet_config`` adds the pool count,
    replication and failover knobs, ``pool_chaos`` attaches seeded
    whole-pool outages, and ``autoscale`` (an
    :class:`~repro.runtime.autoscale.AutoscaleConfig`) makes every
    pool's device count elastic within the shared bounds.  Two calls
    with identical arguments produce a byte-identical
    :func:`~repro.runtime.metrics.report_json`.
    """
    trace, scheduler_config = serve_inputs(
        n_requests, seed, scale, workloads, trace, scheduler_config,
        max_batch, hedge_after, trace_kwargs)
    fleet = Fleet(n_devices, fleet_config or FleetConfig(),
                  fault_rate=fault_rate, seed=seed,
                  scheduler_config=scheduler_config, tracer=tracer,
                  execution=execution, chaos=chaos,
                  pool_chaos=pool_chaos, artifact_store=artifact_store,
                  autoscale=autoscale)
    return fleet.run(trace)

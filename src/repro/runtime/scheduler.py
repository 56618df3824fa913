"""Deterministic simulated-time scheduler over a device pool.

The scheduler is a discrete-event simulation cored on the heap-based
engine of :mod:`repro.runtime.events`.  All time is in simulated
cycles — the same clock :class:`~repro.core.report.SimReport`
accumulates — so a run is bit-reproducible from its seeds and needs no
threads, sleeps, or wall-clock reads.  Every future state change
(arrival, dispatch completion, retry readiness, breaker reopen,
deadline expiry) is a typed event pushed when it becomes known; the
main loop pops the earliest one in O(log n) instead of re-scanning
every queue and device per clock advance.  Coincident events are
processed under the explicit total order ``(cycle, kind, key, seq)``
documented in :mod:`repro.runtime.events` — every tie is broken by an
explicit total order, never by hash or identity.

Policies
--------
* **Admission / backpressure** — the waiting queue is bounded.  A job
  arriving with ``deadline_cycles <= 0`` or to a full queue raises
  :class:`~repro.errors.RejectedError` internally and finishes
  ``REJECTED`` immediately: the runtime sheds load explicitly rather
  than queueing unboundedly.  High-priority jobs may use a small
  reserve beyond the base queue depth.
* **Deadlines** — enforced against the simulated clock.  A job whose
  deadline expires while queued is finalised ``TIMEOUT`` (via
  :class:`~repro.errors.DeadlineError`) without occupying a device; a
  job that completes past its deadline is also ``TIMEOUT`` (the answer
  stays attached — it is correct, merely late).  The strict-``>``
  boundary rule is uniform across every completion path, including the
  degraded reference path: a job finishing *exactly* at its deadline
  met it.  A job that cannot possibly run again before its deadline (a
  post-fault requeue whose retry-ready cycle lies beyond it) is
  finalised at the deadline cycle itself via a deadline-expiry event,
  so its ``finish_cycle``/``latency_cycles`` never inflate past the
  deadline.
* **Retry-on-another-device** — a :class:`~repro.errors.FaultError` or
  :class:`~repro.errors.CorruptionError` consumes one attempt, charges
  the sick device the wasted cycles, feeds its breaker, and requeues
  the job for a device it has not tried yet.
* **Graceful degradation** — when attempts are exhausted (or every
  breaker is open), the job runs on the golden reference kernels and
  finishes ``DEGRADED``: numerically correct, explicitly marked, priced
  at ``reference_slowdown`` × the workload's nominal cycles.  The
  runtime never silently returns a wrong or missing answer; ``FAILED``
  is reserved for jobs no path could answer (e.g. an unknown dataset).
* **Chaos survival** — when the pool carries a
  :class:`~repro.sim.chaos.ChaosModel`, devices crash and hang as
  typed events.  A crash voids the device's in-flight attempt (the
  attempt is uncharged — cycles trimmed, the attempt-budget slot
  refunded — and the job requeues for another device), quarantines the
  breaker until the paired ``DEVICE_RECOVER``, and then probes it
  half-open.  A hang stretches the in-flight attempt by the stall and
  blocks new placements until it clears.  Infrastructure loss alone
  never produces ``FAILED``.
* **Hedged dispatch** — with ``hedge_after`` set, a solo attempt that
  has run ``hedge_after ×`` its golden nominal estimate without
  completing may spawn one speculative duplicate on a healthy untried
  device.  First verified answer wins; the loser is cancelled through
  lazy event deletion, its device time trimmed to the cycles actually
  occupied, and both attempts stay honestly counted (``attempts``,
  ``hedges_launched``/``hedges_won``).

Execution modes of the loop itself
----------------------------------
Every attempt — solo job, fused batch or hedge twin — dispatches
through one ``_launch`` and has its outcome applied by one ``_settle``:
the trace span, the breaker verdict, the results or the
retry/degrade decision, and cancelling a racing twin.  Only the
*timing* of the settle differs.  Chaos-free and hedge-free, attempts
settle *eagerly at dispatch*, the breaker verdict landing on the
dispatch cycle — bit-identical to the scheduler before the chaos layer
existed (the fingerprint corpus pins this).  With chaos or hedging
configured, or in a fleet whose pools may go dark, the loop runs in
*lifecycle* mode: the settle is deferred to the attempt's
``DISPATCH_COMPLETE`` event so that crashes, hangs, outages and hedge
races can intervene mid-flight.  Deferred completion events validate
by object identity against the device's single in-flight record — a
postponed or cancelled attempt leaves its old event to die stale in
the heap.

Both timings stay because they are not interchangeable.  Replaying
the 90-case fingerprint corpus under the lifecycle timing leaves the
45 fault-free cases identical except for ``events_processed`` and
``events_stale``, but moves queue peak, makespan, latency or device
stats in 18 of the 45 faulty cases: under the eager timing a fault's
breaker verdict and requeue take effect at the dispatch cycle, under
the lifecycle timing only at completion.
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass
from typing import (
    AbstractSet,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import (
    ConfigError,
    DeadlineError,
    RejectedError,
    ReproError,
    SimulationError,
)
from repro.runtime.autoscale import AutoscaleConfig, Autoscaler
from repro.runtime.events import Event, EventKind, EventQueue
from repro.runtime.jobs import (
    Job,
    JobResult,
    JobStatus,
    TraceSpec,
    make_trace,
)
from repro.runtime.metrics import PoolReport, build_report
from repro.runtime.pool import (
    BATCHABLE_KERNELS,
    DEFAULT_REFERENCE_SLOWDOWN,
    Device,
    DevicePool,
    value_crc,
    workload_programs,
)


@dataclass(frozen=True)
class SchedulerConfig:
    """Serving-policy knobs (cycle units are simulated cycles)."""

    #: Bounded waiting-queue depth for normal-priority jobs.
    queue_depth: int = 32
    #: Extra queue slots only jobs with priority >= 2 may occupy.
    high_priority_reserve: int = 8
    #: Accelerator attempts per job before degrading to the reference.
    max_attempts: int = 3
    #: Latency multiplier of the reference fallback vs nominal cycles.
    reference_slowdown: float = DEFAULT_REFERENCE_SLOWDOWN
    #: Most jobs one device dispatch may fuse into a multi-RHS batch
    #: (same dataset/scale/kernel, enough deadline slack).  1 disables
    #: coalescing entirely — the scheduler then behaves exactly as it
    #: did before batching existed.
    max_batch: int = 1
    #: Hedged-dispatch threshold: once a solo attempt has been in
    #: flight for ``hedge_after ×`` the workload's golden nominal
    #: cycles, launch one speculative duplicate on a healthy untried
    #: device.  ``None`` disables hedging (and, absent chaos, keeps
    #: the scheduler on its eager settle timing).  Batched
    #: dispatches never hedge.
    hedge_after: Optional[float] = None

    def __post_init__(self) -> None:
        # Construction-time validation of the numeric knobs: zero or
        # negative values used to fail later or silently disable the
        # feature (max_batch=0 meant "no batching", queue_depth=0
        # rejected everything) — each is a misconfiguration, named at
        # the moment the config is written, not when a scheduler first
        # consumes it.
        for name in ("queue_depth", "max_attempts", "max_batch"):
            value = getattr(self, name)
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if self.high_priority_reserve < 0:
            raise ConfigError(
                f"high_priority_reserve must be >= 0, got "
                f"{self.high_priority_reserve}")
        if self.hedge_after is not None and self.hedge_after <= 0:
            raise ConfigError(
                f"hedge_after must be positive (a multiple of the "
                f"nominal estimate), got {self.hedge_after}")


def deadline_verdict(job: Job, latency: float,
                     status: JobStatus = JobStatus.OK,
                     note: str = "") -> Tuple[JobStatus, str]:
    """The strict-``>`` deadline rule every completion path applies.

    An answer landing ``latency`` cycles after the job's arrival keeps
    ``status`` — ``OK``, or ``DEGRADED`` for a reference answer — and
    ``note`` as its error text when it met the deadline; finishing
    *exactly* at the deadline counts.  A later answer is ``TIMEOUT``
    (it stays attached: correct, merely late), its error naming how
    late it landed and, after it, ``note``.
    """
    if latency <= job.deadline_cycles:
        return status, note
    what = ("completed" if status is JobStatus.OK
            else "degraded answer completed")
    error = (f"{what} {latency - job.deadline_cycles:.0f} cycles past "
             f"deadline")
    if note:
        error += f" (after {note})"
    return JobStatus.TIMEOUT, error


def unique_job_ids(jobs: Sequence[Job]) -> Set[int]:
    """The trace's job ids, raising :class:`ConfigError` on the first
    duplicate: results are keyed by job id."""
    seen: Set[int] = set()
    for j in jobs:
        if j.job_id in seen:
            raise ConfigError(
                f"duplicate job_id {j.job_id} in trace: results are "
                f"keyed by job id, so one of the duplicates would "
                f"silently overwrite the other")
        seen.add(j.job_id)
    return seen


def serve_inputs(n_requests: int, seed: int, scale: float,
                 workloads: Optional[Tuple[Tuple[str, str], ...]],
                 trace: Optional[List[Job]],
                 scheduler_config: Optional[SchedulerConfig],
                 max_batch: int, hedge_after: Optional[float],
                 trace_kwargs: Dict[str, object]
                 ) -> Tuple[List[Job], SchedulerConfig]:
    """The trace and policy a serve call runs: ``trace``, or one built
    from a :class:`~repro.runtime.jobs.TraceSpec` of the other trace
    arguments; ``scheduler_config``, or the default policy with the
    ``max_batch`` and ``hedge_after`` shortcuts."""
    if trace is None:
        spec_kwargs = dict(n_requests=n_requests, seed=seed, scale=scale,
                           **trace_kwargs)
        if workloads is not None:
            spec_kwargs["workloads"] = workloads
        trace = make_trace(TraceSpec(**spec_kwargs))
    if scheduler_config is None:
        scheduler_config = SchedulerConfig(max_batch=max_batch,
                                           hedge_after=hedge_after)
    return trace, scheduler_config


class _JobState:
    """Mutable scheduling state for one admitted job."""

    __slots__ = ("job", "ready", "deadline_at", "attempts", "tried",
                 "flights", "hedge_event")

    def __init__(self, job: Job) -> None:
        self.job = job
        #: Earliest cycle the job may next be dispatched.
        self.ready = job.arrival_cycle
        self.deadline_at = job.arrival_cycle + job.deadline_cycles
        self.attempts = 0
        self.tried: Set[int] = set()
        #: Live in-flight attempts (lifecycle mode): one normally, two
        #: while a hedge race is on, empty while queued.
        self.flights: List["_Flight"] = []
        #: The job's current HEDGE_TIMER event; identity-checked on
        #: pop and cleared by every dispatch, so a redispatch — solo or
        #: batched — strands the old timer.
        self.hedge_event: Optional[Event] = None


class _Flight:
    """One deferred in-flight attempt (lifecycle mode only).

    The outcome ``att`` is drawn at dispatch — device fault streams
    stay bit-identical to eager mode — but nothing is *settled* until
    the flight's ``DISPATCH_COMPLETE`` event is consumed, so a crash
    can void it, a hang can stretch it, and a hedge twin can beat it.
    """

    __slots__ = ("states", "att", "device", "start", "finish", "hedge",
                 "complete_event")

    def __init__(self, states: List[_JobState], att, device,
                 start: float, finish: float, hedge: bool,
                 complete_event: Event) -> None:
        self.states = states
        self.att = att
        self.device = device
        self.start = start
        #: Scheduled completion cycle; a hang pushes it out (and
        #: replaces ``complete_event``).
        self.finish = finish
        #: True for a speculative hedge duplicate.
        self.hedge = hedge
        #: The live completion event — validity is object identity, so
        #: superseded events die stale in the heap.
        self.complete_event = complete_event


@dataclass(frozen=True)
class Eviction:
    """A job a pool outage handed back to the fleet.

    Eviction is the pool-level analogue of the crash contract's
    requeue: the job is not failed, merely homeless.  ``attempts``
    carries the accelerator attempts the job consumed in this pool
    (voided in-flight attempts already refunded), so the fleet can
    keep the final result's attempt count honest across pools.
    """

    job: Job
    #: Cycle the job left the pool (outage onset, or its arrival cycle
    #: for a job arriving mid-outage).
    cycle: float
    attempts: int


#: Event kinds that only wake the engine: the dispatch pass that follows
#: reads live state and does the work.
_PURE_WAKES = (EventKind.ARRIVAL, EventKind.RETRY_READY,
               EventKind.BREAKER_REOPEN)


def _service_order(states: List["_JobState"]) -> None:
    """Sort queued states in place into the deterministic service
    order: priority descending, then job id (FIFO)."""
    states.sort(key=lambda s: (-s.job.priority, s.job.job_id))


class Scheduler:
    """Runs a trace of jobs over a :class:`DevicePool` to completion.

    A scheduler serves one session: :meth:`run`, or :meth:`start`,
    :meth:`advance` and :meth:`finish`.
    """

    # ---- what the trace determines, set by :meth:`start` (the class
    # defaults, empty and immutable, read as a session not yet started)
    #: Ids of every job given to the session, by the trace or by
    #: :meth:`add_job`.
    _seen: AbstractSet[int] = frozenset()
    #: Jobs not yet admitted, in ``(arrival_cycle, job_id)`` order.
    _arrivals: Sequence[Job] = ()
    #: The trace's jobs in arrival order whose ARRIVAL event is not
    #: pushed yet, and the one armed ARRIVAL on the heap (see
    #: :meth:`_arm_arrival`).
    _unarmed: Optional[Iterator[Job]] = None
    _armed: Optional[Event] = None
    #: The live :class:`Autoscaler` when autoscaling is configured.
    autoscaler: Optional[Autoscaler] = None

    def __init__(self, pool: DevicePool,
                 config: Optional[SchedulerConfig] = None,
                 lifecycle: bool = False,
                 autoscale: Optional[AutoscaleConfig] = None) -> None:
        self.pool = pool
        self.config = config or SchedulerConfig()
        #: Elastic-capacity policy; ``None`` — the default — keeps the
        #: pool at its construction-time size and the whole run
        #: field-identical to the pre-autoscale scheduler.
        self.autoscale_config = autoscale
        self.queue_peak = 0
        #: Fused dispatches that produced answers, jobs served inside
        #: them, and DRAM bytes they avoided vs solo service.
        self.batches = 0
        self.batched_jobs = 0
        self.stream_bytes_saved = 0.0
        #: Hedged-dispatch and chaos counters for the report.
        self.hedges_launched = 0
        self.hedges_won = 0
        self.crashes = 0
        self.hangs = 0
        self.recoveries = 0
        #: The session's event heap, kept on the instance so tests and
        #: load benchmarks can read its counters.
        self.events = EventQueue()
        #: The settle timing: True defers each attempt's settle to its
        #: DISPATCH_COMPLETE, False settles it at dispatch (the eager
        #: timing) — the chaos-free identity guarantee depends on this
        #: staying False when neither chaos nor hedging is configured.
        #: The fleet passes ``lifecycle=True`` when pool-level chaos
        #: may strike: an outage can only void a *deferred* attempt.
        self._lifecycle = (self.pool.chaos is not None
                           or self.config.hedge_after is not None
                           or lifecycle)
        #: States of admitted jobs that have no result yet, by id
        #: (HEDGE_TIMER lookups); :meth:`_resolve` frees each one.
        self._states: Dict[int, _JobState] = {}
        #: Each device's pending (not yet fully applied) incident.
        self._incidents: Dict[int, object] = {}
        #: Live deferred flights — the run loop must not exit while
        #: any remain, even with the queues drained.
        self._inflight = 0
        self._waiting: List[_JobState] = []
        self._results: Dict[int, JobResult] = {}
        self._now = 0.0
        # ---- fleet hooks: pool-outage state and eviction hand-off
        #: Whether a pool outage holds the pool dark, the cycle the
        #: latest outage began, the outages so far and the downtime of
        #: the closed ones: the fleet reads its pools' outage state here.
        self.pool_down = False
        self.outage_began = 0.0
        self.outages = 0
        self.pool_downtime_cycles = 0.0
        #: Devices the current outage forced down (readmission restores
        #: exactly these; a device that crashed on its own during the
        #: outage is removed and left to its own DEVICE_RECOVER).
        self._outage_held: Set[int] = set()
        self._evicted: List[Eviction] = []
        self._evicted_ids: Set[int] = set()

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------
    def admit(self, job: Job, queue_length: int) -> None:
        """Raise :class:`RejectedError` unless the job may be admitted."""
        if job.deadline_cycles <= 0:
            raise RejectedError(
                f"job {job.job_id}: zero deadline budget is not "
                f"serviceable")
        capacity = self.config.queue_depth
        if job.priority >= 2:
            capacity += self.config.high_priority_reserve
        if queue_length >= capacity:
            raise RejectedError(
                f"job {job.job_id}: queue full "
                f"({queue_length}/{capacity})")

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, jobs: Sequence[Job]) -> Tuple[List[JobResult], PoolReport]:
        """Serve every job; returns results (job order) and the report.

        The solo composition of :meth:`start` / :meth:`advance` /
        :meth:`finish` — bit-identical to the historical single-call
        loop (the fingerprint corpus pins this).
        """
        self.start(jobs)
        while self.advance():
            pass
        return self.finish()

    def start(self, jobs: Sequence[Job]) -> None:
        """Open the serving session: arrival events, chaos bootstrap,
        and the cycle-0 admit/dispatch pass.

        ``start``/``advance``/``finish`` decompose the run loop so a
        fleet layer can interleave N schedulers on one global clock:
        :meth:`peek_cycle` reads the next wake and leaves it on the
        heap, :meth:`advance` consumes exactly one, and the fleet always
        advances whichever source (session wake or fleet event) is
        globally earliest — so an injected job is never in this
        session's past.

        A scheduler serves one session: its counters, heap and pool
        carry that session from construction on, so a second ``start``
        (or :meth:`run`) raises :class:`SimulationError` rather than
        report a mix of two runs.
        """
        if self._unarmed is not None:
            raise SimulationError(
                "this Scheduler already served a session; build a new "
                "one over a fresh DevicePool for another run")
        self._seen = unique_job_ids(jobs)
        ordered = sorted(jobs, key=lambda j: (j.arrival_cycle, j.job_id))
        self._arrivals = deque(ordered)
        self._unarmed = iter(ordered)
        self._arm_arrival()
        if self.pool.chaos is not None:
            # Bootstrap one pending incident per device; the next one
            # is drawn only when this one's recovery is consumed, so
            # each device's incident history is strictly sequential.
            for device in self.pool.devices:
                self._schedule_incident(device, 0.0)
        if self.autoscale_config is not None:
            cfg = self.autoscale_config
            if len(self.pool) > cfg.max_devices:
                raise ConfigError(
                    f"pool has {len(self.pool)} devices but autoscale "
                    f"max_devices is {cfg.max_devices}; the initial "
                    f"pool must fit inside the scaling bounds")
            self.autoscaler = Autoscaler(cfg)
            self.autoscaler.note_capacity(0.0, len(self.pool))
            # Grow to the floor before serving starts; the adds count
            # as provisioned devices but not as scale-up decisions.
            while len(self.pool) < cfg.min_devices:
                self._provision_device(0.0)
            self.events.push(cfg.eval_interval_cycles,
                             EventKind.SCALE_EVAL, 0)

        # Mirror of the scan-based loop's first iteration: admit and
        # dispatch anything actionable at cycle 0 before the first
        # clock advance.
        self._step(self._now)

    def pending(self) -> bool:
        """Whether the session still has work (queued or in flight)."""
        return bool(self._arrivals or self._waiting or self._inflight)

    def peek_cycle(self) -> Optional[float]:
        """Cycle of the session's next wake, which stays on the heap.

        ``None`` when the session is drained.  A pending session with
        no future event (nothing can unblock its queue) reports the
        *current* cycle: the fleet must still call :meth:`advance` so
        the stranded jobs shed to the reference path.  Peeking pops
        only stale events, never the wake, so the fleet may mutate the
        session between a peek and the next :meth:`advance`.
        """
        if not self.pending():
            return None
        wake = self._next_wake()
        return self._now if wake is None else wake.cycle

    def advance(self) -> bool:
        """Consume the session's next wake; False when drained."""
        if not self.pending():
            return False
        wake = self._next_wake()
        if wake is None:
            # No future event can unblock the queue (should be
            # unreachable — degradation guarantees progress); shed
            # whatever is left rather than spin.
            for state in list(self._waiting):
                self._waiting.remove(state)
                self._degrade(state, self._now)
            return False
        self._pop()
        self._now = wake.cycle
        self._consume_at(wake, self._now)
        self._step(self._now)
        return True

    def finish(self) -> Tuple[List[JobResult], PoolReport]:
        """Close the session: device summary spans plus the report.

        Results are ordered by job id and cover exactly the jobs this
        scheduler finalised — a job the fleet evicted mid-outage
        belongs to whichever pool (or fleet-level fallback) answered
        it.  Every job given to the session, by the trace or by
        :meth:`add_job`, must have one or the other: a job with
        neither was lost, and :class:`SimulationError` names it rather
        than letting the report count only the survivors.
        """
        lost = sorted(self._seen - self._results.keys()
                      - self._evicted_ids)
        if lost:
            shown = ", ".join(str(jid) for jid in lost[:20])
            raise SimulationError(
                f"{len(lost)} job(s) have neither a result nor an "
                f"eviction: {shown}{', ...' if len(lost) > 20 else ''}")
        self._trace_devices()
        ordered = [self._results[jid] for jid in sorted(self._results)]
        autoscale_report = None
        if self.autoscaler is not None:
            makespan = max((r.finish_cycle for r in ordered),
                           default=0.0)
            autoscale_report = self.autoscaler.finalize(
                max(makespan, self._now))
        return ordered, build_report(
            ordered, self.pool, self.queue_peak, batches=self.batches,
            batched_jobs=self.batched_jobs,
            stream_bytes_saved=self.stream_bytes_saved,
            events_processed=self.events.popped - self.events.stale,
            events_stale=self.events.stale,
            hedges_launched=self.hedges_launched,
            hedges_won=self.hedges_won,
            crashes=self.crashes, hangs=self.hangs,
            recoveries=self.recoveries,
            autoscale=autoscale_report)

    # ------------------------------------------------------------------
    # Fleet hooks: job injection, pool outage, probe-gated readmission
    # ------------------------------------------------------------------
    def add_job(self, job: Job) -> None:
        """Inject a job into the running session (fleet re-route).

        ``job.arrival_cycle`` must not lie in the session's past — the
        fleet's global-min stepping guarantees every pool's clock is at
        or behind any event being processed.
        """
        if job.job_id in self._seen:
            raise ConfigError(
                f"job {job.job_id} was already routed to this pool; "
                f"the fleet must never re-route a job back")
        self._seen.add(job.job_id)
        items = list(self._arrivals)
        bisect.insort(items, job,
                      key=lambda j: (j.arrival_cycle, j.job_id))
        self._arrivals = deque(items)
        self.events.push(job.arrival_cycle, EventKind.ARRIVAL,
                         job.job_id)

    def take_evicted(self) -> List[Eviction]:
        """Drain the jobs the pool has handed back since the last call."""
        out, self._evicted = self._evicted, []
        return out

    def _eject(self, state: _JobState, now: float) -> None:
        """Hand one job back to the fleet (never a terminal result)."""
        jid = state.job.job_id
        self._evicted.append(Eviction(job=state.job, cycle=now,
                                      attempts=state.attempts))
        self._evicted_ids.add(jid)
        self._states.pop(jid, None)
        if self.pool.tracer is not None:
            self.pool.tracer.instant_event(
                f"evict#{jid}", "evict", now,
                self.pool.track("scheduler"))

    def begin_outage(self, now: float) -> None:
        """The whole pool goes dark at ``now`` (fleet POOL_OUTAGE).

        Mirrors the per-device crash contract at pool scale: every
        in-flight attempt is voided — busy cycles refunded, the
        attempt-budget slot refunded, the device dropped from
        ``tried`` — and every orphaned or queued job is *ejected* to
        the fleet rather than requeued locally.  Devices are forced
        down with quarantined breakers; :meth:`readmit` restores
        exactly the devices this outage took (one that crashes on its
        own mid-outage is left to its own recovery chain).
        """
        if self.pool_down:
            raise ConfigError(
                "pool outage drawn while the pool is already down: "
                "pool incidents must be strictly sequential")
        self.pool_down = True
        self.outage_began = now
        self.outages += 1
        for device in self.pool.devices:
            if device.inflight is not None:
                for s in self._truncate(device.inflight, now,
                                        "pool outage voided attempt"):
                    self._eject(s, now)
            if device.up:
                device.up = False
                device.breaker.force_open(now)
                self._outage_held.add(device.device_id)
        for state in list(self._waiting):
            self._waiting.remove(state)
            self._eject(state, now)

    def run_probe(self, job: Job, now: float) -> Tuple[bool, float]:
        """Run one recovery probe on the pool's designated device.

        Called by the fleet while the pool is still down: the probe is
        a real attempt on device 0 (charged as genuine occupancy, so
        recovery is never free), bypassing admission and the breaker —
        the pool-level gate is this probe's outcome, the device-level
        half-open probes follow after readmission.  Returns
        ``(ok, finish_cycle)``.
        """
        # First live device: slot 0 unless the autoscaler withdrew it.
        device = next((d for d in self.pool.live if not d.draining),
                      self.pool.devices[0])
        att = device.attempt(job, self.pool, now=now)
        finish = now + att.cycles
        device.busy_cycles += att.cycles
        device.busy_until = max(device.busy_until, finish)
        device.record_flight([job], self.pool, now, finish,
                             ok=att.ok, error=att.error, cat="probe")
        return att.ok, finish

    def readmit(self, now: float) -> None:
        """End the outage: restore the devices it took (fleet-verified).

        Only called after a successful probe.  Restored breakers leave
        quarantine into an immediately-probeable open state, so each
        device's first real dispatch is its own half-open probe —
        recovery stays verified at both levels.
        """
        self.pool_down = False
        self.pool_downtime_cycles += now - self.outage_began
        for device_id in sorted(self._outage_held):
            device = self.pool.devices[device_id]
            device.up = True
            device.breaker.end_quarantine(now)
        self._outage_held.clear()

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------
    def _step(self, now: float) -> None:
        """One wake of the engine: admit everything due, then dispatch
        until no further progress is possible at this cycle."""
        arrivals = self._arrivals
        while arrivals and arrivals[0].arrival_cycle <= now:
            self._admit_at(arrivals.popleft())
        self._dispatch(now)

    def _valid(self, event: Event) -> bool:
        """Whether a popped event still describes live state.

        The heap is append-only (lazy deletion), so an event may
        outlive the state change it announced: a job that finished
        before its deadline, a breaker that was probed or re-tripped.
        Stale events must be *skipped without waking the engine* —
        an extra wake would run the queued-expiry check at a cycle the
        event order does not define, shifting timeout finalisation.
        """
        kind = event.kind
        if kind == EventKind.DISPATCH_COMPLETE:
            if not self._lifecycle:
                # Eager attempts settled at dispatch, and a device is
                # never redispatched before it completes: each
                # completion is a pure wake matching one real
                # transition.
                return True
            # Deferred completions validate by identity: a hang
            # replaces the flight's event, a crash or hedge
            # cancellation removes the flight entirely, and the
            # superseded event must die stale.
            flight = self.pool.devices[event.key].inflight
            return (flight is not None
                    and flight.complete_event is event)
        if kind == EventKind.BREAKER_REOPEN:
            breaker = self.pool.devices[event.key].breaker
            return breaker.reopen_at == event.cycle
        if kind == EventKind.HEDGE_TIMER:
            # Live only while the solo primary that armed it is the
            # job's one flight: a finished, requeued or redispatched
            # job has cleared or replaced its timer or emptied its
            # flights.
            state = self._states.get(event.key)
            return (state is not None and state.hedge_event is event
                    and len(state.flights) == 1)
        if kind == EventKind.DEVICE_DRAIN:
            # Identity-validated like deferred completions: a drain
            # re-armed past in-flight work strands its old event.
            device = self.pool.devices[event.key]
            return (device.draining and not device.retired
                    and device.drain_event is event)
        if kind in (EventKind.RETRY_READY, EventKind.DEADLINE_EXPIRY):
            # The job must still be in flight: admitted, no terminal
            # result yet, not handed back to the fleet by a pool
            # outage.
            return (event.key not in self._results
                    and event.key not in self._evicted_ids)
        if kind in (EventKind.DEVICE_CRASH, EventKind.DEVICE_HANG):
            # Retirement ends a device's incident chain: an onset drawn
            # while it was in service dies stale once it has retired.
            return not self.pool.devices[event.key].retired
        # Arrivals land once; recoveries and the other chaos events are
        # pushed once each and are strictly sequential per device; one
        # SCALE_EVAL is live at a time and every DEVICE_ADD lands once
        # — never stale.
        return True

    def _arm_arrival(self) -> None:
        """Push the ARRIVAL of the next trace job not yet on the heap.

        Only the earliest trace arrival not yet popped sits on the
        heap; :meth:`_pop` arms its successor the moment it is popped,
        valid or stale.  Arrivals sort by ``(cycle, job id)`` exactly
        as the trace is ordered, so every other arrival is later than
        the armed one and the pop sequence — and with it every counter
        and report — is the one a heap holding the whole trace gives.
        """
        job = next(self._unarmed, None)
        self._armed = (None if job is None else self.events.push(
            job.arrival_cycle, EventKind.ARRIVAL, job.job_id))

    def _pop(self) -> Event:
        """Pop the heap's earliest event, re-arming the trace arrival."""
        event = self.events.pop()
        if event is self._armed:
            self._arm_arrival()
        return event

    def _next_wake(self) -> Optional[Event]:
        """The earliest strictly-future valid event, left on the heap.

        Only the stale events ahead of it are popped (and counted): the
        wake itself is popped by :meth:`advance`, never by a peek.
        """
        events = self.events
        while events:
            event = events.peek()
            if event.cycle > self._now and self._valid(event):
                return event
            self._pop()
            events.mark_stale()
        return None

    def _consume_at(self, wake: Event, now: float) -> None:
        """Drain every event coincident with ``wake`` and apply the
        ones with their own effect.

        Arrivals, retry readiness and breaker reopenings only *wake*
        the engine — the dispatch pass that follows reads live state
        and does the work.  ``DEADLINE_EXPIRY`` has an effect only for
        a job whose retry-ready cycle lies strictly beyond its
        deadline: that job cannot be dispatched at the deadline cycle
        (or ever before it), so it is finalised ``TIMEOUT`` here, *at*
        the deadline — the scan-based engine left it pending until its
        retry became ready and then stamped the inflated cycle on it.

        Every other kind carries its own effect, applied here in the
        documented coincident order (kind, then key): a job completing
        the cycle its device crashes completes *before* the crash
        voids anything.  Each effectful event is re-validated
        immediately before it applies — an earlier coincident event
        may have cancelled it (e.g. the primary finishing at the same
        cycle as its hedge twin) — and marked stale if so.
        """
        pending = [wake]
        events = self.events
        while events:
            head = events.peek()
            if head is None or head.cycle != now:
                break
            pending.append(self._pop())
        for event in pending:
            kind = event.kind
            if kind in _PURE_WAKES:
                continue
            if kind == EventKind.DEADLINE_EXPIRY:
                state = next((s for s in self._waiting
                              if s.job.job_id == event.key), None)
                if state is None or state.ready <= now:
                    # Dispatchable at its deadline cycle: the
                    # strict-`>` boundary rule lets it still be placed
                    # this wake.
                    continue
                self._waiting.remove(state)
                self._finalize_timeout(state, now)
                continue
            if not self._valid(event):
                if event is not wake:
                    events.mark_stale()
                continue
            if kind == EventKind.HEDGE_TIMER:
                self._launch_hedge(self._states[event.key], now)
            elif kind == EventKind.SCALE_EVAL:
                self._scale_eval(now)
            elif kind == EventKind.DEVICE_ADD:
                self._apply_device_add(now)
            elif kind == EventKind.DISPATCH_COMPLETE:
                self._complete(self.pool.devices[event.key], now)
            elif kind == EventKind.DEVICE_CRASH:
                self._apply_crash(self.pool.devices[event.key], now)
            elif kind == EventKind.DEVICE_HANG:
                self._apply_hang(self.pool.devices[event.key], now)
            elif kind == EventKind.DEVICE_RECOVER:
                self._apply_recover(self.pool.devices[event.key], now)
            else:  # DEVICE_DRAIN
                device = self.pool.devices[event.key]
                if device.busy_until > now:
                    # Still finishing work (a probe or hang pushed its
                    # horizon out): re-arm at the new horizon.
                    device.drain_event = events.push(
                        device.busy_until, EventKind.DEVICE_DRAIN,
                        device.device_id)
                else:
                    self._retire(device, now)

    def _trace_devices(self) -> None:
        """Close a traced serve run: one summary span per device that
        ran, covering first dispatch to last idle, enclosing every job
        span on its track."""
        tracer = self.pool.tracer
        if tracer is None:
            return
        for d in self.pool.devices:
            if d.first_dispatch is None:
                continue
            tracer.add(f"device{d.device_id}", "device", d.first_dispatch,
                       max(d.busy_until, d.first_dispatch),
                       self.pool.track(f"device{d.device_id}"),
                       args={"jobs": float(d.jobs_run),
                             "busy_cycles": d.busy_cycles,
                             "breaker_trips": float(d.breaker.trips)})

    # ------------------------------------------------------------------
    def _admit_at(self, job: Job) -> None:
        if self.pool_down and job.deadline_cycles > 0:
            # Arrived mid-outage: infrastructure loss alone is never a
            # terminal verdict — hand the job to the fleet to re-route.
            # (Zero-deadline jobs fall through to the normal rejection:
            # no pool anywhere could serve them.)
            self._eject(_JobState(job), job.arrival_cycle)
            return
        try:
            self.admit(job, queue_length=len(self._waiting))
        except RejectedError as exc:
            self._resolve(JobResult(
                job_id=job.job_id, status=JobStatus.REJECTED,
                finish_cycle=job.arrival_cycle, error=str(exc)))
            if self.pool.tracer is not None:
                self.pool.tracer.instant_event(
                    f"reject#{job.job_id}", "reject", job.arrival_cycle,
                    self.pool.track("scheduler"))
            return
        state = _JobState(job)
        self._states[job.job_id] = state
        self._waiting.append(state)
        self.queue_peak = max(self.queue_peak, len(self._waiting))
        self.events.push(state.deadline_at, EventKind.DEADLINE_EXPIRY,
                         job.job_id)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, now: float) -> None:
        """Place/finalise every job actionable at ``now``."""
        waiting = self._waiting
        pool = self.pool
        while True:
            eligible = [s for s in waiting if s.ready <= now]

            # 1. Expire deadlines of queued jobs before placing work,
            # in service order.  Strictly past the deadline only: a job
            # whose deadline falls exactly on the current cycle may
            # still be placed — the completion path uses the same
            # strict comparison, so a job finishing exactly at its
            # deadline is OK, not TIMEOUT.
            expired = [s for s in eligible if now > s.deadline_at]
            if expired:
                _service_order(expired)
                for state in expired:
                    waiting.remove(state)
                    self._finalize_timeout(state, now)
                continue
            if not eligible:
                return

            # ``available`` folds the lifecycle state (crashed or
            # hanging devices refuse) into the breaker gate; chaos-free
            # it reduces to exactly the old ``breaker.allows``.  Only
            # live devices can be free: retired slots never serve.
            free = [d for d in pool.live
                    if d.busy_until <= now and d.available(now)]
            # Total outage: every device is out of service (crashed or
            # breaker-open).  A hanging device does not count: its
            # queued work will still run.
            outage = not free and pool.refusing(now) == len(pool)
            if not free and not outage:
                return  # idle wake: nothing placeable or sheddable
            _service_order(eligible)

            # 2. Total outage: shed the head-of-line job to the
            # reference path immediately instead of queueing against a
            # pool that is entirely sick.
            if outage:
                state = eligible[0]
                waiting.remove(state)
                self._degrade(state, now)
                continue

            # 3. Place the best job on the best untried free device.
            for state in eligible:
                candidates = [d for d in free
                              if d.device_id not in state.tried]
                if not candidates:
                    continue
                # Least-loaded routing, id tie-break.  Deliberately
                # health-blind: the breaker is the health gate, and
                # biasing placement away from a shaky-but-closed device
                # would starve its window below min_samples so it could
                # never actually trip.
                device = min(candidates,
                             key=lambda d: (d.busy_cycles, d.device_id))
                batch = self._coalesce(state, device, eligible, now)
                for member in batch:
                    waiting.remove(member)
                self._launch(batch, device, now)
                break
            else:
                return  # nothing placeable until the next event

    def _coalesce(self, lead: _JobState, device: Device,
                  eligible: List[_JobState],
                  now: float) -> List[_JobState]:
        """Greedy batch formation around the job about to dispatch.

        Queued jobs with the lead's exact ``(dataset, scale, kernel)``
        fuse into one multi-RHS dispatch, scanned in the same
        deterministic service order the lead was chosen by and bounded
        by ``max_batch``.  Only streaming kernels batch (``pcg``
        iterates internally).  A candidate joins only while *every*
        member — lead included — still clears the golden service time
        of the grown batch before its deadline: batching trades a
        slightly longer fused attempt for the amortized stream, and a
        deadline-tight job must not pay that trade.
        """
        job = lead.job
        if self.config.max_batch <= 1 or job.kernel not in BATCHABLE_KERNELS:
            return [lead]
        key = (job.dataset, job.scale, job.kernel)
        batch = [lead]
        for cand in eligible:
            if len(batch) >= self.config.max_batch:
                break
            if cand is lead:
                continue
            cj = cand.job
            if (cj.dataset, cj.scale, cj.kernel) != key:
                continue
            if device.device_id in cand.tried:
                continue
            est = self.pool.nominal_batch_cycles(job, len(batch) + 1)
            if any(now + est > s.deadline_at for s in batch):
                # Growing the batch at all would blow a member's
                # deadline; no later candidate can make it cheaper.
                break
            if now + est > cand.deadline_at:
                continue  # too tight for this candidate alone
            batch.append(cand)
        return batch

    # ------------------------------------------------------------------
    # One dispatch path, one settle path
    # ------------------------------------------------------------------
    def _launch(self, states: List[_JobState], device: Device,
                now: float, hedge: bool = False) -> None:
        """Dispatch a solo job, a fused batch or a hedge twin.

        Each member consumes one attempt and marks the device tried;
        the breaker sees one dispatch, because a batch's members share
        one payload stream and so one fault exposure.  The outcome is
        drawn here — fault streams are the same under both settle
        timings — and applied by :meth:`_settle`: at once under the
        eager timing, with the breaker verdict on the dispatch cycle,
        or at the flight's ``DISPATCH_COMPLETE`` under the lifecycle
        timing, so chaos and hedging can intervene while it is in
        flight.
        """
        jobs = [s.job for s in states]
        for s in states:
            s.attempts += 1
            s.tried.add(device.device_id)
            # A timer armed by an earlier solo attempt must not hedge
            # this one; only a solo primary arms a fresh timer below.
            s.hedge_event = None
        device.breaker.on_dispatch(now)
        try:
            if len(jobs) == 1:
                att = device.attempt(jobs[0], self.pool, now=now)
            else:
                att = device.attempt_batch(jobs, self.pool, now=now)
        except ReproError as exc:
            # Not a device fault — the job itself is unserviceable
            # (unknown dataset/kernel, bad config).  No retry can help.
            # The dispatch says nothing about device health either, so
            # a half-open probe it claimed is released rather than
            # resolved: leaving it in flight would wedge the breaker
            # half-open forever and the device would never take
            # traffic again.
            device.breaker.release_probe()
            if hedge:
                # The primary dispatched the same job fine, so this is
                # unreachable in practice; refund the slot rather than
                # fail a job that still has a live primary.
                states[0].attempts -= 1
                states[0].tried.discard(device.device_id)
                return
            for s in states:
                self._resolve(JobResult(
                    job_id=s.job.job_id, status=JobStatus.FAILED,
                    device_id=device.device_id, attempts=s.attempts,
                    finish_cycle=now,
                    error=f"{type(exc).__name__}: {exc}"))
            return
        finish = now + att.cycles
        device.busy_until = finish
        device.busy_cycles += att.cycles
        event = self.events.push(finish, EventKind.DISPATCH_COMPLETE,
                                 device.device_id)
        if not self._lifecycle:
            self._settle(states, att, device, now, finish, now, hedge)
            return
        flight = _Flight(states, att, device, now, finish, hedge, event)
        device.inflight = flight
        for s in states:
            s.flights.append(flight)
        self._inflight += 1
        if hedge:
            self.hedges_launched += 1
            if self.pool.tracer is not None:
                self.pool.tracer.instant_event(
                    f"hedge#{jobs[0].job_id}", "hedge", now,
                    self.pool.track("scheduler"))
        elif (len(jobs) == 1 and self.config.hedge_after is not None
              and len(self.pool) > 1):
            # Batched flights never hedge — one speculative duplicate
            # of a k-wide panel would double the panel's stream cost
            # for one straggler's tail.
            hedge_at = (now + self.config.hedge_after
                        * self.pool.nominal_cycles(jobs[0]))
            states[0].hedge_event = self.events.push(
                hedge_at, EventKind.HEDGE_TIMER, jobs[0].job_id)

    def _settle(self, states: List[_JobState], att, device: Device,
                start: float, end: float, verdict_at: float,
                hedge: bool) -> None:
        """Apply an attempt's outcome: span, breaker verdict, then
        results — or retry/degrade — per member.

        ``end`` is the cycle the attempt released the device: its
        answers' finish cycle, or when a faulted member may retry.
        ``verdict_at`` is when the breaker hears of a fault: the
        dispatch cycle under the eager timing, ``end`` under the
        lifecycle timing (a hang may have stretched the flight).  On
        success any twin still racing for a member is cancelled —
        first verified answer wins; on a fault a member whose twin is
        still racing waits for it instead of retrying.
        """
        jobs = [s.job for s in states]
        device.record_flight(jobs, self.pool, start, end, ok=att.ok,
                             error=att.error)
        if not att.ok:
            # One breaker outcome for the whole dispatch, then each
            # member retries elsewhere or degrades on its own attempt
            # budget.  The breaker opens at ``verdict_at`` so its
            # cooldown is measured purely in simulated time.
            self._on_attempt_failure(device, verdict_at)
            for s in states:
                if s.flights:
                    continue
                if (s.attempts >= self.config.max_attempts
                        or self.pool.untried_targets(s.tried) == 0):
                    self._degrade(s, end, last_error=att.error,
                                  device_id=device.device_id)
                else:
                    self._requeue(s, end)
            return
        device.breaker.on_success()
        if hedge:
            self.hedges_won += 1
        if len(jobs) > 1:
            self.batches += 1
            self.batched_jobs += len(jobs)
            solo_bytes = self.pool.nominal_dram_bytes(jobs[0])
            self.stream_bytes_saved += max(
                0.0, solo_bytes * len(jobs) - att.dram_bytes)
        for col, s in enumerate(states):
            job = s.job
            latency = end - job.arrival_cycle
            status, error = deadline_verdict(job, latency)
            if att.values is None:
                crc = 0
            elif len(jobs) > 1:
                crc = value_crc(att.values[:, col])
            else:
                crc = value_crc(att.values)
            self._resolve(JobResult(
                job_id=job.job_id, status=status,
                device_id=device.device_id, attempts=s.attempts,
                latency_cycles=latency, finish_cycle=end,
                value_crc=crc, batch_size=len(jobs), error=error,
                hedged=hedge))
            for loser in list(s.flights):
                # A race loss says nothing about device health: the
                # loser's claimed half-open probe is released, not
                # resolved, and the attempt stays counted.
                loser.device.breaker.release_probe()
                self._truncate(loser, end, "hedge race lost",
                               cat="hedge_cancelled")
                if self.pool.tracer is not None:
                    self.pool.tracer.instant_event(
                        f"hedge_cancel#{job.job_id}", "hedge_cancel",
                        end, self.pool.track("scheduler"))

    def _on_attempt_failure(self, device: Device, now: float) -> None:
        """Feed the breaker; if this failure tripped it, schedule the
        cooldown-elapsed probe opportunity as an event."""
        device.breaker.on_failure(now)
        reopen = device.breaker.reopen_at
        if reopen is not None:
            self.events.push(reopen, EventKind.BREAKER_REOPEN,
                             device.device_id)

    def _requeue(self, state: _JobState, ready: float) -> None:
        """Put a faulted job back in the queue, dispatchable at
        ``ready`` (the cycle its failed attempt released the device)."""
        state.ready = ready
        self._waiting.append(state)
        self.queue_peak = max(self.queue_peak, len(self._waiting))
        self.events.push(ready, EventKind.RETRY_READY, state.job.job_id)

    # ------------------------------------------------------------------
    # Lifecycle timing: deferred flights, hedging, chaos
    # ------------------------------------------------------------------
    def _complete(self, device: Device, now: float) -> None:
        """Settle the device's deferred flight at its completion.

        An eager attempt settled at dispatch, so its completion is a
        pure wake.
        """
        flight = device.inflight
        if flight is None:
            return
        device.inflight = None
        self._inflight -= 1
        for s in flight.states:
            s.flights.remove(flight)
        self._settle(flight.states, flight.att, device, flight.start,
                     now, now, flight.hedge)

    def _truncate(self, flight: _Flight, now: float, error: str,
                  cat: str = "voided") -> List[_JobState]:
        """Cut a deferred flight short at ``now``.

        The device is trimmed to the cycles actually occupied, the
        flight's completion event is stranded (lazy deletion) and the
        cut span is recorded as ``cat``.  A ``voided`` attempt — work a
        device crash or pool outage destroyed — is also uncharged:
        each member's attempt-budget slot is refunded and the device
        leaves its ``tried`` set, so even a one-device pool can retry
        after recovery.  A cancelled hedge loser stays counted.
        Returns the members left with neither a live flight nor a
        result, for the caller to requeue or hand back.
        """
        device = flight.device
        device.busy_cycles -= flight.finish - now
        device.busy_until = now
        device.inflight = None
        self._inflight -= 1
        device.record_flight([s.job for s in flight.states], self.pool,
                             flight.start, now, ok=False, error=error,
                             cat=cat)
        orphans = []
        for s in flight.states:
            s.flights.remove(flight)
            if cat == "voided":
                s.attempts -= 1
                s.tried.discard(device.device_id)
            if not s.flights and s.job.job_id not in self._results:
                orphans.append(s)
        return orphans

    def _launch_hedge(self, state: _JobState, now: float) -> None:
        """Launch the speculative duplicate a HEDGE_TIMER asked for.

        Skipped silently when no healthy, free, untried device exists —
        the timer is consumed either way (one hedge opportunity per
        dispatch, not a standing order).
        """
        state.hedge_event = None
        free = [d for d in self.pool.live
                if d.busy_until <= now and d.available(now)
                and d.device_id not in state.tried]
        if free:
            device = min(free, key=lambda d: (d.busy_cycles, d.device_id))
            self._launch([state], device, now, hedge=True)

    def _schedule_incident(self, device: Device, now: float) -> None:
        """Draw the device's next incident and push its onset event."""
        if device.chaos is None:
            return
        inc = device.chaos.next_incident(now)
        if inc is None:
            return
        self._incidents[device.device_id] = inc
        kind = (EventKind.DEVICE_CRASH if inc.kind == "crash"
                else EventKind.DEVICE_HANG)
        self.events.push(inc.at, kind, device.device_id)

    def _apply_crash(self, device: Device, now: float) -> None:
        """The device dies until its incident's recovery cycle.

        In-flight work is *voided* — lost, not failed (see
        :meth:`_truncate`) — and each orphaned job requeues
        immediately unless a hedge twin is still racing for it.  The
        breaker is quarantined, not tripped: the outage is a known
        lifecycle fact, not an inferred health verdict.
        """
        inc = self._incidents[device.device_id]
        if self.pool_down:
            # The pool is already dark, so there is nothing to void —
            # but the device now has its own crash to recover from:
            # readmission must no longer restore it (its DEVICE_RECOVER
            # will, through the normal quarantine-release path).
            self._outage_held.discard(device.device_id)
        device.up = False
        device.crashes += 1
        self.crashes += 1
        device.downtime_cycles += inc.until - now
        device.breaker.force_open(now)
        self.events.push(inc.until, EventKind.DEVICE_RECOVER,
                         device.device_id)
        if self.pool.tracer is not None:
            self.pool.tracer.add(
                f"crash#{device.device_id}.{device.crashes}", "crash",
                now, inc.until, self.pool.track("chaos"),
                args={"device": float(device.device_id)})
        if device.inflight is not None:
            for s in self._truncate(device.inflight, now,
                                    "device crashed mid-attempt"):
                self._requeue(s, now)

    def _apply_hang(self, device: Device, now: float) -> None:
        """The device stalls until the incident clears.

        In-flight work is slowed, not lost: the flight's completion
        (and the device's busy horizon) slides out by the stall, its
        superseded completion event left to die stale.  The stall is
        real occupancy — the job sat on the device — so it is charged
        to ``busy_cycles`` and spanned accordingly.
        """
        inc = self._incidents[device.device_id]
        device.hangs += 1
        self.hangs += 1
        device.hang_until = inc.until
        device.downtime_cycles += inc.until - now
        self.events.push(inc.until, EventKind.DEVICE_RECOVER,
                         device.device_id)
        if self.pool.tracer is not None:
            self.pool.tracer.add(
                f"hang#{device.device_id}.{device.hangs}", "hang",
                now, inc.until, self.pool.track("chaos"),
                args={"device": float(device.device_id)})
        flight = device.inflight
        if flight is None:
            return
        delta = inc.until - now
        flight.finish += delta
        device.busy_until += delta
        device.busy_cycles += delta
        flight.complete_event = self.events.push(
            flight.finish, EventKind.DISPATCH_COMPLETE,
            device.device_id)

    def _apply_recover(self, device: Device, now: float) -> None:
        """End the device's current incident and draw its next one.

        A crashed device comes back with its breaker released from
        quarantine into an immediately-probeable open state: the next
        dispatch runs as the half-open probe, whose outcome decides
        whether the device rejoins — recovery is *verified*, never
        assumed.  A hang clears implicitly (``hang_until`` is now in
        the past).  A retired device's recovery still lands, but it
        draws no next incident: hardware that has left service no
        longer crashes or hangs.
        """
        self.recoveries += 1
        if self.pool_down:
            # The pool is dark: whatever this incident was, the device
            # stays held by the outage — recorded so readmission
            # restores it along with the rest of the pool.
            self._outage_held.add(device.device_id)
        elif not device.up:
            device.up = True
            device.breaker.end_quarantine(now)
        if not device.retired:
            self._schedule_incident(device, now)

    # ------------------------------------------------------------------
    # Elastic capacity: SCALE_EVAL / DEVICE_ADD / DEVICE_DRAIN
    # ------------------------------------------------------------------
    def _scale_eval(self, now: float) -> None:
        """One autoscaler sample: decide, apply, re-arm the cadence."""
        scaler = self.autoscaler
        cfg = scaler.config
        if not self.pool_down:
            action = scaler.decide(now, len(self._waiting), self.pool)
            if action == "up":
                scaler.scale_ups += 1
                scaler.last_action_cycle = now
                key = len(self.pool.devices) + scaler.pending_adds
                scaler.pending_adds += 1
                if cfg.provision_cycles > 0:
                    self.events.push(now + cfg.provision_cycles,
                                     EventKind.DEVICE_ADD, key)
                else:
                    # A zero provisioning delay lands the device at the
                    # decision cycle; applied inline because an event
                    # pushed at the current cycle would strand (the
                    # coincident batch is already drained).
                    self._apply_device_add(now)
            elif action == "down":
                target = min((d for d in self.pool.live if not d.draining),
                             key=lambda d: (d.busy_cycles, d.device_id))
                scaler.scale_downs += 1
                scaler.last_action_cycle = now
                self._start_drain(target, now)
        if self.pending():
            self.events.push(now + cfg.eval_interval_cycles,
                             EventKind.SCALE_EVAL, 0)

    def _apply_device_add(self, now: float) -> None:
        """Land a decided scale-up: the DEVICE_ADD's provisioning delay
        elapsed, so the device joins (store-primed) and takes traffic
        from this cycle on."""
        scaler = self.autoscaler
        scaler.pending_adds -= 1
        device = self._provision_device(now)
        if self.pool_down:
            # Provisioned into a pool-wide outage: the newcomer is held
            # dark with its siblings and readmission restores it.
            device.up = False
            device.breaker.force_open(now)
            self._outage_held.add(device.device_id)
        if self.pool.tracer is not None:
            self.pool.tracer.instant_event(
                f"scale_up#{device.device_id}", "scale_up", now,
                self.pool.track("autoscale"))

    def _provision_device(self, now: float) -> Device:
        """Add one device to the pool (bootstrap grow or scale-up)."""
        device = self.pool.add_device()
        self.autoscaler.devices_added += 1
        self.autoscaler.note_capacity(now, +1)
        self._prime_device(device, now)
        if self.pool.chaos is not None:
            self._schedule_incident(device, now)
        return device

    def _prime_device(self, device: Device, now: float) -> None:
        """Bind a fresh device to every workload its siblings served.

        The images are the pool's, already programmed, so priming
        programs and compiles nothing: the newcomer binds them before
        it takes traffic.  ``prime_hits`` counts the images bound — one
        per spmv or symgs workload, three per pcg workload — which is
        the number of store hits the same pass made when every device
        programmed its own images.  A storeless pool (or ``model``
        execution, which never binds) skips priming and counts nothing.
        """
        pool = self.pool
        if pool.artifact_store is None or pool.execution != "simulate":
            return
        for dataset, scale, kernel in pool.workloads_seen:
            job = Job(job_id=-1, kernel=kernel, dataset=dataset,
                      scale=scale, arrival_cycle=now,
                      deadline_cycles=1.0)
            device._executor(job, pool)
            self.autoscaler.prime_hits += len(workload_programs(kernel))

    def _start_drain(self, device: Device, now: float) -> None:
        """Begin drain-before-remove on a scale-down target.

        The device takes no new placements from this cycle on
        (``available`` is False while draining); in-flight work — the
        eager timing's busy horizon or a deferred flight — finishes
        first, then the DEVICE_DRAIN retires it.  An idle target
        retires immediately.
        """
        device.draining = True
        device.drain_began = now
        if self.pool.tracer is not None:
            self.pool.tracer.instant_event(
                f"scale_down#{device.device_id}", "scale_down", now,
                self.pool.track("autoscale"))
        if device.busy_until <= now and device.inflight is None:
            self._retire(device, now)
        else:
            device.drain_event = self.events.push(
                max(device.busy_until, now), EventKind.DEVICE_DRAIN,
                device.device_id)

    def _retire(self, device: Device, now: float) -> None:
        """Finish a drain: the device leaves service permanently.

        :meth:`DevicePool.retire` keeps the slot in ``pool.devices``
        (event keys index the list) but drops it from the live-device
        index, so no per-wake scan sees it again.  The trace records
        the drain window on the ``autoscale`` track — the span the
        ``check_no_service_on_draining_device`` invariant audits job
        placements against.
        """
        self.pool.retire(device)
        device.drain_event = None
        self.autoscaler.devices_retired += 1
        self.autoscaler.note_capacity(now, -1)
        if self.pool.tracer is not None:
            self.pool.tracer.add(
                f"drain#{device.device_id}", "drain",
                device.drain_began, max(now, device.drain_began),
                self.pool.track("autoscale"),
                args={"device": float(device.device_id)})

    def _resolve(self, result: JobResult) -> None:
        """Record a job's terminal result and free its scheduling state.

        A resolved job's HEDGE_TIMER is already dead (no live flight
        is left to hedge), and nothing else looks a state up by id.
        """
        self._results[result.job_id] = result
        self._states.pop(result.job_id, None)

    def _finalize_timeout(self, state: _JobState, now: float) -> None:
        job = state.job
        err = DeadlineError(
            f"job {job.job_id}: deadline of {job.deadline_cycles:.0f} "
            f"cycles expired at cycle {now:.0f} before execution")
        self._resolve(JobResult(
            job_id=job.job_id, status=JobStatus.TIMEOUT,
            attempts=state.attempts,
            latency_cycles=now - job.arrival_cycle,
            finish_cycle=now, error=str(err)))
        if self.pool.tracer is not None:
            self.pool.tracer.instant_event(
                f"timeout#{job.job_id}", "timeout", now,
                self.pool.track("scheduler"))

    def _degrade(self, state: _JobState, start: float,
                 last_error: str = "", device_id: int = -1) -> None:
        """Resolve a job on the reference path (see
        :meth:`reference_answer`); its span lands on this pool's
        ``reference`` track."""
        self._resolve(self.reference_answer(
            state.job, start, state.attempts,
            self.pool.track("reference"), last_error, device_id))

    def reference_answer(self, job: Job, start: float, attempts: int,
                         track: str, last_error: str = "",
                         device_id: int = -1, **placement) -> JobResult:
        """Answer ``job`` on the reference path from ``start``.

        The answer is priced at ``reference_slowdown`` × the workload's
        nominal cycles and explicitly marked ``DEGRADED`` — or
        ``TIMEOUT`` under the same :func:`deadline_verdict` every
        completion path applies, the reference answer still attached.
        A job no path can answer is ``FAILED``, naming ``device_id`` and
        ``last_error``.  The ``degraded`` span lands on ``track``;
        ``placement`` (a fleet's ``pool_id`` and ``reroutes``) is copied
        onto the result.
        """
        try:
            values = self.pool.reference_values(job)
        except Exception as exc:  # no path can answer this job
            detail = f"{type(exc).__name__}: {exc}"
            if last_error:
                detail += f" (after {last_error})"
            return JobResult(
                job_id=job.job_id, status=JobStatus.FAILED,
                device_id=device_id, attempts=attempts,
                finish_cycle=start, error=detail, **placement)
        slowdown = self.config.reference_slowdown
        finish = start + self.pool.nominal_cycles(job) * slowdown
        latency = finish - job.arrival_cycle
        status, error = deadline_verdict(job, latency, JobStatus.DEGRADED,
                                         last_error)
        if self.pool.tracer is not None:
            self.pool.tracer.add(
                f"{job.kernel}#{job.job_id}", "degraded", start, finish,
                track, args={"slowdown": slowdown})
        return JobResult(
            job_id=job.job_id, status=status, attempts=attempts,
            latency_cycles=latency, finish_cycle=finish,
            value_crc=value_crc(values), error=error, **placement)

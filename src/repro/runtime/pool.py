"""Device pool: health tracking and circuit breaking per device.

A :class:`DevicePool` replicates the single-accelerator substrate into
``n_devices`` independent :class:`Device` instances.  Each device owns

* its own :class:`~repro.sim.faults.FaultModel`, seeded via
  :meth:`~repro.sim.faults.FaultModel.spawn` so fault histories are
  independent yet reproducible from one pool seed;
* its bindings of the pool's programmed images, one per ``(dataset,
  scale, kernel)`` workload it served — an accelerator carrying the
  device's fault model and its own cross-check state, but no
  programmed arrays;
* a :class:`HealthWindow` of recent job outcomes and a
  :class:`CircuitBreaker` driven by it.

Programming is a one-time cost per *pool*, not per device: the pool
keeps one table of :class:`~repro.core.accelerator.ProgrammedImage`\ s
keyed by ``(dataset, scale, program)`` (see :meth:`DevicePool.image`),
and every device, the golden pricing device and every pcg job binds
from it.  A fleet hands all its pools one table, since they share one
compile configuration.  The table lives and dies with its pool or
fleet, so a fresh pool programs (and, against an empty store,
compiles) afresh.

The breaker is the classic closed → open → half-open machine, with one
twist: its cooldown is charged in *simulated cycles* against the pool's
scheduler clock, never wall time, so breaker behaviour is deterministic
per seed and unit-testable without sleeping.

The pool also owns the *golden* side: a fault-free accelerator per
workload for nominal service-time estimates, and the reference-kernel
execution used for graceful degradation.  Degraded answers are computed
by the same golden kernels the test suite validates against, so a
``DEGRADED`` result is numerically correct by construction.
"""

from __future__ import annotations

import random
import zlib
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.core import Alrescha, AlreschaConfig, ProgrammedImage
from repro.errors import ConfigError, CorruptionError, FaultError
from repro.runtime.jobs import JOB_KERNELS, Job
from repro.sim.chaos import ChaosModel
from repro.sim.faults import FaultModel

#: Breaker defaults: open once >= half the last 8 jobs failed (with at
#: least 4 observed), cool down for 8k simulated cycles (a handful of
#: job service times), then probe.
DEFAULT_HEALTH_WINDOW = 8
DEFAULT_FAILURE_THRESHOLD = 0.5
DEFAULT_MIN_SAMPLES = 4
DEFAULT_COOLDOWN_CYCLES = 8_000.0

#: Cycle cost multiplier of the software reference path relative to the
#: accelerator's nominal cycles (the degradation latency model).
DEFAULT_REFERENCE_SLOWDOWN = 8.0

#: Bound on the pool's operand LRU cache, in vectors.  Retried and
#: batched attempts of one job land within a handful of dispatches, so
#: a small bound keeps the hit rate while capping memory on
#: million-job traces.
DEFAULT_OPERAND_CACHE = 1024

#: Execution modes of a pool.  ``simulate`` runs the real accelerator
#: per attempt (cycle- and value-exact).  ``model`` prices attempts
#: from the golden nominal-cycle caches without running kernels or
#: materialising answers (``values=None``, so results carry
#: ``value_crc=0``) — the scheduler sees the same event stream at a
#: tiny fraction of the cost, which is what the trace-scale scheduler
#: load benchmarks need.  Faults in ``model`` mode are a seeded
#: per-attempt Bernoulli draw at the device's fault-model rate.
EXECUTION_MODES = ("simulate", "model")

#: Kernels whose attempts may be fused into one multi-RHS dispatch.
#: Single streaming passes amortize their payload stream across
#: operands; ``pcg`` iterates internally with data-dependent control
#: flow, so it always dispatches solo.
BATCHABLE_KERNELS = ("spmv", "symgs")


def workload_programs(kernel: str) -> Tuple[str, ...]:
    """The programs (:data:`~repro.solvers.backends.PCG_PROGRAMS`
    names) a job of ``kernel`` binds: its own for spmv and symgs; SpMV,
    SymGS and reversed SymGS for pcg, the first two shared with the
    spmv and symgs jobs on the same dataset."""
    if kernel == "pcg":
        from repro.solvers.backends import PCG_PROGRAMS
        return PCG_PROGRAMS
    if kernel in ("spmv", "symgs"):
        return (kernel,)
    raise ConfigError(
        f"unknown job kernel {kernel!r}; known: {JOB_KERNELS}")


def value_crc(values: np.ndarray) -> int:
    """CRC32 of an answer vector's exact float64 bytes."""
    return zlib.crc32(
        np.ascontiguousarray(values, dtype=np.float64).tobytes())


def _solo_call(exe, kernel: str, operands: List[np.ndarray]):
    """One job's kernel on its bound executor: ``(values, report)``."""
    (operand,) = operands
    if kernel == "spmv":
        return exe.run_spmv(operand)
    if kernel == "symgs":
        return exe.run_symgs_sweep(operand, np.zeros(operand.size))
    # pcg: binding the executor already rejected any other kernel.
    from repro.solvers import pcg
    exe.reset_reports()
    result = pcg(exe, operand, tol=1e-6, max_iter=25,
                 checkpoint_interval=5, max_restarts=2)
    return result.x, result.report


def _panel_call(exe, kernel: str, operands: List[np.ndarray]):
    """A fused batch's kernel over the ``(n, k)`` operand panel:
    ``(values, report)``, one answer column per operand."""
    panel = np.stack(operands, axis=1)
    if kernel == "spmv":
        return exe.run_spmv_batch(panel)
    if kernel == "symgs":
        return exe.run_symgs_batch(panel, np.zeros_like(panel))
    raise ConfigError(
        f"kernel {kernel!r} does not support batched dispatch; "
        f"batchable: {BATCHABLE_KERNELS}")


class HealthWindow:
    """Rolling window of job outcomes on one device."""

    def __init__(self, size: int = DEFAULT_HEALTH_WINDOW) -> None:
        if size <= 0:
            raise ConfigError(f"health window must be positive, got {size}")
        self._window: Deque[bool] = deque(maxlen=size)
        self.successes = 0
        self.failures = 0

    def record(self, ok: bool) -> None:
        self._window.append(ok)
        self.tally(ok)

    def tally(self, ok: bool) -> None:
        """Bump the lifetime totals without touching the rolling window.

        For outcomes that must not influence the trip decision — e.g. a
        verdict landing while the breaker is open (no dispatched
        traffic should exist then, so a stray one must not pre-poison
        the fresh-start window the next probe inherits).
        """
        if ok:
            self.successes += 1
        else:
            self.failures += 1

    @property
    def samples(self) -> int:
        return len(self._window)

    @property
    def failure_rate(self) -> float:
        """Failure fraction over the rolling window (0.0 when empty)."""
        if not self._window:
            return 0.0
        return sum(1 for ok in self._window if not ok) / len(self._window)

    def reset(self) -> None:
        """Forget the window (a recovered device starts clean)."""
        self._window.clear()


class CircuitBreaker:
    """Closed → open → half-open breaker on simulated cycles.

    * **closed** — traffic flows; every outcome feeds the health window.
      When the window holds ``min_samples`` or more outcomes and its
      failure rate reaches ``failure_threshold``, the breaker opens.
    * **open** — the device takes no traffic until ``cooldown_cycles``
      of simulated time have elapsed since it opened.
    * **half-open** — exactly one probe job is admitted.  Success closes
      the breaker (window reset); failure re-opens it for a fresh
      cooldown.
    """

    def __init__(self, health: HealthWindow,
                 failure_threshold: float = DEFAULT_FAILURE_THRESHOLD,
                 min_samples: int = DEFAULT_MIN_SAMPLES,
                 cooldown_cycles: float = DEFAULT_COOLDOWN_CYCLES) -> None:
        if not 0.0 < failure_threshold <= 1.0:
            raise ConfigError("failure_threshold must be in (0, 1], got "
                              f"{failure_threshold}")
        if cooldown_cycles <= 0:
            raise ConfigError("cooldown_cycles must be positive, got "
                              f"{cooldown_cycles}")
        if min_samples < 1:
            # Used to be silently clamped to 1, which hid a
            # misconfiguration: a breaker that trips on a single
            # failure is almost never what min_samples=0 meant.
            raise ConfigError(
                f"min_samples must be >= 1, got {min_samples}")
        self.health = health
        self.failure_threshold = failure_threshold
        self.min_samples = min_samples
        self.cooldown_cycles = cooldown_cycles
        self.state = "closed"
        self.opened_at = 0.0
        self.trips = 0
        self._probe_in_flight = False
        #: Force-open hold (device crashed): while set, the breaker
        #: refuses traffic regardless of elapsed cooldown — only
        #: :meth:`end_quarantine` (device recovery) releases it.
        self.quarantined = False

    # ------------------------------------------------------------------
    def allows(self, now: float) -> bool:
        """Whether a job may be dispatched to this device at ``now``.

        Pure: an open breaker past its cooldown *reports* the probe
        slot as available, but the open → half-open transition happens
        only in :meth:`on_dispatch` — metric and introspection queries
        (e.g. :meth:`DevicePool.refusing`) never change state.
        """
        if self.quarantined:
            return False
        if self.state == "closed":
            return True
        if self.state == "half_open":
            return not self._probe_in_flight
        return now >= self.opened_at + self.cooldown_cycles

    @property
    def reopen_at(self) -> Optional[float]:
        """Cycle at which an open breaker becomes probeable (else None).

        ``None`` while quarantined: a crashed device's reopen cycle is
        its recovery, which only :meth:`end_quarantine` knows.
        """
        if self.state != "open" or self.quarantined:
            return None
        return self.opened_at + self.cooldown_cycles

    def force_open(self, now: float) -> None:
        """Quarantine: hold the breaker open until :meth:`end_quarantine`.

        Used when the *device* is known down (lifecycle crash) rather
        than inferred sick from outcomes: no cooldown clock applies and
        no probe is admitted while the hold lasts.  Not counted as a
        trip — crashes are tallied separately.
        """
        self.state = "open"
        self.opened_at = now
        self._probe_in_flight = False
        self.quarantined = True

    def end_quarantine(self, now: float) -> None:
        """Release a quarantine hold: the device recovered at ``now``.

        The breaker stays *open* but immediately probeable — the next
        dispatch transitions it half-open and the probe's outcome
        decides recovery, exactly like a cooldown that elapsed at the
        recovery cycle.
        """
        if not self.quarantined:
            return
        self.quarantined = False
        self.state = "open"
        self.opened_at = now - self.cooldown_cycles

    def on_dispatch(self, now: float) -> None:
        """A job was placed on the device at cycle ``now``.

        This is the explicit transition step :meth:`allows` only
        reports on: an open breaker past its cooldown becomes
        half-open here, and the dispatched job claims the single
        half-open probe slot.
        """
        if (self.state == "open"
                and now >= self.opened_at + self.cooldown_cycles):
            self.state = "half_open"
            self._probe_in_flight = False
        if self.state == "half_open":
            self._probe_in_flight = True

    def release_probe(self) -> None:
        """Free the half-open probe slot without recording an outcome.

        For dispatches that die before producing a device verdict — an
        unserviceable job raising before the accelerator runs says
        nothing about device health, but the probe slot it claimed must
        not stay occupied forever.
        """
        if self.state == "half_open":
            self._probe_in_flight = False

    def on_success(self) -> None:
        if self.state == "open":
            # An open breaker admits no traffic, so a verdict landing
            # now is a straggler (e.g. a quarantined device's voided
            # work resolving late).  Count it in the lifetime totals
            # but keep it out of the rolling window: the window must
            # reflect only outcomes of admitted dispatches, or the
            # fresh start a successful probe grants is pre-poisoned.
            self.health.tally(True)
            return
        self.health.record(True)
        if self.state == "half_open":
            # Probe succeeded: recovered. Start from a clean window so
            # pre-outage history cannot immediately re-trip.
            self.state = "closed"
            self._probe_in_flight = False
            self.health.reset()

    def on_failure(self, now: float) -> None:
        if self.state == "open":
            # Same straggler rule as on_success: lifetime totals only,
            # and never extend the cooldown — re-stamping opened_at
            # from a verdict no dispatch produced would push the probe
            # opportunity out indefinitely.
            self.health.tally(False)
            return
        self.health.record(False)
        if self.state == "half_open":
            self._trip(now)
            return
        if (self.state == "closed"
                and self.health.samples >= self.min_samples
                and self.health.failure_rate >= self.failure_threshold):
            self._trip(now)

    def _trip(self, now: float) -> None:
        self.state = "open"
        self.opened_at = now
        self.trips += 1
        self._probe_in_flight = False


@dataclass
class Attempt:
    """Outcome of one accelerator attempt (never raises to callers)."""

    ok: bool
    #: Device-occupancy cycles of the attempt (service time, or wasted
    #: cycles of a failed attempt).
    cycles: float
    values: Optional[np.ndarray] = None
    error: str = ""
    #: DRAM traffic the attempt charged to the memory model (0 for a
    #: failed attempt).  For a batched attempt this is the whole
    #: batch's traffic — the payload stream appears once, not once per
    #: operand — which is what the scheduler's stream-savings
    #: accounting reads off.
    dram_bytes: float = 0.0


class Device:
    """One simulated accelerator with its own fault stream and breaker.

    The device holds no programmed state: it binds the pool's shared
    images the first time it serves each workload.
    """

    def __init__(self, device_id: int,
                 fault_model: Optional[FaultModel]) -> None:
        self.device_id = device_id
        self.fault_model = fault_model
        self.health = HealthWindow()
        self.breaker = CircuitBreaker(self.health)
        #: Simulated cycle at which the device next becomes idle.
        self.busy_until = 0.0
        self.busy_cycles = 0.0
        self.jobs_run = 0
        # ---- lifecycle state (driven by the scheduler's chaos events)
        #: False while crashed (between DEVICE_CRASH and DEVICE_RECOVER).
        self.up = True
        #: Cycle a current hang clears (0.0 when not hanging).
        self.hang_until = 0.0
        #: Total cycles spent crashed or hung, for :class:`DeviceStats`.
        self.downtime_cycles = 0.0
        self.crashes = 0
        self.hangs = 0
        #: Per-device :class:`~repro.sim.chaos.ChaosModel` sibling
        #: (None when the pool has no chaos configured).
        self.chaos = None
        # ---- elastic-capacity state (driven by the autoscaler)
        #: True once a scale-down picked this device: it finishes its
        #: in-flight work but takes no new placements.
        self.draining = False
        #: True once the drain completed; the device slot stays in
        #: ``pool.devices`` (event keys index it) but leaves
        #: ``pool.live`` and never serves.  Set only by
        #: :meth:`DevicePool.retire`.
        self.retired = False
        #: Cycle the drain decision landed (the begin of the trace's
        #: ``drain`` span; meaningful while draining/retired).
        self.drain_began = 0.0
        #: The live DEVICE_DRAIN event for this device, so a re-armed
        #: drain invalidates the superseded one (lazy deletion).
        self.drain_event = None
        #: The scheduler's in-flight record while an attempt is being
        #: deferred to its DISPATCH_COMPLETE (lifecycle mode only).
        self.inflight = None
        #: Dispatch cycle of the first attempt (None until one runs) —
        #: the begin of the device's trace summary span.
        self.first_dispatch: Optional[float] = None
        #: Per-workload bindings of the pool's images, carrying this
        #: device's fault model (see :meth:`_executor`).
        self._executors: Dict[Tuple[str, float, str], object] = {}
        #: Monotonic id of batched dispatches on this device; tags the
        #: member job spans of one fused attempt in the trace.
        self._batch_seq = 0
        #: Seeded Bernoulli stream for ``model``-mode fault draws
        #: (lazily created; independent of the real fault model's draw
        #: sequence but derived from the same device seed).
        self._model_rng: Optional[random.Random] = None

    # ------------------------------------------------------------------
    def available(self, now: float) -> bool:
        """Whether the device may accept a dispatch at ``now``.

        Combines the lifecycle state the chaos events drive (crashed or
        mid-hang devices refuse) with the elastic-capacity state the
        autoscaler drives (draining and retired devices take no new
        placements) and the breaker's verdict.  Busyness is
        deliberately *not* part of this: the scheduler separates
        "who is free" from "who is healthy".
        """
        return (self.up and not self.retired and not self.draining
                and now >= self.hang_until
                and self.breaker.allows(now))

    # ------------------------------------------------------------------
    def _executor(self, job: Job, pool: "DevicePool"):
        """This device's binding for the job's workload: an
        :class:`~repro.core.accelerator.Alrescha` (spmv, symgs) or an
        :class:`~repro.solvers.AcceleratorBackend` (pcg) on the pool's
        images, created on first use.  A real device records the
        workload for scale-up priming only once its images exist, so a
        workload that cannot be programmed is never primed."""
        key = (job.dataset, job.scale, job.kernel)
        exe = self._executors.get(key)
        if exe is None:
            images = [pool.image(job.dataset, job.scale, program)
                      for program in workload_programs(job.kernel)]
            config = AlreschaConfig(fault_model=self.fault_model,
                                    artifact_store=pool.artifact_store)
            if job.kernel == "pcg":
                from repro.solvers import AcceleratorBackend
                exe = AcceleratorBackend.bind(images, config)
            else:
                exe = Alrescha.bind(images[0], config)
            self._executors[key] = exe
            if self.device_id >= 0:
                pool.note_workload(key)
        return exe

    def _model_fault(self, pool: "DevicePool") -> bool:
        """``model``-mode fault draw: seeded Bernoulli at the device's
        fault-model rate (no fault model ⇒ never faults)."""
        fm = self.fault_model
        if fm is None or fm.rate <= 0.0:
            return False
        if self._model_rng is None:
            self._model_rng = random.Random(fm.seed)
        return self._model_rng.random() < fm.rate

    def attempt(self, job: Job, pool: "DevicePool",
                now: float = 0.0) -> Attempt:
        """Run one accelerator attempt; faults become a failed Attempt.

        The job's kernel runs solo (``run_spmv``, ``run_symgs_sweep``
        or a pcg solve).  ``now`` is the dispatch cycle on the
        scheduler clock, used only to stamp the device's first dispatch
        — it never changes the outcome.  Occupancy, failure pricing and
        ``model`` execution are :meth:`attempt_batch`'s too: both run
        one shared body.
        """
        return self._attempt([job], pool, now, _solo_call)

    def attempt_batch(self, jobs: "List[Job]", pool: "DevicePool",
                      now: float = 0.0) -> Attempt:
        """Run one fused multi-RHS attempt over same-workload jobs.

        The operand vectors stack into one ``(n, k)`` panel and the
        accelerator's batched path streams the programmed payload
        *once* for all of them.  ``values`` holds one answer column per
        job, in job order.  A fault fails the whole batch — one shared
        payload stream means one shared fault exposure.
        """
        return self._attempt(jobs, pool, now, _panel_call)

    def _attempt(self, jobs: "List[Job]", pool: "DevicePool", now: float,
                 kernel_call) -> Attempt:
        """The one attempt body: ``kernel_call(exe, kernel, operands)``
        runs the jobs' kernel, solo or over a panel.

        A failed attempt still occupied the device: it is charged the
        golden service time of the attempt's width plus every
        retry/backoff cycle the fault model logged during it.  In a
        ``model``-execution pool the attempt is priced from the golden
        caches instead of running the kernel (the golden pricing device
        itself always simulates): ``values`` is None, a modelled fault
        is a seeded Bernoulli draw charged one backoff budget's worth
        of retries, and a batch is charged the solo payload's DRAM bytes
        (it streams the payload once; the per-RHS vector traffic is
        negligible next to it).  No trace span is recorded: the
        scheduler records it through :meth:`record_flight` once the
        attempt's true extent is known (a hang may stretch it, a crash
        or hedge cancellation may cut it short).
        """
        lead = jobs[0]
        fm = self.fault_model
        simulate = pool.execution == "simulate" or self.device_id < 0
        if simulate:
            exe = self._executor(lead, pool)
            operands = [pool.operand(job) for job in jobs]
            retry_before = fm.total_retry_cycles if fm is not None else 0.0
        self.jobs_run += len(jobs)
        if self.first_dispatch is None:
            self.first_dispatch = now
        if simulate:
            try:
                values, report = kernel_call(exe, lead.kernel, operands)
            except (FaultError, CorruptionError) as exc:
                retried = ((fm.total_retry_cycles if fm is not None
                            else 0.0) - retry_before)
                error = f"{type(exc).__name__}: {exc}"
            else:
                return Attempt(ok=True, cycles=report.cycles,
                               values=values,
                               dram_bytes=report.counters.get("dram_bytes"))
        nominal = (pool.nominal_cycles(lead) if len(jobs) == 1
                   else pool.nominal_batch_cycles(lead, len(jobs)))
        if not simulate:
            if not self._model_fault(pool):
                return Attempt(ok=True, cycles=nominal,
                               dram_bytes=pool.nominal_dram_bytes(lead))
            retried = fm.backoff_cycles * (2 ** fm.max_retries - 1)
            error = "FaultError: modelled stream fault"
        return Attempt(ok=False, cycles=nominal + retried, error=error)

    def record_flight(self, jobs: "List[Job]", pool: "DevicePool",
                      begin: float, end: float, ok: bool,
                      error: str = "", cat: str = "job") -> None:
        """Record an attempt's spans at its *true* interval.

        Every span of scheduled work goes through here once the
        attempt's fate is known: ``cat="job"`` for attempts that ran to
        completion (hang-stretched ends included), ``"voided"`` for
        work a crash or pool outage destroyed, ``"hedge_cancelled"``
        for a speculative duplicate that lost the race, ``"probe"`` for
        a fleet readmission probe.  A completed batch adds one umbrella
        ``batch`` span; its id on the member spans is what lets the
        device-exclusivity invariant accept their deliberate overlap.
        Only ``"job"`` spans participate in that invariant, so the
        truncated non-job categories may share their interval freely.
        The golden pricing device (id -1) stays untraced: its runs are
        catalogue lookups, not scheduled work.
        """
        tracer = pool.tracer
        if tracer is None or self.device_id < 0 or end <= begin:
            return
        track = pool.track(f"device{self.device_id}")
        bid = None
        if len(jobs) > 1 and cat == "job":
            bid = self._batch_seq
            self._batch_seq += 1
            tracer.add(f"batch#{self.device_id}.{bid}", "batch",
                       begin, end, track,
                       args={"jobs": float(len(jobs)),
                             "kernel": jobs[0].kernel, "ok": ok})
        for job in jobs:
            args: Dict[str, object] = {"ok": ok, "dataset": job.dataset}
            if bid is not None:
                args["batch"] = float(bid)
                args["batch_size"] = float(len(jobs))
            if error:
                args["error"] = error
            tracer.add(f"{job.kernel}#{job.job_id}", cat, begin, end,
                       track, args=args)


class DevicePool:
    """N independently-seeded devices plus the shared golden side."""

    def __init__(self, n_devices: int, fault_rate: float = 0.0,
                 seed: int = 0, tracer=None, execution: str = "simulate",
                 operand_cache: int = DEFAULT_OPERAND_CACHE,
                 chaos: Optional["ChaosModel"] = None,
                 track_prefix: str = "",
                 artifact_store=None) -> None:
        if n_devices <= 0:
            raise ConfigError(
                f"device pool needs at least one device, got {n_devices}")
        if execution not in EXECUTION_MODES:
            raise ConfigError(
                f"unknown execution mode {execution!r}; "
                f"known: {EXECUTION_MODES}")
        if operand_cache <= 0:
            raise ConfigError(
                f"operand cache bound must be positive, got "
                f"{operand_cache}")
        #: ``simulate`` (real kernels) or ``model`` (golden-cache
        #: pricing for scheduler load tests) — see
        #: :data:`EXECUTION_MODES`.
        self.execution = execution
        #: Optional :class:`~repro.observe.tracer.Tracer` shared by the
        #: scheduler: job spans land on ``device<N>`` tracks, degraded
        #: fallbacks on ``reference``, shed jobs on ``scheduler``.
        self.tracer = tracer
        #: Prefix applied to every trace track this pool (and its
        #: scheduler) emits — ``"p2."`` turns ``device0`` into
        #: ``p2.device0``.  Empty for single-pool serving, so solo
        #: traces stay byte-identical; the fleet sets one per pool so
        #: N pools can share one tracer without track collisions.
        self.track_prefix = track_prefix
        base = (FaultModel(rate=fault_rate, seed=seed)
                if fault_rate > 0.0 else None)
        # Retained so an autoscaled :meth:`add_device` constructs device
        # N exactly as a pool built with N+1 devices would have.
        self._fault_base = base
        self.devices = [
            Device(i, base.spawn(i) if base is not None else None)
            for i in range(n_devices)
        ]
        #: The base lifecycle chaos model (None when not configured);
        #: each device carries an independently-seeded spawn.
        self.chaos = chaos if chaos is not None and chaos.rate > 0.0 \
            else None
        if self.chaos is not None:
            for i, device in enumerate(self.devices):
                device.chaos = self.chaos.spawn(i)
        #: The live-device index: every non-retired device (draining
        #: ones included), in id order.  ``devices`` stays the
        #: id-indexed slot list event keys index; the scheduler's
        #: per-wake scans walk this instead, so a wake's cost follows
        #: the devices in service, not every slot ever provisioned.
        #: Maintained only by :meth:`add_device` and :meth:`retire`.
        self.live: List[Device] = list(self.devices)
        self._nominal: Dict[Tuple[str, float, str], float] = {}
        self._nominal_bytes: Dict[Tuple[str, float, str], float] = {}
        self._nominal_batch: Dict[Tuple[str, float, str, int], float] = {}
        #: Bounded LRU of seeded operand vectors, keyed like the
        #: nominal caches plus the job seed — see :meth:`operand`.
        self._operands: "OrderedDict[Tuple[str, float, int], np.ndarray]" \
            = OrderedDict()
        self._operand_cache = operand_cache
        #: Optional :class:`~repro.store.ArtifactStore` shared by every
        #: device executor (and the golden device): programming-phase
        #: state resolves through it, so a primed store serves warm
        #: starts with zero compilations.  None is the storeless path,
        #: bit-identical to pre-store behaviour.
        self.artifact_store = artifact_store
        #: Programmed images keyed by ``(dataset, scale, program)``,
        #: programmed on first use by :meth:`image` and shared by every
        #: device binding (replaced by the fleet's table in a fleet).
        self.images: Dict[Tuple[str, float, str], ProgrammedImage] = {}
        #: ``(dataset, scale, kernel)`` workloads a real device has
        #: bound, in first-seen order — the priming list a store-backed
        #: scale-up binds a fresh device to.
        self.workloads_seen: "OrderedDict[Tuple[str, float, str], None]" \
            = OrderedDict()
        self._golden = Device(-1, None)

    def __len__(self) -> int:
        return len(self.devices)

    def note_workload(self, key: Tuple[str, float, str]) -> None:
        """Record that a real device bound ``key`` (idempotent)."""
        self.workloads_seen.setdefault(key)

    def image(self, dataset: str, scale: float,
              program: str) -> ProgrammedImage:
        """The shared image of one of
        :data:`~repro.solvers.backends.PCG_PROGRAMS` on a dataset,
        programmed (through the artifact store, if any) on first use."""
        key = (dataset, scale, program)
        image = self.images.get(key)
        if image is None:
            from repro.solvers.backends import program_image
            image = program_image(
                program, self.matrix(dataset, scale),
                AlreschaConfig(artifact_store=self.artifact_store),
                source={"dataset": dataset, "scale": scale})
            self.images[key] = image
        return image

    def add_device(self) -> Device:
        """Provision one more device, constructed as at pool build time.

        The new device gets the next sequential id, a fault model
        spawned from the same base as its siblings and, when chaos is
        configured, its own independently-seeded chaos sibling — so a
        device autoscaled in mid-run draws the same fault and incident
        streams a construction-time device with that id would have.
        Devices are never physically removed (heap event keys index
        ``pool.devices``); a drained device is retired in place by
        :meth:`retire` instead.
        """
        device_id = len(self.devices)
        device = Device(
            device_id,
            (self._fault_base.spawn(device_id)
             if self._fault_base is not None else None))
        if self.chaos is not None:
            device.chaos = self.chaos.spawn(device_id)
        self.devices.append(device)
        self.live.append(device)
        return device

    def retire(self, device: Device) -> None:
        """Take a drained device out of service for good.

        The slot stays in :attr:`devices` — event keys index it, and
        the report still lists its stats — but the device leaves the
        live-device index :attr:`live` and never serves again.
        """
        device.retired = True
        self.live.remove(device)

    def track(self, name: str) -> str:
        """A trace track name under this pool's prefix."""
        return self.track_prefix + name

    # ------------------------------------------------------------------
    # Shared golden side
    # ------------------------------------------------------------------
    def matrix(self, dataset: str, scale: float):
        from repro.datasets import load_dataset
        return load_dataset(dataset, scale=scale).matrix

    def operand(self, job: Job) -> np.ndarray:
        """The job's seeded operand/right-hand-side vector (cached).

        The vector is a pure function of ``(dataset, scale, seed)``, so
        it is drawn once and served from a bounded LRU: a retried or
        batched attempt of the same job reuses the identical array
        instead of redrawing the full ``(n,)`` vector per attempt.
        Callers treat operands as read-only.
        """
        key = (job.dataset, job.scale, job.seed)
        cached = self._operands.get(key)
        if cached is not None:
            self._operands.move_to_end(key)
            return cached
        n = self.matrix(job.dataset, job.scale).shape[0]
        values = np.random.default_rng(job.seed).normal(size=n)
        # The cached array is shared by every retry/batch/hedge attempt
        # of the job; a single in-place write would corrupt all of
        # them, so writes raise instead of silently aliasing.
        values.flags.writeable = False
        self._operands[key] = values
        if len(self._operands) > self._operand_cache:
            self._operands.popitem(last=False)
        return values

    def nominal_cycles(self, job: Job) -> float:
        """Fault-free service cycles for the job's workload (cached).

        Cycle counts depend only on the programmed block structure,
        never on operand values, so one golden run prices every job of
        the same ``(dataset, scale, kernel)``.
        """
        key = (job.dataset, job.scale, job.kernel)
        if key not in self._nominal:
            att = self._golden.attempt(job, self)
            self._nominal[key] = att.cycles
            self._nominal_bytes[key] = att.dram_bytes
        return self._nominal[key]

    def nominal_dram_bytes(self, job: Job) -> float:
        """Fault-free DRAM traffic of one solo job attempt (cached).

        The baseline the scheduler's ``stream_bytes_saved`` accounting
        compares a fused batch against: ``k`` solo runs would each
        stream the programmed payload.
        """
        key = (job.dataset, job.scale, job.kernel)
        if key not in self._nominal_bytes:
            self.nominal_cycles(job)
        return self._nominal_bytes[key]

    def nominal_batch_cycles(self, job: Job, k: int) -> float:
        """Fault-free service cycles of a ``k``-wide fused batch.

        Priced by one golden batched run per ``(dataset, scale,
        kernel, k)`` and cached — like :meth:`nominal_cycles`, batch
        timing depends only on the programmed block structure and the
        width, never on operand values.  The scheduler uses this to
        check deadline slack before growing a batch.
        """
        if k <= 1:
            return self.nominal_cycles(job)
        key = (job.dataset, job.scale, job.kernel, k)
        if key not in self._nominal_batch:
            att = self._golden.attempt_batch([job] * k, self)
            self._nominal_batch[key] = att.cycles
        return self._nominal_batch[key]

    def reference_values(self, job: Job) -> np.ndarray:
        """The golden-kernel answer used for graceful degradation."""
        from repro.kernels import forward_sweep_vectorized
        from repro.kernels.spmv import to_csr
        from repro.solvers import ReferenceBackend, pcg

        matrix = self.matrix(job.dataset, job.scale)
        operand = self.operand(job)
        if job.kernel == "spmv":
            return to_csr(matrix).spmv(operand)
        if job.kernel == "symgs":
            csr = to_csr(matrix)
            return forward_sweep_vectorized(
                csr, operand, np.zeros(operand.size))
        if job.kernel == "pcg":
            result = pcg(ReferenceBackend(matrix), operand,
                         tol=1e-6, max_iter=25)
            return result.x
        raise ConfigError(
            f"unknown job kernel {job.kernel!r}; known: {JOB_KERNELS}")

    # ------------------------------------------------------------------
    # Pool-level health summary
    # ------------------------------------------------------------------
    @property
    def breaker_trips(self) -> int:
        return sum(d.breaker.trips for d in self.devices)

    def refusing(self, now: float) -> int:
        """Devices out of service at ``now``: crashed, breaker-refusing,
        or withdrawn by the autoscaler (draining devices accept no new
        placements; retired ones never serve again).

        The total-outage degradation check in the scheduler compares
        this with ``len(pool)``.  A hanging device is *busy*, not out of
        service — its queued work will still run — so hangs do not
        count here; chaos- and autoscale-free this is the number of
        devices whose breaker refuses traffic.  Retired slots always
        refuse, so only the live devices are inspected.
        """
        return len(self.devices) - len(self.live) + sum(
            1 for d in self.live
            if not d.up or d.draining or not d.breaker.allows(now))

    def untried_targets(self, tried) -> int:
        """Devices a retry could still be placed on: not yet tried and
        not withdrawn by the autoscaler.

        The scheduler's pool-exhaustion checks used to compare
        ``len(tried) >= len(pool)``; with elastic capacity the pool
        list also holds draining/retired slots a retry can never
        target, so exhaustion counts live candidates instead.  Without
        autoscaling every device is live and this reduces exactly to
        the old size comparison.
        """
        return sum(1 for d in self.live
                   if d.device_id not in tried and not d.draining)

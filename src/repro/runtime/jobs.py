"""Jobs: the unit of work the serving runtime admits and executes.

A :class:`Job` names a kernel or solver invocation against a registered
dataset, plus the serving metadata the scheduler needs: arrival time and
deadline in *simulated cycles* (the same clock every
:class:`~repro.core.report.SimReport` accumulates on), a priority class,
and a per-job RNG seed so operand vectors are reproducible.  Jobs are
frozen — all mutable scheduling state lives inside the scheduler.

A :class:`JobResult` records one terminal outcome per job.  The status
vocabulary is deliberately closed (:class:`JobStatus`): the runtime
never returns a wrong or missing answer silently — a job either
finished ``OK``, finished late (``TIMEOUT``), finished on the software
reference path (``DEGRADED``, numerically correct), was refused
admission (``REJECTED``), or ``FAILED`` with a recorded error.

:func:`make_trace` builds a seeded workload trace — the input to
:func:`repro.runtime.serve` and the ``repro serve`` CLI.
:func:`dump_trace`/:func:`load_trace` round-trip a trace through
canonical JSON so production-shaped workloads are reproducible fixtures
(the ``repro serve --trace-file`` replay path).
"""

from __future__ import annotations

import enum
import json
import math
import random
from dataclasses import MISSING, asdict, dataclass, fields
from typing import List, Tuple

from repro.errors import ConfigError

#: Composable arrival/popularity shapes :func:`make_trace` understands.
#: ``exponential`` is the historical plain-Poisson trace; the others
#: combine with ``+`` (e.g. ``"bursty+zipf"``): ``bursty`` switches the
#: arrival rate through a doubly-stochastic on/off burst process,
#: ``diurnal`` modulates it sinusoidally, and ``zipf`` skews workload
#: popularity by rank instead of sampling uniformly.
TRACE_SHAPES = ("exponential", "bursty", "diurnal", "zipf")

#: Kernels a job may request.  ``spmv``/``symgs`` are single accelerator
#: passes; ``pcg`` is a short full solve (SpMV + SymGS inner loop).
JOB_KERNELS = ("spmv", "symgs", "pcg")

#: Priority classes :func:`make_trace` draws, and their weights.
PRIORITIES = (0, 1, 2)
PRIORITY_WEIGHTS = (0.7, 0.2, 0.1)


class JobStatus(enum.Enum):
    """Terminal status of a served job."""

    #: Completed on an accelerator device within its deadline.
    OK = "ok"
    #: Completed, but after its deadline expired (answer still attached).
    TIMEOUT = "timeout"
    #: Completed on the :class:`~repro.solvers.ReferenceBackend`
    #: fallback after accelerator attempts were exhausted or the pool
    #: was unavailable.  The answer is numerically correct; only the
    #: latency and energy story degraded.
    DEGRADED = "degraded"
    #: Refused by admission control (zero deadline or full queue);
    #: never executed.
    REJECTED = "rejected"
    #: No answer could be produced; ``JobResult.error`` names why.
    FAILED = "failed"


@dataclass(frozen=True)
class Job:
    """One request: a kernel/solver invocation with serving metadata."""

    job_id: int
    kernel: str
    dataset: str
    scale: float
    #: Simulated cycle at which the request enters the system.
    arrival_cycle: float
    #: Latency budget in simulated cycles; ``<= 0`` is rejected at
    #: admission (a request with no budget cannot be served honestly).
    deadline_cycles: float
    #: Larger is more urgent; ties broken by submission order.
    priority: int = 0
    #: Seeds the operand vector (``default_rng(seed)``), so a job's
    #: numerical answer is reproducible independent of placement.
    seed: int = 0


@dataclass
class JobResult:
    """Terminal outcome of one job."""

    job_id: int
    status: JobStatus
    #: Device that produced the answer (-1: rejected/degraded/failed).
    device_id: int = -1
    #: Accelerator attempts consumed (0 for rejected jobs).
    attempts: int = 0
    #: Completion minus arrival, in simulated cycles (0 if rejected).
    latency_cycles: float = 0.0
    finish_cycle: float = 0.0
    #: CRC32 of the answer payload (bit-reproducibility handle); 0 when
    #: no answer was produced.
    value_crc: int = 0
    #: Width of the fused dispatch that answered the job (1 = solo; a
    #: job answered inside a k-wide multi-RHS batch reports k).
    batch_size: int = 1
    error: str = ""
    #: True when a speculative hedge duplicate produced the answer
    #: (the original attempt lost the race or its device died).
    hedged: bool = False
    #: Pool that produced the final outcome (0 in single-pool serving).
    pool_id: int = 0
    #: Times the fleet re-routed the job to another pool after an
    #: outage evicted it (0 in single-pool serving).
    reroutes: int = 0

    @property
    def answered(self) -> bool:
        """Whether a numerically-trustworthy answer was returned."""
        return self.status in (JobStatus.OK, JobStatus.TIMEOUT,
                               JobStatus.DEGRADED)


@dataclass(frozen=True)
class TraceSpec:
    """Parameters for :func:`make_trace` (all cycle units simulated)."""

    n_requests: int
    seed: int = 0
    #: ``(dataset, kernel)`` pairs sampled uniformly per request.
    workloads: Tuple[Tuple[str, str], ...] = (
        ("stencil27", "spmv"),
        ("stencil27", "symgs"),
        ("af_shell", "spmv"),
        ("af_shell", "symgs"),
    )
    scale: float = 0.05
    #: Mean of the exponential inter-arrival gap.
    mean_interarrival_cycles: float = 400.0
    #: Deadlines drawn uniformly from this range.
    deadline_range: Tuple[float, float] = (20_000.0, 80_000.0)
    #: Fraction of requests that arrive with a zero deadline (they are
    #: rejected at admission; the trace includes them so admission
    #: control is exercised under every seed).
    zero_deadline_prob: float = 0.02
    #: Arrival/popularity shape: ``"exponential"`` (the historical
    #: plain-Poisson draw sequence, byte-identical to pre-shape
    #: traces) or a ``+``-combination of ``bursty``/``diurnal``/
    #: ``zipf`` — see :data:`TRACE_SHAPES`.
    shape: str = "exponential"
    #: ``bursty``: arrival rate multiplier while a burst is on, and the
    #: mean dwell cycles of the on/off states (exponentially drawn).
    burst_factor: float = 6.0
    burst_mean_cycles: float = 8_000.0
    quiet_mean_cycles: float = 24_000.0
    #: ``diurnal``: sinusoidal rate-cycle period and relative
    #: amplitude (0 flat, must stay < 1 so the rate never vanishes).
    diurnal_period_cycles: float = 200_000.0
    diurnal_amplitude: float = 0.8
    #: ``zipf``: workload ``r`` (0-based rank in ``workloads``) is
    #: drawn with weight ``1 / (r + 1) ** zipf_exponent``.
    zipf_exponent: float = 1.1

    def __post_init__(self) -> None:
        parts = self.shape.split("+") if self.shape else [""]
        if len(set(parts)) != len(parts):
            raise ConfigError(
                f"trace shape {self.shape!r} repeats a component")
        for part in parts:
            if part not in TRACE_SHAPES:
                raise ConfigError(
                    f"unknown trace shape {part!r} in {self.shape!r}; "
                    f"known: {TRACE_SHAPES}")
        if "exponential" in parts and len(parts) > 1:
            raise ConfigError(
                f"trace shape {self.shape!r}: 'exponential' is the "
                f"plain baseline and cannot combine with other shapes")
        if self.burst_factor < 1.0:
            raise ConfigError(
                f"burst_factor must be >= 1, got {self.burst_factor}")
        if self.burst_mean_cycles <= 0 or self.quiet_mean_cycles <= 0:
            raise ConfigError(
                f"burst/quiet dwell means must be positive, got "
                f"{self.burst_mean_cycles}/{self.quiet_mean_cycles}")
        if self.diurnal_period_cycles <= 0:
            raise ConfigError(
                f"diurnal_period_cycles must be positive, got "
                f"{self.diurnal_period_cycles}")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ConfigError(
                f"diurnal_amplitude must be in [0, 1), got "
                f"{self.diurnal_amplitude}")
        if self.zipf_exponent <= 0:
            raise ConfigError(
                f"zipf_exponent must be positive, got "
                f"{self.zipf_exponent}")


def make_trace(spec: TraceSpec) -> List[Job]:
    """Generate a seeded workload trace.

    Deterministic: one ``random.Random(spec.seed)`` stream drives every
    draw, so a fixed spec reproduces the identical trace.  The shapes
    (``bursty``/``diurnal``/``zipf``, composable with ``+``) layer rate
    modulation and popularity skew on a plain Poisson draw; with every
    shape off (the default ``shape="exponential"``) no extra draw is
    made, so pre-shape specs reproduce byte-identical traces.
    """
    rng = random.Random(spec.seed)
    jobs: List[Job] = []
    cycle = 0.0
    parts = set(spec.shape.split("+"))
    bursty = "bursty" in parts
    diurnal = "diurnal" in parts
    zipf = "zipf" in parts
    # Zipf-by-rank popularity: workloads keep their declared order, so
    # rank 0 (the first pair) is the hot one under every seed.
    weights = ([1.0 / (rank + 1) ** spec.zipf_exponent
                for rank in range(len(spec.workloads))]
               if zipf else None)
    # Doubly-stochastic burst process: the on/off state itself is
    # random (exponential dwells), and arrivals within a state are a
    # Poisson process at that state's rate.
    in_burst = False
    burst_until = (rng.expovariate(1.0 / spec.quiet_mean_cycles)
                   if bursty else 0.0)
    for i in range(spec.n_requests):
        mean = spec.mean_interarrival_cycles
        if bursty:
            while cycle >= burst_until:
                in_burst = not in_burst
                dwell_mean = (spec.burst_mean_cycles if in_burst
                              else spec.quiet_mean_cycles)
                burst_until += rng.expovariate(1.0 / dwell_mean)
            if in_burst:
                mean /= spec.burst_factor
        if diurnal:
            phase = 2.0 * math.pi * cycle / spec.diurnal_period_cycles
            rate_mod = 1.0 + spec.diurnal_amplitude * math.sin(phase)
            mean /= max(rate_mod, 0.05)
        cycle += rng.expovariate(1.0 / mean)
        if zipf:
            dataset, kernel = rng.choices(spec.workloads,
                                          weights=weights)[0]
        else:
            dataset, kernel = spec.workloads[
                rng.randrange(len(spec.workloads))]
        if rng.random() < spec.zero_deadline_prob:
            deadline = 0.0
        else:
            deadline = rng.uniform(*spec.deadline_range)
        priority = rng.choices(PRIORITIES, weights=PRIORITY_WEIGHTS)[0]
        jobs.append(Job(
            job_id=i,
            kernel=kernel,
            dataset=dataset,
            scale=spec.scale,
            arrival_cycle=cycle,
            deadline_cycles=deadline,
            priority=priority,
            seed=spec.seed * 100_003 + i,
        ))
    return jobs


#: Trace-file schema version written by :func:`dump_trace`.  Bumped
#: whenever the :class:`Job` field vocabulary changes incompatibly;
#: :func:`load_trace` refuses files from the future instead of
#: half-parsing them.
TRACE_SCHEMA_VERSION = 1

_JOB_FIELDS = frozenset(f.name for f in fields(Job))
#: Fields a trace entry must carry; the rest have dataclass defaults.
_REQUIRED_JOB_FIELDS = frozenset(
    f.name for f in fields(Job) if f.default is MISSING)


def dump_trace(jobs: List[Job], path: str) -> int:
    """Write a workload trace as canonical, versioned JSON.

    Canonical means sorted keys and a fixed separator style, so the
    same trace always serialises to the identical bytes — trace files
    are content-addressable fixtures, not just human-readable dumps.
    The envelope carries :data:`TRACE_SCHEMA_VERSION` so future readers
    can tell a stale file from a malformed one.  Returns bytes written.
    """
    payload = json.dumps(
        {"version": TRACE_SCHEMA_VERSION,
         "jobs": [asdict(j) for j in jobs]},
        sort_keys=True, separators=(",", ":"))
    with open(path, "w") as fh:
        fh.write(payload + "\n")
    return len(payload) + 1


def load_trace(path: str) -> List[Job]:
    """Read a workload trace written by :func:`dump_trace`.

    Accepts the versioned ``{"version": N, "jobs": [...]}`` envelope
    and, for fixtures written before the envelope existed, a bare JSON
    list of job entries (treated as version 1).  Malformed files —
    wrong top-level shape, a future schema version, an entry missing a
    required :class:`Job` field or carrying an unknown key — raise
    :class:`~repro.errors.ConfigError` naming the file and the
    offending key, never a raw ``KeyError``/``TypeError``.
    """
    with open(path) as fh:
        payload = json.load(fh)
    if isinstance(payload, list):
        entries = payload  # pre-envelope fixture: implicit version 1
    elif isinstance(payload, dict):
        unknown_top = set(payload) - {"version", "jobs"}
        if unknown_top:
            raise ConfigError(
                f"trace file {path!r}: unknown top-level key "
                f"{sorted(unknown_top)[0]!r}")
        if "version" not in payload or "jobs" not in payload:
            missing = "version" if "version" not in payload else "jobs"
            raise ConfigError(
                f"trace file {path!r}: missing top-level key "
                f"{missing!r}")
        version = payload["version"]
        if not isinstance(version, int) or isinstance(version, bool):
            raise ConfigError(
                f"trace file {path!r}: version must be an integer, "
                f"got {version!r}")
        if version > TRACE_SCHEMA_VERSION:
            raise ConfigError(
                f"trace file {path!r}: schema version {version} is "
                f"newer than supported version {TRACE_SCHEMA_VERSION}")
        if version < 1:
            raise ConfigError(
                f"trace file {path!r}: invalid schema version "
                f"{version}")
        entries = payload["jobs"]
        if not isinstance(entries, list):
            raise ConfigError(
                f"trace file {path!r}: 'jobs' must be a list, got "
                f"{type(entries).__name__}")
    else:
        raise ConfigError(
            f"trace file {path!r}: expected a versioned trace object "
            f"or a job list, got {type(payload).__name__}")
    jobs: List[Job] = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ConfigError(
                f"trace file {path!r}: job entry {i} is not an "
                f"object")
        unknown = set(entry) - _JOB_FIELDS
        if unknown:
            raise ConfigError(
                f"trace file {path!r}: job entry {i} has unknown key "
                f"{sorted(unknown)[0]!r}")
        missing = _REQUIRED_JOB_FIELDS - set(entry)
        if missing:
            raise ConfigError(
                f"trace file {path!r}: job entry {i} is missing key "
                f"{sorted(missing)[0]!r}")
        jobs.append(Job(**entry))
    return jobs

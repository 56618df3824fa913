"""Heap-based discrete-event engine for the serving runtime.

The scheduler used to find the next interesting cycle by re-scanning
every waiting job and every device on each step — O(queue × devices)
per clock advance, the Python hot loop at trace scale.  This module
replaces that scan with a single binary heap of *typed events*: every
future state change the scheduler can react to is pushed exactly when
it becomes known, and the main loop pops the earliest one in O(log n).

Event vocabulary (:class:`EventKind`):

``ARRIVAL``
    A job enters the system at its ``arrival_cycle``.  The scheduler
    keeps only the earliest not-yet-popped trace arrival on the heap
    and arms the next one when it pops, so the heap's size does not
    grow with the trace.
``DISPATCH_COMPLETE``
    A device finishes the attempt it is running (its ``busy_until``).
``RETRY_READY``
    A job requeued after a device fault becomes dispatchable again.
``BREAKER_REOPEN``
    An open circuit breaker finishes its cooldown and may be probed.
``DEADLINE_EXPIRY``
    A job's deadline lands.  Deadline expiry being an *event* — not a
    filter applied to whatever jobs happen to be scanned — is what
    makes deadline accounting exact: a job that cannot possibly be
    dispatched at its deadline cycle is finalised ``TIMEOUT`` *at* that
    cycle, never at whatever later cycle the old scan happened to
    revisit it.
``DEVICE_CRASH`` / ``DEVICE_HANG`` / ``DEVICE_RECOVER``
    Device-lifecycle incidents drawn by a seeded
    :class:`~repro.sim.chaos.ChaosModel`: a crash takes the device
    down (in-flight work lost, breaker quarantined), a hang stalls it
    (in-flight work slowed), and a recover ends either.  Lifecycle
    events sort *after* every job event at the same cycle, so a job
    completing exactly when its device dies still completed.
``HEDGE_TIMER``
    A dispatched job's attempt has run for a configured multiple of
    its nominal estimate without completing; the scheduler may launch
    a speculative duplicate on a second healthy device.  Lazily
    deleted like every other event: if the attempt finished first,
    the popped timer is stale and counted, never acted on.
``POOL_OUTAGE`` / ``POOL_RECOVER``
    Fleet-scoped incidents drawn by a seeded
    :class:`~repro.sim.chaos.PoolChaosModel`: an outage takes a whole
    :class:`~repro.runtime.pool.DevicePool` dark (every in-flight
    attempt voided, queued and salvaged jobs re-routed to a surviving
    replica by the :class:`~repro.runtime.fleet.Fleet`), and a recover
    marks the end of the drawn window — readmission still waits for a
    successful probe job.  These live on the *fleet's* event queue
    (``key`` is the pool id), appended after every per-pool kind so
    the chaos-free coincident order inside one pool is untouched.
``SCALE_EVAL`` / ``DEVICE_ADD`` / ``DEVICE_DRAIN``
    Elastic-capacity events driven by the
    :class:`~repro.runtime.autoscale.Autoscaler`: a periodic
    ``SCALE_EVAL`` samples queue depth and per-device health on the
    simulated clock and may decide to grow or shrink the pool; a
    scale-up lands as a ``DEVICE_ADD`` after the provisioning delay
    (``key`` is the new device's id); a scale-down marks a device
    *draining* immediately and retires it when its ``DEVICE_DRAIN``
    finds it idle (re-armed while in-flight work remains).  All three
    are appended after every pre-existing kind, so the autoscale-free
    coincident order — and therefore every report the fingerprint
    corpus pins — is untouched.

Total ordering
--------------
Events sort by ``(cycle, kind, key, seq)``:

* ``cycle`` — simulated time, the primary key;
* ``kind`` — the :class:`EventKind` integer value, so coincident
  events of different types are processed in a fixed, documented order
  (arrivals before completions before retries before breaker reopens
  before deadline expiries);
* ``key`` — ``job_id`` for job events, ``device_id`` for device
  events: ties inside one kind break by explicit identity, never by
  hash or insertion accident;
* ``seq`` — the monotone push index, a last-resort stabiliser so the
  order is total even for exact duplicates.

Every component of the tuple is explicit and reproducible from the
trace and seeds, which is what keeps a heap-cored run bit-identical to
a rerun of itself — the property the determinism tests pin down.

Staleness
---------
The heap is append-only: events are never removed when the state they
describe changes (a job finishes before its deadline, a breaker trips
again with a later cooldown).  Consumers instead *validate* an event
against live state when it is popped and skip it if stale — the
classic lazy-deletion discipline.  :attr:`EventQueue.stale` counts the
skips so load tests can bound the bookkeeping overhead.
"""

from __future__ import annotations

import enum
import heapq
from typing import List, NamedTuple, Optional


class EventKind(enum.IntEnum):
    """Typed events, in their coincident-cycle processing order."""

    ARRIVAL = 0
    DISPATCH_COMPLETE = 1
    RETRY_READY = 2
    BREAKER_REOPEN = 3
    DEADLINE_EXPIRY = 4
    DEVICE_CRASH = 5
    DEVICE_HANG = 6
    DEVICE_RECOVER = 7
    HEDGE_TIMER = 8
    POOL_OUTAGE = 9
    POOL_RECOVER = 10
    SCALE_EVAL = 11
    DEVICE_ADD = 12
    DEVICE_DRAIN = 13


class Event(NamedTuple):
    """One scheduled state change; sorts by ``(cycle, kind, key, seq)``."""

    cycle: float
    kind: int
    #: ``job_id`` for job events, ``device_id`` for device events.
    key: int
    #: Monotone push index — the explicit last tie-break.
    seq: int


class EventQueue:
    """Min-heap of :class:`Event` with deterministic total order.

    ``push``/``pop`` are O(log n); ``peek`` is O(1).  The queue keeps
    three counters for observability: :attr:`pushed`, :attr:`popped`
    and :attr:`stale` (incremented by the consumer via
    :meth:`mark_stale` when a popped event no longer matches live
    state).
    """

    __slots__ = ("_heap", "_seq", "pushed", "popped", "stale")

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._seq = 0
        self.pushed = 0
        self.popped = 0
        self.stale = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, cycle: float, kind: EventKind, key: int) -> Event:
        """Schedule ``kind`` for ``key`` at ``cycle``; returns the event."""
        event = Event(cycle, int(kind), key, self._seq)
        self._seq += 1
        self.pushed += 1
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Event:
        """Remove and return the earliest event (raises on empty)."""
        self.popped += 1
        return heapq.heappop(self._heap)

    def peek(self) -> Optional[Event]:
        """The earliest event without removing it (None when empty)."""
        return self._heap[0] if self._heap else None

    def mark_stale(self) -> None:
        """Record that the consumer discarded a popped event as stale."""
        self.stale += 1

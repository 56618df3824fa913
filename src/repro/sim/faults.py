"""Seeded fault injection for the payload stream.

ALRESCHA's storage format streams locally-dense blocks with *no runtime
meta-data* (§4): every byte on the channel is payload, consumed by the
FCU in table order.  That design point is also a robustness hazard — a
flipped bit or a dropped burst is not a malformed record the decoder can
reject, it is a perfectly plausible operand that silently becomes a
wrong answer.  This module supplies the *injection* half of the
resilience subsystem: a pluggable, seeded :class:`FaultModel` that the
interpreter (:mod:`repro.core.interpreter`) and the compiled plan layer
(:mod:`repro.core.plan`) consult once per payload-block transfer.

Fault kinds
-----------
``bitflip``
    One bit of one stored element is inverted in flight.  Detected only
    if the caller supplies the block's programmed checksum (recorded at
    ``program()`` time); otherwise the corrupted payload is delivered
    silently — the cross-check and NaN/Inf guard layers exist for
    exactly that case.
``drop``
    The burst never arrives.  Always detected (the stream decoder's
    run-length sequencing notices the hole) and re-requested.
``duplicate``
    The burst arrives twice; the copy is discarded, but it occupied the
    channel for one extra transfer.
``latency``
    A transient latency spike (row-hammer refresh, channel arbitration):
    the payload is intact, the transfer just takes longer.

Detected corruption triggers bounded re-stream retries with exponential
backoff; each retry is itself a fresh transfer that can fault again
(always, for a ``persistent`` fault).  Exhausting the retry budget
raises :class:`~repro.errors.FaultError`.  Every injected fault is
appended to :attr:`FaultModel.log`, so tests can reconcile the
``faults_detected`` / ``retry_cycles`` counters of a
:class:`~repro.core.report.SimReport` against the injection record.

Determinism: the model draws from one ``random.Random(seed)`` stream
advanced once per transfer, so a fixed seed plus a fixed transfer order
reproduces the exact fault sequence.  Call :meth:`FaultModel.reset`
to replay it from the start.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ConfigError, FaultError
from repro.sim.stats import CounterSet

#: Every fault kind the model can inject, in draw order.
FAULT_KINDS = ("bitflip", "drop", "duplicate", "latency")

#: Default bounded-retry budget for detected corruption.
DEFAULT_MAX_RETRIES = 3

#: Base backoff before the first re-stream; doubles per retry.
DEFAULT_BACKOFF_CYCLES = 32.0

#: Cycles added by a transient latency spike.
DEFAULT_LATENCY_SPIKE_CYCLES = 128.0


def payload_checksum(values: np.ndarray) -> int:
    """CRC32 of a payload block as streamed (native float64 bytes).

    Recorded per block at ``program()`` time into the device image /
    plan artifacts and verified on stream; the check itself is modelled
    as free (an inline hardware CRC on the burst path) — only
    *recovery* costs cycles.
    """
    return zlib.crc32(np.ascontiguousarray(values,
                                           dtype=np.float64).tobytes())


def block_crcs(buffer, block_bytes: int) -> List[int]:
    """CRC32 of each ``block_bytes``-byte block of a contiguous buffer."""
    view = memoryview(buffer).cast("B")
    return [zlib.crc32(view[lo:lo + block_bytes])
            for lo in range(0, len(view), block_bytes)]


def payload_checksums(blocks: np.ndarray) -> np.ndarray:
    """:func:`payload_checksum` of every block of an ``[m, ω, ω]``
    stack, as an int64 array."""
    blocks = np.ascontiguousarray(blocks, dtype=np.float64)
    if not blocks.size:
        return np.zeros(blocks.shape[0], dtype=np.int64)
    return np.array(block_crcs(blocks, blocks[0].nbytes), dtype=np.int64)


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, as recorded in :attr:`FaultModel.log`."""

    #: Global transfer index (0-based) at which the fault struck.
    index: int
    #: One of :data:`FAULT_KINDS`.
    kind: str
    #: Whether the runtime noticed (checksum mismatch, missing burst,
    #: duplicate sequence number).  A ``bitflip`` with no checksum to
    #: verify against is *silent*: delivered corrupted, undetected.
    detected: bool
    #: Whether delivery recovered pristine payload (retry/discard).
    corrected: bool
    #: Extra transfers the fault caused (re-streams + duplicates).
    restreams: int = 0
    #: Backoff + re-stream cycles charged to recovery.
    retry_cycles: float = 0.0
    #: Transient spike cycles (``latency`` faults only).
    latency_cycles: float = 0.0
    detail: str = ""

    @property
    def extra_cycles(self) -> float:
        """All channel cycles attributable to this fault."""
        return self.retry_cycles + self.latency_cycles

    @property
    def silent(self) -> bool:
        """Corrupted payload delivered without detection."""
        return not self.detected and not self.corrected \
            and self.kind == "bitflip"


@dataclass
class FaultModel:
    """Pluggable, seeded per-transfer fault injector.

    Attach one to :class:`~repro.core.accelerator.AlreschaConfig`
    (``fault_model=``) and every payload-block transfer of every run
    consults it.  ``rate`` is the per-transfer fault probability; with
    ``rate=0`` the model is a deterministic no-op.
    """

    rate: float
    seed: int = 0
    kinds: Tuple[str, ...] = FAULT_KINDS
    max_retries: int = DEFAULT_MAX_RETRIES
    backoff_cycles: float = DEFAULT_BACKOFF_CYCLES
    latency_spike_cycles: float = DEFAULT_LATENCY_SPIKE_CYCLES
    #: A persistent (stuck-at) fault: retries of a detected corruption
    #: keep failing, so the retry budget always exhausts.
    persistent: bool = False
    log: List[FaultEvent] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigError(
                f"fault rate must be in [0, 1], got {self.rate}")
        unknown = set(self.kinds) - set(FAULT_KINDS)
        if not self.kinds or unknown:
            raise ConfigError(
                f"fault kinds must be a non-empty subset of "
                f"{FAULT_KINDS}, got {self.kinds!r}")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be non-negative")
        self._rng = random.Random(self.seed)
        self._transfers = 0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, spec: str) -> "FaultModel":
        """Build a model from the CLI's ``RATE[:SEED[:KINDS]]`` syntax.

        Malformed specs — junk or out-of-range rates, non-integer
        seeds, unknown kind names, too many ``:`` fields — raise
        :class:`~repro.errors.ConfigError` naming the offending token
        (shared grammar with
        :meth:`repro.sim.chaos.ChaosModel.parse`).
        """
        from repro.sim.chaos import parse_rate_spec
        rate, seed, kinds = parse_rate_spec(
            "--inject-faults", spec, FAULT_KINDS)
        if kinds is None:
            return cls(rate=rate, seed=seed)
        return cls(rate=rate, seed=seed, kinds=kinds)

    def spawn(self, index: int) -> "FaultModel":
        """An independently-seeded sibling with the same parameters.

        The serving runtime (:mod:`repro.runtime`) gives every device in
        a pool its own injector so one device's fault history never
        perturbs another's draw sequence: device ``i`` gets
        ``spawn(i)``.  The derived seed is a fixed affine function of
        the base seed, so a pool is reproducible from a single seed.
        """
        return FaultModel(
            rate=self.rate,
            seed=self.seed + 7919 * (index + 1),
            kinds=self.kinds,
            max_retries=self.max_retries,
            backoff_cycles=self.backoff_cycles,
            latency_spike_cycles=self.latency_spike_cycles,
            persistent=self.persistent,
        )

    def reset(self) -> None:
        """Rewind to the initial seeded state and clear the log."""
        self._rng = random.Random(self.seed)
        self._transfers = 0
        self.log.clear()

    # ------------------------------------------------------------------
    # Injection log summaries (for counter reconciliation in tests)
    # ------------------------------------------------------------------
    @property
    def transfers(self) -> int:
        """Payload transfers that consulted the model so far."""
        return self._transfers

    @property
    def injected(self) -> int:
        return len(self.log)

    @property
    def detected(self) -> int:
        return sum(1 for e in self.log if e.detected)

    @property
    def corrected(self) -> int:
        return sum(1 for e in self.log if e.corrected)

    @property
    def total_retry_cycles(self) -> float:
        return sum(e.retry_cycles for e in self.log)

    # ------------------------------------------------------------------
    # The per-transfer hook
    # ------------------------------------------------------------------
    def deliver(self, values: np.ndarray, checksum: Optional[int] = None,
                restream_cycles: float = 0.0
                ) -> Tuple[np.ndarray, float, Optional[FaultEvent]]:
        """Pass one payload block through the faulty channel.

        Returns ``(values, extra_cycles, event)``: the delivered payload
        (pristine, or a corrupted *copy* for a silent bitflip), cycles
        beyond the nominal transfer cost, and the logged event (None for
        a clean transfer).  ``restream_cycles`` is the channel cost of
        one re-fetch of this block, used to price retries and
        duplicates.  Raises :class:`~repro.errors.FaultError` when a
        detected corruption survives ``max_retries`` re-streams.
        """
        index = self._transfers
        self._transfers += 1
        if self._rng.random() >= self.rate:
            return values, 0.0, None
        kind = self.kinds[self._rng.randrange(len(self.kinds))]

        if kind == "latency":
            event = FaultEvent(index, kind, detected=False, corrected=False,
                               latency_cycles=self.latency_spike_cycles,
                               detail="transient latency spike")
            self.log.append(event)
            return values, event.extra_cycles, event

        if kind == "duplicate":
            # The stream decoder's sequence count discards the copy;
            # the channel still carried it.
            event = FaultEvent(index, kind, detected=True, corrected=True,
                               restreams=1, retry_cycles=restream_cycles,
                               detail="duplicated burst discarded")
            self.log.append(event)
            return values, event.extra_cycles, event

        # bitflip / drop: payload at risk.
        if kind == "bitflip":
            corrupted, detail = self._flip_bit(values)
            detected = (checksum is not None
                        and payload_checksum(corrupted) != checksum)
            if not detected:
                event = FaultEvent(index, kind, detected=False,
                                   corrected=False, detail=detail)
                self.log.append(event)
                return corrupted, 0.0, event
        else:  # drop: the hole in the run is detected immediately.
            detail = "dropped burst"
            detected = True

        retries, retry_cycles, corrected = self._retry(restream_cycles)
        event = FaultEvent(index, kind, detected=True, corrected=corrected,
                           restreams=retries, retry_cycles=retry_cycles,
                           detail=detail)
        self.log.append(event)
        if not corrected:
            raise FaultError(
                f"{kind} on transfer {index} not corrected after "
                f"{retries} re-stream retries ({detail})"
            )
        return values, event.extra_cycles, event

    def _retry(self, restream_cycles: float) -> Tuple[int, float, bool]:
        """Bounded re-stream loop with exponential backoff.

        Each retry is a fresh transfer: it fails again with probability
        ``rate`` (or always, for a persistent fault).
        """
        retries = 0
        cycles = 0.0
        while retries < self.max_retries:
            cycles += self.backoff_cycles * (2.0 ** retries) \
                + restream_cycles
            retries += 1
            failed_again = self.persistent \
                or self._rng.random() < self.rate
            if not failed_again:
                return retries, cycles, True
        return retries, cycles, False

    def _flip_bit(self, values: np.ndarray) -> Tuple[np.ndarray, str]:
        """Invert one random bit of one random stored element (copy)."""
        flat = np.ascontiguousarray(values, dtype=np.float64).copy()
        shape = flat.shape
        flat = flat.reshape(-1)
        elem = self._rng.randrange(max(1, flat.size))
        bit = self._rng.randrange(64)
        raw = flat.view(np.uint64)
        raw[elem] ^= np.uint64(1) << np.uint64(bit)
        return flat.reshape(shape), f"bit {bit} of element {elem} flipped"


def charge_event(counters: CounterSet, event: FaultEvent) -> None:
    """Record one fault event into a report's counter set.

    Called by :func:`repro.core.interpreter.charge_faults`, the one
    fault charge of both execution paths, so ``faults_*``/
    ``retry_cycles`` counters reconcile with :attr:`FaultModel.log`
    regardless of the path.
    """
    counters.add("faults_injected", 1.0)
    if event.detected:
        counters.add("faults_detected", 1.0)
    if event.corrected:
        counters.add("faults_corrected", 1.0)
    if event.silent:
        counters.add("faults_silent", 1.0)
    if event.retry_cycles:
        counters.add("retry_cycles", event.retry_cycles)
    if event.latency_cycles:
        counters.add("fault_latency_cycles", event.latency_cycles)
    if event.restreams:
        counters.add("fault_restreams", float(event.restreams))

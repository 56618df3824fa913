"""Streaming-memory model.

ALRESCHA's headline property is that, thanks to the locally-dense storage
format and the configuration table holding all meta-data, the *entire*
memory bandwidth is spent on payload (non-zero values) streamed in exactly
the order the compute engine consumes it.  The memory model therefore only
needs to answer one question per transfer: *how many cycles does it take
to stream N bytes at the configured bandwidth?*

Table 5 of the paper: 12 GB GDDR5 at 288 GB/s feeding a 2.5 GHz engine,
i.e. 115.2 bytes/cycle (14.4 doubles/cycle).  Each 64-bit ALU operand
arrives in 0.4 ns through 32-bit 5 Gbps links (§5.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import CapacityError, SimulationError
from repro.sim.clock import DEFAULT_FREQUENCY_HZ
from repro.sim.stats import CounterSet

#: Memory bandwidth from Table 5 (GDDR5, same budget given to every
#: accelerator compared in the paper).
DEFAULT_BANDWIDTH_BYTES_PER_S = 288e9

#: Capacity from Table 5; only used for sanity checks, the model never
#: simulates paging.
DEFAULT_CAPACITY_BYTES = 12 * 1024**3

#: Burst granularity of the modelled GDDR5 channel.  Transfers are padded
#: to this size, which is also the accelerator's cache-line size.
DEFAULT_BURST_BYTES = 64


@dataclass
class StreamingMemory:
    """Bandwidth-limited streaming memory with burst granularity.

    The model is deliberately simple: sequential streams achieve the full
    configured bandwidth (this is the design point of the Alrescha format),
    while random accesses pay per-burst padding.  Both behaviours are
    captured by rounding each request up to whole bursts.

    Parameters
    ----------
    bandwidth_bytes_per_s:
        Peak sustained bandwidth.
    frequency_hz:
        Clock of the consumer, used to express costs in cycles.
    burst_bytes:
        Minimum transfer granularity.
    """

    bandwidth_bytes_per_s: float = DEFAULT_BANDWIDTH_BYTES_PER_S
    frequency_hz: float = DEFAULT_FREQUENCY_HZ
    burst_bytes: int = DEFAULT_BURST_BYTES
    capacity_bytes: int = DEFAULT_CAPACITY_BYTES
    counters: CounterSet = field(default_factory=CounterSet)
    #: Optional :class:`~repro.observe.tracer.Tracer`.  When set, every
    #: transfer extends a coalesced ``stream`` span on the ``channel``
    #: track (occupancy, not wall-aligned).  None (the default) is the
    #: traced-nothing path.
    tracer: Optional[object] = None

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_s <= 0:
            raise SimulationError("memory bandwidth must be positive")
        if self.burst_bytes <= 0:
            raise SimulationError("burst size must be positive")

    @property
    def bytes_per_cycle(self) -> float:
        """Peak bytes deliverable per consumer clock cycle."""
        return self.bandwidth_bytes_per_s / self.frequency_hz

    def padded_bytes(self, nbytes: float) -> float:
        """``nbytes`` rounded up to whole bursts."""
        bursts = -(-int(math.ceil(nbytes)) // self.burst_bytes)
        return float(bursts * self.burst_bytes)

    def stream_cycles(self, nbytes: float, sequential: bool = True) -> float:
        """Cycles needed to transfer ``nbytes``.

        Every request is rounded up to whole bursts — the channel's
        transfer granularity.  Callers moving a long contiguous stream
        should therefore issue it as one request so the padding is paid
        at most once; ``sequential=False`` additionally counts the
        request as a random access.
        """
        if nbytes < 0:
            raise SimulationError(f"cannot stream {nbytes} bytes")
        if nbytes == 0:
            return 0.0
        effective = self.padded_bytes(nbytes)
        self.counters.add("dram_bytes", effective)
        self.counters.add("dram_requests", 1.0)
        if not sequential:
            self.counters.add("dram_random_requests", 1.0)
        cycles = effective / self.bytes_per_cycle
        if self.tracer is not None:
            self.tracer.extend("channel", "stream", "stream", cycles,
                               {"dram_bytes": effective,
                                "dram_requests": 1.0})
        return cycles

    def cost_cycles(self, nbytes: float) -> float:
        """Pure cost query: cycles to move ``nbytes`` at peak bandwidth.

        Burst-padded exactly like :meth:`stream_cycles` but charges
        nothing — no counters, no trace spans.  Batched multi-RHS
        serving uses this to convert stream bytes into cycles when
        reporting amortization: a k-wide batch streams the matrix
        payload once, so its per-RHS stream cost is this quantity
        divided by k.
        """
        if nbytes < 0:
            raise SimulationError(f"cannot stream {nbytes} bytes")
        if nbytes == 0:
            return 0.0
        return self.padded_bytes(nbytes) / self.bytes_per_cycle

    def check_capacity(self, resident_bytes: float,
                       context: str = "device image") -> None:
        """Reject a resident working set larger than the modelled DRAM.

        The model never simulates paging (Table 5's 12 GB is treated as
        a hard bound), so oversubscription must fail at ``program()``
        time rather than silently mis-modelling the stream.
        """
        if resident_bytes > self.capacity_bytes:
            raise CapacityError(
                f"{context} needs {resident_bytes:,.0f} resident bytes "
                f"but the memory holds {self.capacity_bytes:,} "
                f"(capacity_bytes)"
            )

    @property
    def total_bytes(self) -> float:
        """Total bytes transferred so far (post burst padding)."""
        return self.counters.get("dram_bytes")

"""Simulation substrate: memory, cache, link stack, energy, faults, counters.

These are the hardware-agnostic building blocks the accelerator model
(:mod:`repro.core`) and the baseline models (:mod:`repro.baselines`) are
assembled from.
"""

from repro.sim.buffers import LinkStack
from repro.sim.faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultModel,
    charge_event,
    payload_checksum,
)
from repro.sim.cache import (
    DEFAULT_CACHE_BYTES,
    DEFAULT_HIT_LATENCY,
    DEFAULT_LINE_BYTES,
    LocalCache,
)
from repro.sim.clock import DEFAULT_FREQUENCY_HZ
from repro.sim.energy import DEFAULT_EVENT_ENERGY_PJ, EnergyModel
from repro.sim.memory import (
    DEFAULT_BANDWIDTH_BYTES_PER_S,
    DEFAULT_BURST_BYTES,
    StreamingMemory,
)
from repro.sim.stats import CounterSet

__all__ = [
    "CounterSet",
    "EnergyModel",
    "FaultEvent",
    "FaultModel",
    "LinkStack",
    "LocalCache",
    "StreamingMemory",
    "charge_event",
    "payload_checksum",
    "FAULT_KINDS",
    "DEFAULT_BANDWIDTH_BYTES_PER_S",
    "DEFAULT_BURST_BYTES",
    "DEFAULT_CACHE_BYTES",
    "DEFAULT_EVENT_ENERGY_PJ",
    "DEFAULT_FREQUENCY_HZ",
    "DEFAULT_HIT_LATENCY",
    "DEFAULT_LINE_BYTES",
]

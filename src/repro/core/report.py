"""Simulation reports: the measured quantities every figure draws on.

A :class:`SimReport` captures one kernel execution (or one pass of an
iterative kernel); :func:`combine` folds the per-pass reports of an
iterative algorithm into a whole-run report.  :func:`report_json` is
the one canonical encoding of a report dataclass, shared by the
serving runtime and the artifact store.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, Iterable, Optional

from repro.sim.stats import CounterSet


@dataclass
class SimReport:
    """Outcome of one simulated kernel execution."""

    kernel: str
    cycles: float = 0.0
    frequency_hz: float = 2.5e9
    #: Useful payload: bytes of true non-zero values consumed.
    useful_bytes: float = 0.0
    #: All bytes streamed (dense-block zeros and vector refills included).
    streamed_bytes: float = 0.0
    #: Cycles attributable to the serial D-SymGS chains.
    sequential_cycles: float = 0.0
    #: Cycles the local cache was busy (overlapped with streaming).
    cache_busy_cycles: float = 0.0
    #: Reconfiguration cycles that could not hide under the tree drain.
    exposed_reconfig_cycles: float = 0.0
    n_entries: int = 0
    n_switches: int = 0
    counters: CounterSet = field(default_factory=CounterSet)
    energy_j: float = 0.0
    #: Cycles per data-path type, e.g. {"gemv": 1200.0, "d-symgs": 400.0}.
    datapath_cycles: Dict[str, float] = field(default_factory=dict)
    bytes_per_cycle: float = 115.2

    @property
    def seconds(self) -> float:
        return self.cycles / self.frequency_hz

    @property
    def bandwidth_utilization(self) -> float:
        """Useful payload over peak deliverable bytes (Figure 15 lines)."""
        if self.cycles <= 0:
            return 0.0
        return min(1.0, self.useful_bytes / (self.cycles
                                             * self.bytes_per_cycle))

    @property
    def stream_utilization(self) -> float:
        """All streamed bytes over peak deliverable bytes."""
        if self.cycles <= 0:
            return 0.0
        return min(1.0, self.streamed_bytes / (self.cycles
                                               * self.bytes_per_cycle))

    @property
    def sequential_fraction(self) -> float:
        """Share of cycles spent in the dependent data path."""
        if self.cycles <= 0:
            return 0.0
        return self.sequential_cycles / self.cycles

    @property
    def cache_time_fraction(self) -> float:
        """Cache-busy share of execution (Figure 18 lines)."""
        if self.cycles <= 0:
            return 0.0
        return min(1.0, self.cache_busy_cycles / self.cycles)

    def clone(self) -> "SimReport":
        """An independent copy of this report.

        Because every timing/energy/counter quantity of a pass depends
        only on the programmed block structure — never on operand values
        — a compiled plan prices one report at compile time
        (:func:`repro.core.pricing.price_pass`) and clones it per run.
        The mutable members (counters, data-path cycles) are copied so
        callers can annotate a clone freely.
        """
        return replace(self, counters=self.counters.copy(),
                       datapath_cycles=dict(self.datapath_cycles))

    def scaled(self, factor: float) -> "SimReport":
        """Extrapolate this report to ``factor`` identical passes."""
        return SimReport(
            kernel=self.kernel,
            cycles=self.cycles * factor,
            frequency_hz=self.frequency_hz,
            useful_bytes=self.useful_bytes * factor,
            streamed_bytes=self.streamed_bytes * factor,
            sequential_cycles=self.sequential_cycles * factor,
            cache_busy_cycles=self.cache_busy_cycles * factor,
            exposed_reconfig_cycles=self.exposed_reconfig_cycles * factor,
            n_entries=int(self.n_entries * factor),
            n_switches=int(self.n_switches * factor),
            counters=self.counters.scaled(factor),
            energy_j=self.energy_j * factor,
            datapath_cycles={k: v * factor
                             for k, v in self.datapath_cycles.items()},
            bytes_per_cycle=self.bytes_per_cycle,
        )


def combine(reports: Iterable[SimReport],
            kernel: Optional[str] = None) -> SimReport:
    """Sum a sequence of per-pass reports into one whole-run report."""
    reports = list(reports)
    if not reports:
        return SimReport(kernel=kernel or "empty")
    total = SimReport(
        kernel=kernel or reports[0].kernel,
        frequency_hz=reports[0].frequency_hz,
        bytes_per_cycle=reports[0].bytes_per_cycle,
    )
    for r in reports:
        total.cycles += r.cycles
        total.useful_bytes += r.useful_bytes
        total.streamed_bytes += r.streamed_bytes
        total.sequential_cycles += r.sequential_cycles
        total.cache_busy_cycles += r.cache_busy_cycles
        total.exposed_reconfig_cycles += r.exposed_reconfig_cycles
        total.n_entries += r.n_entries
        total.n_switches += r.n_switches
        total.energy_j += r.energy_j
        total.counters.merge(r.counters)
        for k, v in r.datapath_cycles.items():
            total.datapath_cycles[k] = total.datapath_cycles.get(k, 0.0) + v
    return total


def report_json(report) -> str:
    """Canonical JSON of a report dataclass: sorted keys, fixed
    separators, a trailing newline.  Byte-equality of two encodings is
    field-equality of the reports, nested reports included — the
    ``repro serve --report-json`` contract the CI determinism smokes
    diff on."""
    return json.dumps(asdict(report), sort_keys=True,
                      separators=(",", ":")) + "\n"

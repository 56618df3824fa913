"""Reconfigurable compute unit (RCU) — §4.3/§4.4, Figure 9.

The RCU is the small, frequently reconfigured part of the compute
engine: a local cache for the addressable vector operands (``x^{t-1}``,
``x^t``, ``b``, the extracted diagonal), FIFOs for the deterministic
streams, a LIFO *link stack* that carries GEMV partials into the
dependent D-SymGS, LUT-based processing elements (multiply, divide, sum,
subtract), and a configurable switch that rewires them per data path.

This model keeps the cache, the link stack and the switch.  The FIFOs
only decouple memory from compute, which the pass-level timing folds
into ``max(stream, compute)``; their depth is modelled in
:mod:`repro.core.detailed`.  The data paths count PE work here, and
:class:`~repro.core.datapaths.DataPathTiming` charges its latency.

Reconfiguration cost model (§4.4): switching data paths requires the
reduction tree to drain, "during which the switch is reconfigured to
prepare it for the next data path.  Therefore, the latency of
configuration is hidden by the latency of draining the adder tree."  The
exposed cost of a switch is therefore ``max(0, reconfig - drain)``; an
ablation can disable the overlap to expose the full latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.errors import ReconfigurationError, SimulationError
from repro.core.config import DataPathType
from repro.sim.buffers import LinkStack
from repro.sim.cache import LocalCache
from repro.sim.stats import CounterSet

#: Cycles to rewrite the configurable switch for one data path; the
#: switch is tiny ("a small reconfigurable computation unit"), so this is
#: on the order of the tree-drain it hides under.
DEFAULT_RECONFIG_CYCLES = 8


@dataclass
class RCUConfig:
    """Static parameters of the RCU."""

    reconfig_cycles: int = DEFAULT_RECONFIG_CYCLES
    #: When False (ablation), reconfiguration no longer overlaps the
    #: reduction-tree drain and its full latency is exposed.
    hide_under_drain: bool = True


class ReconfigurableComputeUnit:
    """Functional + timing model of the RCU."""

    def __init__(self, config: Optional[RCUConfig] = None,
                 cache: Optional[LocalCache] = None) -> None:
        from repro.core.switch import ConfigurableSwitch

        self.config = config or RCUConfig()
        self.cache = cache or LocalCache()
        self.link = LinkStack("link")
        self.switch = ConfigurableSwitch()
        self.counters = CounterSet()
        self._active: Optional[DataPathType] = None
        #: Named vector operands resident behind the cache ports.
        self._operands: Dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Operand management (host writes through the data interface)
    # ------------------------------------------------------------------
    def load_operand(self, name: str, vector: np.ndarray) -> None:
        """Place a vector operand behind a named cache port."""
        self._operands[name] = np.asarray(vector, dtype=np.float64).copy()

    def operand(self, name: str) -> np.ndarray:
        if name not in self._operands:
            raise SimulationError(f"operand {name!r} was never loaded")
        return self._operands[name]

    def read_chunk(self, name: str, start: int, width: int) -> np.ndarray:
        """Read ``width`` elements of an operand through the cache.

        Returns the values; the cache-access cycle cost accumulates in
        :attr:`cache_busy_cycles` so the accelerator can overlap it with
        streaming.
        """
        vec = self.operand(name)
        if start < 0 or start + width > vec.size:
            chunk = np.zeros(width, dtype=np.float64)
            hi = min(vec.size, start + width)
            if start < vec.size:
                chunk[: hi - start] = vec[start:hi]
        else:
            chunk = vec[start:start + width].copy()
        self.cache.read(name, max(0, start), width)
        # The SRAM is pipelined: one chunk access occupies one port
        # cycle; the 4-cycle latency hides behind the FIFO run-ahead.
        self.counters.add("cache_busy_cycles", 1.0)
        return chunk

    def write_chunk(self, name: str, start: int,
                    values: np.ndarray) -> None:
        """Write elements of an operand through the cache."""
        vec = self.operand(name)
        values = np.asarray(values, dtype=np.float64)
        hi = min(vec.size, start + values.size)
        if start < vec.size:
            vec[start:hi] = values[: hi - start]
        self.cache.write(name, max(0, start), values.size)
        self.counters.add("cache_busy_cycles", 1.0)

    @property
    def cache_busy_cycles(self) -> float:
        return self.counters.get("cache_busy_cycles")

    # ------------------------------------------------------------------
    # Reconfiguration
    # ------------------------------------------------------------------
    def reconfigure(self, dp: DataPathType, drain_cycles: int) -> float:
        """Switch the RCU to data path ``dp``; returns *exposed* cycles.

        ``drain_cycles`` is the reduction-tree drain of the data path
        being retired; the switch rewires during the drain, so only the
        excess (if any) stalls the engine.
        """
        if not isinstance(dp, DataPathType):
            raise ReconfigurationError(f"invalid data path {dp!r}")
        if drain_cycles < 0:
            raise ReconfigurationError(
                f"negative drain latency {drain_cycles}"
            )
        if self._active is dp:
            return 0.0
        self._active = dp
        self.counters.add("config_write")
        # Reconfiguration activity = connections actually toggled in the
        # configurable switch (Figure 9's interconnect difference), not
        # a flat per-switch constant.
        toggles = self.switch.install(dp)
        self.counters.add("switch_toggle", float(toggles))
        if self.config.hide_under_drain:
            exposed = max(0.0, float(self.config.reconfig_cycles)
                          - float(drain_cycles))
        else:
            exposed = float(self.config.reconfig_cycles)
        self.counters.add("reconfig_exposed_cycles", exposed)
        return exposed

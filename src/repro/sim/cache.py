"""Local vector cache of the RCU.

Table 5 of the paper configures a 1 KB cache with 64-byte lines and a
4-cycle access latency.  The cache holds the *vector* operands that need
addressable access — ``x^{t-1}``, ``x^t`` and ``b`` — while the matrix
payload streams past it straight into the FCU.

The model is a set-associative cache with LRU replacement, tracked at line
granularity.  The accelerator accesses the cache in ω-element *chunks*
(one vector sub-block per dense data path), which is exactly one 64-byte
line when ω = 8 and doubles are 8 bytes — the design point the paper
chose so that "the values in a cache line are used in succeeding cycles".
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.errors import SimulationError
from repro.sim.stats import CounterSet

#: Table 5 parameters.
DEFAULT_CACHE_BYTES = 1024
DEFAULT_LINE_BYTES = 64
DEFAULT_HIT_LATENCY = 4

#: Miss penalty: one burst from the streaming memory at full bandwidth
#: (64 B / 115.2 B-per-cycle < 1 cycle of transfer) plus controller
#: overhead; we charge a conservative constant.
DEFAULT_MISS_LATENCY = 24


@dataclass
class LocalCache:
    """Set-associative LRU cache with cycle-cost accounting.

    ``read``/``write`` take an abstract *address space* name plus an
    element index, so distinct vector operands (``x_prev``, ``x_curr``,
    ``b``, ``diag``) never alias even though the model does not lay out a
    real address map.
    """

    size_bytes: int = DEFAULT_CACHE_BYTES
    line_bytes: int = DEFAULT_LINE_BYTES
    ways: int = 4
    hit_latency: int = DEFAULT_HIT_LATENCY
    miss_latency: int = DEFAULT_MISS_LATENCY
    element_bytes: int = 8
    counters: CounterSet = field(default_factory=CounterSet)
    _sets: Dict[int, "OrderedDict[Tuple[str, int], bool]"] = field(
        default_factory=dict, repr=False
    )

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.line_bytes <= 0:
            raise SimulationError("cache and line sizes must be positive")
        if self.size_bytes % self.line_bytes:
            raise SimulationError("cache size must be a multiple of line size")
        n_lines = self.size_bytes // self.line_bytes
        if self.ways <= 0 or n_lines % self.ways:
            raise SimulationError(
                f"{n_lines} lines cannot form {self.ways}-way sets"
            )
        self._n_sets = n_lines // self.ways

    @property
    def elements_per_line(self) -> int:
        return self.line_bytes // self.element_bytes

    def _locate(self, space: str, index: int) -> Tuple[int, Tuple[str, int]]:
        """Map (space, element index) to (set index, line tag).

        The space name is folded in with a *stable* hash (CRC32), never
        ``hash()``: per-process hash randomisation would make set
        conflicts — and therefore every cycle count — differ from run
        to run, breaking the simulator's bit-reproducibility contract.
        """
        line_no = index // self.elements_per_line
        set_idx = (zlib.crc32(space.encode()) ^ line_no) % self._n_sets
        return set_idx, (space, line_no)

    def _touch(self, space: str, index: int, dirty: bool) -> Tuple[float, bool]:
        set_idx, tag = self._locate(space, index)
        lines = self._sets.setdefault(set_idx, OrderedDict())
        if tag in lines:
            lines.move_to_end(tag)
            if dirty:
                lines[tag] = True
            return float(self.hit_latency), True
        # Miss: fill, evicting LRU if the set is full.
        if len(lines) >= self.ways:
            _evicted_tag, was_dirty = lines.popitem(last=False)
            self.counters.add("cache_evictions")
            if was_dirty:
                self.counters.add("cache_writebacks")
        lines[tag] = dirty
        return float(self.miss_latency), False

    def read(self, space: str, index: int, count: int = 1) -> float:
        """Read ``count`` consecutive elements; returns cycle cost.

        Consecutive elements in one line cost a single access — this is
        the chunked-fetch behaviour of §4.2(a): a whole ω-chunk of the
        vector operand arrives in one cache access.
        """
        return self._access(space, index, count, dirty=False)

    def write(self, space: str, index: int, count: int = 1) -> float:
        """Write ``count`` consecutive elements; returns cycle cost."""
        return self._access(space, index, count, dirty=True)

    def _access(self, space: str, index: int, count: int, dirty: bool) -> float:
        if count <= 0:
            raise SimulationError(f"cache access of {count} elements")
        epl = self.elements_per_line
        first_line = index // epl
        last_line = (index + count - 1) // epl
        cycles = 0.0
        for line in range(first_line, last_line + 1):
            cost, hit = self._touch(space, line * epl, dirty)
            cycles += cost
            kind = "write" if dirty else "read"
            self.counters.add(f"cache_{kind}s")
            self.counters.add("cache_hits" if hit else "cache_misses")
        return cycles

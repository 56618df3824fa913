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
from typing import Dict, Iterable, List, Tuple

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

    Accesses name an abstract *address space* plus an element index, so
    distinct vector operands (``x_prev``, ``x_curr``, ``b``, ``diag``)
    never alias even though the model does not lay out a real address
    map.  :meth:`replay` makes a sequence of accesses; :meth:`read` and
    :meth:`write` make one.
    """

    size_bytes: int = DEFAULT_CACHE_BYTES
    line_bytes: int = DEFAULT_LINE_BYTES
    ways: int = 4
    hit_latency: int = DEFAULT_HIT_LATENCY
    miss_latency: int = DEFAULT_MISS_LATENCY
    element_bytes: int = 8
    counters: CounterSet = field(default_factory=CounterSet)
    #: Each set's lines, least recently used first: ``(space, line)``
    #: tag to dirty flag.
    _sets: List["OrderedDict[Tuple[str, int], bool]"] = field(
        default_factory=list, init=False, repr=False
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
        self._sets = [OrderedDict() for _ in range(self._n_sets)]

    @property
    def elements_per_line(self) -> int:
        return self.line_bytes // self.element_bytes

    def _locate(self, space: str) -> int:
        """The set-index salt of address space ``space``: its line ``l``
        lives in set ``(salt ^ l) % n_sets``.

        The space name is folded in with a *stable* hash (CRC32), never
        ``hash()``: per-process hash randomisation would make set
        conflicts — and therefore every cycle count — differ from run
        to run, breaking the simulator's bit-reproducibility contract.
        """
        return zlib.crc32(space.encode())

    def read(self, space: str, index: int, count: int = 1) -> float:
        """Read ``count`` consecutive elements; returns cycle cost.

        Consecutive elements in one line cost a single access — this is
        the chunked-fetch behaviour of §4.2(a): a whole ω-chunk of the
        vector operand arrives in one cache access.
        """
        return self.replay(((space, index, count, False),))

    def write(self, space: str, index: int, count: int = 1) -> float:
        """Write ``count`` consecutive elements; returns cycle cost."""
        return self.replay(((space, index, count, True),))

    def replay(self, accesses: Iterable[Tuple[str, int, int, bool]]
               ) -> float:
        """Make ``accesses`` in order — ``(space, index, count, dirty)``
        each, a write when ``dirty`` — and return their total cycle cost.

        The cache's one LRU model: :meth:`read` and :meth:`write` are
        one-access replays.  A batch leaves the same set state and the
        same counter values as its accesses made one at a time, with
        new counters in order of first occurrence, so a pass priced
        from its table replays its whole access sequence in one call.
        """
        epl = self.elements_per_line
        n_sets, ways, sets = self._n_sets, self.ways, self._sets
        salts: Dict[str, int] = {}
        # Line touches by their events, in order of first occurrence.
        touches: Dict[Tuple[str, ...], int] = {}
        try:
            for space, index, count, dirty in accesses:
                if count <= 0:
                    raise SimulationError(f"cache access of {count} elements")
                salt = salts.get(space)
                if salt is None:
                    salt = salts[space] = self._locate(space)
                hit, fill, evict, write_back = _TOUCHES[dirty]
                for line in range(index // epl,
                                  (index + count - 1) // epl + 1):
                    lines = sets[(salt ^ line) % n_sets]
                    tag = (space, line)
                    if tag in lines:
                        lines.move_to_end(tag)
                        if dirty:
                            lines[tag] = True
                        touch = hit
                    elif len(lines) < ways:
                        lines[tag] = dirty
                        touch = fill
                    else:
                        # Miss on a full set: evict its LRU line.
                        touch = (write_back if lines.popitem(last=False)[1]
                                 else evict)
                        lines[tag] = dirty
                    touches[touch] = touches.get(touch, 0) + 1
        finally:
            events: Dict[str, int] = {}
            for touch, times in touches.items():
                for event in touch:
                    events[event] = events.get(event, 0) + times
            for event, times in events.items():
                self.counters.add(event, float(times))
        return float(events.get("cache_hits", 0) * self.hit_latency
                     + events.get("cache_misses", 0) * self.miss_latency)


def _touch_events(kind: str) -> Tuple[Tuple[str, ...], ...]:
    """The events of one line touch by an access of ``kind``, in the
    order they are counted: a hit; a miss filling a free way; a miss
    evicting a clean line; one evicting a dirty line."""
    return ((kind, "cache_hits"), (kind, "cache_misses"),
            ("cache_evictions", kind, "cache_misses"),
            ("cache_evictions", "cache_writebacks", kind, "cache_misses"))


#: :func:`_touch_events` of a read (``False``) and a write (``True``).
_TOUCHES = {False: _touch_events("cache_reads"),
            True: _touch_events("cache_writes")}

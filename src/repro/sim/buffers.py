"""The LIFO link buffer of the RCU.

§4.3 of the paper: "we employ first-in-first-out (FIFO) for ``A_ij`` and
``b``, and use a last-in-first-out (LIFO) stack for the link buffer.  The
link buffer establishes transmissions between the dense data paths."

The link stack carries real values during functional execution (so the
simulated dataflow is the actual dataflow, not a re-derivation) and
counts its accesses for the energy model.  The FIFOs only let memory run
ahead of compute; :mod:`repro.core.detailed` models their depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List

from repro.errors import SimulationError
from repro.sim.stats import CounterSet


@dataclass
class LinkStack:
    """The LIFO *link buffer* that couples GEMV results to D-SymGS.

    §4.4: during runtime the intermediate results generated by GEMV are
    pushed onto the stack; the successive D-SymGS pops them up.  LIFO
    order is what makes the access order of Figure 8 (``l2r`` for GEMVs,
    ``r2l`` for D-SymGS) line up: partial sums pushed left-to-right are
    consumed right-to-left by the dependent data path.
    """

    name: str = "link"
    counters: CounterSet = field(default_factory=CounterSet)
    _items: List[Any] = field(default_factory=list, repr=False)

    def push(self, item: Any) -> None:
        self._items.append(item)
        self.counters.add(f"{self.name}_pushes")

    def pop(self) -> Any:
        if not self._items:
            raise SimulationError(f"link stack {self.name!r} underflow")
        self.counters.add(f"{self.name}_pops")
        return self._items.pop()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def empty(self) -> bool:
        return not self._items

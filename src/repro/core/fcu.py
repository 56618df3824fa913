"""Fixed compute unit (FCU) — §4.3, Figure 9a.

The FCU is the part of the compute engine that never reconfigures: a row
of ALUs whose matrix-side operands stream straight from memory, feeding a
fully pipelined tree of reduce engines (REs).  The interconnections
between the REs "are fixed for all data paths"; what varies per data path
is only the ALU operation (multiply for GEMV/D-SymGS, add for
D-BFS/D-SSSP, AND/divide for D-PR) and the reduction operation (sum or
min), both selected by the RCU's configuration.

The data paths (:mod:`repro.core.datapaths`) compute each block's
values and count the unit's activity here; every FCU cycle is charged by
:class:`~repro.core.datapaths.DataPathTiming` from Table 5's latencies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import CorruptionError, SimulationError
from repro.sim.stats import CounterSet

#: Number of ALUs in the row.  §5.2 sizes the design so the compute
#: logic keeps up with the 288 GB/s stream at 2.5 GHz (115.2 B/cycle =
#: 14.4 doubles/cycle), which needs 16 lanes at one operand per lane per
#: cycle; 16 also packs two ω=8 dot-product slices per cycle.
DEFAULT_N_ALUS = 16


@dataclass
class FixedComputeUnit:
    """The ALU row and reduction tree: geometry, activity, NaN guard."""

    omega: int = 8
    n_alus: int = DEFAULT_N_ALUS
    #: Trap NaN/Inf escaping a *sum* reduction (GEMV/D-SymGS boundaries)
    #: as :class:`~repro.errors.CorruptionError`.  Off by default —
    #: poisoned operands must stay visible in the output unless the user
    #: opts into guarding.  Min-plus paths are exempt: BFS/SSSP use inf
    #: as the legitimate "unreached" distance.
    guard_nonfinite: bool = False
    counters: CounterSet = field(default_factory=CounterSet)

    def __post_init__(self) -> None:
        if self.omega <= 0 or (self.omega & (self.omega - 1)):
            raise SimulationError(
                f"omega must be a positive power of two, got {self.omega}"
            )
        if self.n_alus < self.omega:
            raise SimulationError(
                f"the ALU row ({self.n_alus}) must fit one dot-product "
                f"slice of width omega={self.omega}"
            )

    def check_finite(self, values: np.ndarray, context: str) -> None:
        """NaN/Inf guard at a sum-reduction boundary.

        Only active with :attr:`guard_nonfinite`; raises
        :class:`~repro.errors.CorruptionError` naming the first bad
        lane so a silently corrupted operand is caught the moment it
        reaches the reduce tree instead of poisoning the solve.
        """
        if not self.guard_nonfinite:
            return
        finite = np.isfinite(values)
        if not np.all(finite):
            lane = int(np.argmin(finite))
            raise CorruptionError(
                f"non-finite value {np.asarray(values).ravel()[lane]!r} "
                f"at {context} (lane {lane})"
            )

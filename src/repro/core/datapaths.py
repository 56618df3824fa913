"""Dense data-path implementations (§4.2).

Two classes of data paths:

* **Straightforward** (GEMV, D-BFS, D-SSSP, D-PR): operate on a
  locally-dense ω×ω block of the matrix and an ω-chunk of the vector
  operand, fully pipelined behind the memory stream.
* **Data-dependent** (D-SymGS): the Gauss-Seidel recurrence, rewritten
  as the unified dot product of Equation 3 so it reuses the same dot
  engine; each of its ω steps feeds the newly produced ``x_j^t`` back
  into the operand register by a one-slot shift (Figure 10), so the
  steps are inherently serial.

Each data path exposes a *functional* block operation (exact values,
with FCU/RCU event counting) and a *timing* entry (cycles per block for
the streaming-bound paths, cycles per serial step for D-SymGS).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import SimulationError
from repro.core.config import DataPathType
from repro.core.fcu import FixedComputeUnit
from repro.core.rcu import ReconfigurableComputeUnit

#: Serial-step latency of D-SymGS in steady state: the forwarding path
#: from a freshly produced ``x_j^t`` through one multiplier, one bypass
#: add and the PE divide before ``x_{j+1}^t`` can issue.  The deep
#: reduction tree is off this path (its inputs not involving ``x_j^t``
#: are pre-accumulated), which is what keeps the reconfigurable design
#: "lightweight" rather than latency-bound.
DEFAULT_DSYMGS_STEP_LATENCY = 4


def _require_square_block(block: np.ndarray, omega: int) -> None:
    if block.shape != (omega, omega):
        raise SimulationError(
            f"expected a ({omega}, {omega}) block, got {block.shape}"
        )


# ---------------------------------------------------------------------
# Functional block operations
# ---------------------------------------------------------------------
def gemv_block(fcu: FixedComputeUnit, block: np.ndarray,
               chunk: np.ndarray, reversed_cols: bool = False) -> np.ndarray:
    """GEMV over one block: ``block @ chunk`` (ω partial dot products).

    ``reversed_cols=True`` handles upper-triangle blocks stored in the
    Alrescha format's reversed column order: the operand chunk is read
    right-to-left (the ``r2l``/shift-register behaviour), which restores
    the original product exactly.
    """
    _require_square_block(block, fcu.omega)
    # The r2l read lands in the PE's operand buffer as a contiguous
    # vector; materialise it the same way here so the product is
    # bit-identical to the compiled plan's gathered operands (BLAS picks
    # a different accumulation order for negative-stride views).
    operand = np.ascontiguousarray(chunk[::-1]) if reversed_cols else chunk
    if operand.shape != (fcu.omega,):
        raise SimulationError(
            f"operand chunk must have {fcu.omega} elements"
        )
    nnz = float(np.count_nonzero(block))
    fcu.counters.add("alu_op", nnz)
    # Each row reduction activates up to omega-1 REs; activity again
    # scales with row occupancy.
    fcu.counters.add("re_op", max(0.0, nnz - np.count_nonzero(
        block.any(axis=1))))
    result = block @ operand
    fcu.check_finite(result, "GEMV sum-reduce output")
    return result


def dsymgs_solve(body: np.ndarray, diag: np.ndarray, b_chunk: np.ndarray,
                 x_old_chunk: np.ndarray, acc: np.ndarray,
                 valid_rows: int, omega: int) -> np.ndarray:
    """The arithmetic of one D-SymGS block, without event counting.

    This is the exact recurrence :func:`dsymgs_block` executes — shared
    with the compiled plan layer (:mod:`repro.core.plan`), which accounts
    events through its captured report template instead of live counters.
    The expressions are kept operation-for-operation identical to the
    counted path so both produce bit-identical iterates.
    """
    x_new = np.zeros(omega, dtype=np.float64)
    for r in range(valid_rows):
        row = body[r]
        lower = row[:r]
        upper = row[r + 1:]
        dot = float(lower @ x_new[:r]) + float(upper @ x_old_chunk[r + 1:])
        s = float(acc[r]) + dot
        if diag[r] == 0.0:
            raise SimulationError(
                f"zero diagonal inside D-SymGS block (local row {r})"
            )
        numer = float(b_chunk[r]) - s
        x_new[r] = numer / float(diag[r])
    return x_new


def dsymgs_block(fcu: FixedComputeUnit, rcu: ReconfigurableComputeUnit,
                 body: np.ndarray, diag: np.ndarray, b_chunk: np.ndarray,
                 x_old_chunk: np.ndarray, acc: np.ndarray,
                 valid_rows: int) -> np.ndarray:
    """The dependent D-SymGS data path over one diagonal block.

    Implements Equation 3 step by step: for local row ``r``,

        x_r = (b_r - acc_r - sum_{c<r} B[r,c] x_c^new
                            - sum_{c>r} B[r,c] x_c^old) / diag_r

    where ``acc`` carries the partial sums of this block-row's GEMVs
    (popped from the link stack), ``body`` is the diagonal block with its
    main diagonal zeroed, and ``diag`` is the separately stored diagonal.
    Rows at ``valid_rows`` and beyond are matrix padding and pass through
    unchanged (zero).
    """
    omega = fcu.omega
    _require_square_block(body, omega)
    for r in range(valid_rows):
        nnz = float(np.count_nonzero(body[r]))
        fcu.counters.add("alu_op", nnz)
        fcu.counters.add("re_op", max(0.0, nnz - 1.0) + 1.0)
        rcu.counters.add("pe_op", 2.0)  # the sub and the div per row
    x_new = dsymgs_solve(body, diag, b_chunk, x_old_chunk, acc,
                         valid_rows, omega)
    fcu.check_finite(x_new[:valid_rows], "D-SymGS solve output")
    return x_new


def dbfs_block(fcu: FixedComputeUnit, block: np.ndarray,
               dist_chunk: np.ndarray,
               with_argmin: bool = False):
    """D-BFS over one block: min-plus with unit edge cost.

    Phase 1 of Table 1 ("sum"): candidate distance ``dist[u] + 1`` for
    every edge in the block; phase 2 ("min"): reduce per destination.
    ``block[r, c]`` is the edge weight/flag from source ``c`` (chunk
    element) to destination ``r``.

    With ``with_argmin`` the min tree also reports which lane won —
    the local column index of the best predecessor — enabling
    Graph500-style parent output at no extra stream cost (the tree
    carries a lane tag beside each value).
    """
    _require_square_block(block, fcu.omega)
    mask = block != 0.0
    nnz = float(np.count_nonzero(mask))
    fcu.counters.add("alu_op", nnz)
    fcu.counters.add("re_op", nnz)
    cand = np.where(mask, dist_chunk[np.newaxis, :] + 1.0, np.inf)
    best = cand.min(axis=1)
    if not with_argmin:
        return best
    lanes = np.where(np.isfinite(best), cand.argmin(axis=1), -1)
    return best, lanes


def dsssp_block(fcu: FixedComputeUnit, block: np.ndarray,
                dist_chunk: np.ndarray) -> np.ndarray:
    """D-SSSP over one block: min-plus with the stored edge weights."""
    _require_square_block(block, fcu.omega)
    mask = block != 0.0
    nnz = float(np.count_nonzero(mask))
    fcu.counters.add("alu_op", nnz)
    fcu.counters.add("re_op", nnz)
    cand = np.where(mask, dist_chunk[np.newaxis, :] + block, np.inf)
    return cand.min(axis=1)


def dpr_block(fcu: FixedComputeUnit, rcu: ReconfigurableComputeUnit,
              block: np.ndarray, rank_chunk: np.ndarray,
              outdeg_chunk: np.ndarray) -> np.ndarray:
    """D-PR over one block: select rank/out-degree where an edge exists
    ("AND/division" in Table 1), then sum per destination."""
    _require_square_block(block, fcu.omega)
    mask = block != 0.0
    nnz = float(np.count_nonzero(mask))
    fcu.counters.add("alu_op", nnz)
    fcu.counters.add("re_op", nnz)
    # The divides happen in the RCU PEs, once per chunk element with
    # out-going edges (the quotient is broadcast to the ALU row).
    safe_deg = np.where(outdeg_chunk > 0.0, outdeg_chunk, 1.0)
    active = np.count_nonzero(mask.any(axis=0))
    rcu.counters.add("pe_op", float(active))
    contrib = rank_chunk / safe_deg
    contrib = np.where(outdeg_chunk > 0.0, contrib, 0.0)
    return (np.where(mask, contrib[np.newaxis, :], 0.0)).sum(axis=1)


# ---------------------------------------------------------------------
# Timing
# ---------------------------------------------------------------------
@dataclass(frozen=True)
class DataPathTiming:
    """Per-data-path cycle costs derived from the engine configuration.

    The one model of engine timing: the interpreter, the compiled plans
    and :mod:`repro.core.detailed` take every fill, drain and per-block
    cost from here.  The RCU adds only the share of a reconfiguration
    that the drain does not hide.
    """

    omega: int
    n_alus: int
    mem_bytes_per_cycle: float
    alu_latency: int
    re_sum_latency: int
    re_min_latency: int
    dsymgs_step_latency: int = DEFAULT_DSYMGS_STEP_LATENCY
    pe_div_latency: int = 6
    pe_sub_latency: int = 2
    #: Stored element width.  Table 5 uses double precision (8 B);
    #: 4 models an fp32 deployment's memory traffic (numerics are still
    #: simulated at fp64 — the traffic, not the rounding, is the study).
    element_bytes: int = 8

    @property
    def block_bytes(self) -> int:
        return self.omega * self.omega * self.element_bytes

    @property
    def tree_depth(self) -> int:
        return int(math.ceil(math.log2(self.omega))) if self.omega > 1 else 1

    def stream_cycles_per_block(self) -> float:
        """Memory-side cost of streaming one dense block."""
        return self.block_bytes / self.mem_bytes_per_cycle

    def compute_cycles_per_block(self, dp: DataPathType) -> float:
        """Engine-side throughput cost of one block of data path ``dp``.

        Streaming paths consume ω² operands through ``n_alus`` lanes;
        D-SymGS serialises its ω steps on the forwarding path.
        """
        if dp is DataPathType.D_SYMGS:
            return float(self.omega * self.dsymgs_step_latency)
        return self.omega * self.omega / float(self.n_alus)

    def pipeline_fill(self, dp: DataPathType) -> float:
        """One-off fill latency when a data-path segment starts."""
        re = (self.re_min_latency
              if dp in (DataPathType.D_BFS, DataPathType.D_SSSP)
              else self.re_sum_latency)
        fill = self.alu_latency + self.tree_depth * re
        if dp is DataPathType.D_SYMGS:
            fill += self.pe_sub_latency + self.pe_div_latency
        return float(fill)

    def drain(self, dp: DataPathType) -> float:
        """Tree-drain latency when a data-path segment ends — the window
        that hides the RCU reconfiguration (§4.4)."""
        re = (self.re_min_latency
              if dp in (DataPathType.D_BFS, DataPathType.D_SSSP)
              else self.re_sum_latency)
        return float(self.tree_depth * re)

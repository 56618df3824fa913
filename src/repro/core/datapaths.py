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

Each data path's arithmetic is written once, as a pure function over a
block stack (:func:`gemv_partials`, :func:`minplus_candidates` with
:func:`parent_improve`, :func:`dpr_contributions`, and the two halves
of D-SymGS), which the compiled plans call on whole stacks and the
interpreter on single blocks.  :func:`block_activity` counts a stack's
FCU/RCU work.  Each data path also has a *timing* entry (cycles per
block for the streaming-bound paths, cycles per serial step for
D-SymGS).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.core.config import DataPathType
from repro.core.fcu import FixedComputeUnit

#: Serial-step latency of D-SymGS in steady state: the forwarding path
#: from a freshly produced ``x_j^t`` through one multiplier, one bypass
#: add and the PE divide before ``x_{j+1}^t`` can issue.  The deep
#: reduction tree is off this path (its inputs not involving ``x_j^t``
#: are pre-accumulated), which is what keeps the reconfigurable design
#: "lightweight" rather than latency-bound.
DEFAULT_DSYMGS_STEP_LATENCY = 4

#: Where the FCU guard names a non-finite GEMV partial.
GEMV_GUARD = "GEMV sum-reduce output"


def _require_square_block(block: np.ndarray, omega: int) -> None:
    if block.shape != (omega, omega):
        raise SimulationError(
            f"expected a ({omega}, {omega}) block, got {block.shape}"
        )


# ---------------------------------------------------------------------
# Data-path arithmetic over a block stack
# ---------------------------------------------------------------------
# Blocks are ``[..., ω, ω]`` and operand chunks ``[..., ω]``, so one
# block and a whole stack take the same call.
def gemv_partials(blocks: np.ndarray, chunks: np.ndarray) -> np.ndarray:
    """GEMV: the ω partial dot products of each block with its chunk.
    A solo block and a stack give the same bits (one ``np.matmul``)."""
    return np.matmul(blocks, chunks[..., None])[..., 0]


def minplus_candidates(masks: np.ndarray, chunks: np.ndarray,
                       weights: Optional[np.ndarray] = None,
                       with_argmin: bool = False):
    """D-BFS / D-SSSP: each destination lane's best ``dist + cost``.

    Phase 1 of Table 1 ("sum") adds the cost — 1, or the stored
    ``weights`` for D-SSSP — to ``chunks[..., c]`` for every edge
    ``masks[..., r, c]`` from source lane ``c`` to destination ``r``;
    phase 2 ("min") reduces per destination (``inf`` where no edge).
    ``with_argmin`` also returns the winning source lane, -1 where no
    candidate is finite: ``(best, lanes)``.
    """
    step = 1.0 if weights is None else weights
    cand = np.where(masks, chunks[..., None, :] + step, np.inf)
    best = cand.min(axis=-1)
    if not with_argmin:
        return best
    return best, np.where(np.isfinite(best), cand.argmin(axis=-1), -1)


def parent_improve(best: np.ndarray, best_src: np.ndarray,
                   cand: np.ndarray, cand_src: np.ndarray,
                   lanes: Optional[np.ndarray] = None
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Parent-tracking min: each lane takes a candidate strictly below
    its running minimum ``best``, and the candidate's source vertex
    unless ``lanes`` (the min tree's lane tags) marks it -1.  It folds
    each block's candidates into its block row, then updates the
    output ("compare & update")."""
    improved = cand < best
    take_src = improved if lanes is None else improved & (lanes >= 0)
    return (np.where(improved, cand, best),
            np.where(take_src, cand_src, best_src))


def dpr_contributions(masks: np.ndarray, rank_chunks: np.ndarray,
                      outdeg_chunks: np.ndarray) -> np.ndarray:
    """D-PR: each destination lane's sum of ``rank / outdeg`` over the
    block's edges ("AND/division", then "sum" in Table 1); a source
    without out-edges contributes nothing."""
    has_out = outdeg_chunks > 0.0
    share = np.where(has_out, rank_chunks
                     / np.where(has_out, outdeg_chunks, 1.0), 0.0)
    return np.where(masks, share[..., None, :], 0.0).sum(axis=-1)


def dsymgs_upper_dots(bodies: np.ndarray,
                      x_old: np.ndarray) -> np.ndarray:
    """The x^{t-1} half of D-SymGS over a stack of diagonal blocks.

    ``bodies`` is ``[m, ω, ω]`` (main diagonals zeroed) and ``x_old``
    the ``[m, ω]`` previous-iterate chunks.  Entry ``[i, r]`` of the
    result is ``sum_{c>r} bodies[i, r, c] * x_old[i, c]``, summed left
    to right from 0.0: one column-ordered vector add per ``c``, which
    IEEE 754 rounds the same on every CPU and for every stack height.
    The interpreter calls it with one block, the compiled plan with
    every diagonal block of a sweep.
    """
    m, w = x_old.shape
    upper = np.zeros((m, w))
    for c in range(1, w):
        upper[:, :c] += bodies[:, :c, c] * x_old[:, c, None]
    return upper


def dsymgs_recurrence(body: np.ndarray, diag: np.ndarray,
                      b_chunk: np.ndarray, acc: np.ndarray,
                      upper: np.ndarray, valid_rows: int) -> List[float]:
    """The x^t half of D-SymGS over one diagonal block.

    For local row ``r < valid_rows``, in plain float arithmetic,

        x_r = (b_r - (acc_r + (lower_r + upper_r))) / diag_r

    where ``lower_r = sum_{c<r} body[r, c] * x_c`` is summed left to
    right from 0.0 over the values this recurrence has produced,
    ``acc`` carries the row's GEMV partials and ``upper`` its
    :func:`dsymgs_upper_dots` row.  No BLAS call and no numpy
    reduction decides the order, so the result is the same on every
    CPU.  Returns the ``valid_rows`` new values.
    """
    rows = body.tolist()
    d, b, a, u = (diag.tolist(), b_chunk.tolist(), acc.tolist(),
                  upper.tolist())
    x: List[float] = []
    for r in range(valid_rows):
        if d[r] == 0.0:
            raise SimulationError(
                f"zero diagonal inside D-SymGS block (local row {r})"
            )
        row = rows[r]
        lower = 0.0
        for c in range(r):
            lower += row[c] * x[c]
        x.append((b[r] - (a[r] + (lower + u[r]))) / d[r])
    return x


def block_activity(blocks: np.ndarray, dp: DataPathType, valid_rows=None
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(alu_op, re_op, pe_op)`` of each block of the ``[..., ω, ω]``
    stack ``blocks`` on data path ``dp``, for one operand column.

    GEMV: an ALU op per nonzero, and an RE op per nonzero beyond its
    row's first.  D-BFS, D-SSSP and D-PR: an ALU op and an RE op per
    edge; D-PR adds a PE divide per source lane with an edge (the
    quotient is broadcast to the ALU row).  D-SymGS, over the
    ``valid_rows`` (default ω; the last block row may be short): an ALU
    op per nonzero, at least one RE op, and a PE subtract and divide
    per row.
    """
    row_nnz = np.count_nonzero(blocks, axis=-1)
    if dp is DataPathType.D_SYMGS:
        w = blocks.shape[-1]
        live = np.arange(w) < np.asarray(
            w if valid_rows is None else valid_rows)[..., None]
        return ((row_nnz * live).sum(axis=-1),
                (np.maximum(row_nnz, 1) * live).sum(axis=-1),
                2 * live.sum(axis=-1))
    alu = row_nnz.sum(axis=-1)
    if dp is DataPathType.GEMV:
        return (alu, alu - np.count_nonzero(row_nnz, axis=-1),
                np.zeros_like(alu))
    pe = (np.count_nonzero(np.count_nonzero(blocks, axis=-2), axis=-1)
          if dp is DataPathType.D_PR else np.zeros_like(alu))
    return alu, alu, pe


# ---------------------------------------------------------------------
# Per-block SymGS operations: shape check, r2l read, one call, guard
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
    # vector; materialise it the same way here, as the compiled plan's
    # gathered operands are (BLAS picks a different accumulation order
    # for negative-stride views).
    operand = np.ascontiguousarray(chunk[::-1]) if reversed_cols else chunk
    if operand.shape != (fcu.omega,):
        raise SimulationError(
            f"operand chunk must have {fcu.omega} elements"
        )
    result = gemv_partials(block, operand)
    fcu.check_finite(result, GEMV_GUARD)
    return result


def dsymgs_block(fcu: FixedComputeUnit, body: np.ndarray, diag: np.ndarray,
                 b_chunk: np.ndarray, x_old_chunk: np.ndarray,
                 acc: np.ndarray, valid_rows: int) -> np.ndarray:
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
    x_new = np.zeros(omega)
    x_new[:valid_rows] = dsymgs_recurrence(
        body, diag, b_chunk, acc,
        dsymgs_upper_dots(body[None], x_old_chunk[None])[0], valid_rows)
    fcu.check_finite(x_new[:valid_rows], "D-SymGS solve output")
    return x_new


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

"""The Alrescha locally-dense storage format (§4.5, Figure 13).

The format adapts BCSR with three changes, each dictated by the compute
order of the dense data paths:

* **Order of blocks** — all non-diagonal non-zero blocks of a block-row
  are stored together, followed by that row's diagonal block.  This is
  the reordering that lets the accelerator run every GEMV of a block-row
  back-to-back and only then switch (once) to the dependent D-SymGS.
* **Order of values** — the values of non-diagonal blocks in the *upper*
  triangle are stored with their columns reversed ("the opposite order of
  their original locations"), because the D-SymGS pipeline inserts newly
  produced ``x_j^t`` values by shifting the multiplier operands right, so
  the live ``x^t`` chunk sits in reversed order.
* **Diagonal elements** — for SymGS, the main diagonal of ``A`` is
  excluded from the diagonal blocks and stored separately (it is consumed
  by the PE divide, not the dot-product stream).

Meta-data (block indices = ``Inx_in``/``Inx_out``) is *not* streamed at
runtime; it lives in the configuration table written once at programming
time, so the full memory bandwidth carries payload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

from repro.errors import FormatError
from repro.formats.base import SparseFormat, index_bits
from repro.formats.bcsr import BCSRMatrix
from repro.formats.coo import COOMatrix


@dataclass(frozen=True)
class StreamBlock:
    """One locally-dense block, in stream order.

    ``values`` holds the block exactly as laid out in memory: for
    reversed blocks this is the column-flipped image of the original
    block, and for SymGS diagonal blocks the main diagonal has been
    zeroed out (it lives in :attr:`AlreschaMatrix.diagonal` instead).
    """

    block_row: int
    block_col: int
    is_diagonal: bool
    reversed_cols: bool
    values: np.ndarray

    @property
    def original_values(self) -> np.ndarray:
        """The block as it appears in the source matrix (diag still
        excluded for SymGS diagonal blocks)."""
        if self.reversed_cols:
            return self.values[:, ::-1]
        return self.values


def symgs_natural_order(bcsr: BCSRMatrix
                        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The blocks of a SymGS layout in natural column order.

    Returns ``(source, block_row, block_col)``: BCSR's blocks in storage
    order (``source`` is the BCSR block index) plus, last in its block
    row, a synthetic diagonal block (``source`` -1) for every block row
    that has off-diagonal blocks but no diagonal block.  SymGS needs a
    diagonal data path per such row even though its pivots are zero
    (the solve would be singular; programming rejects it).
    """
    counts = np.diff(bcsr.block_indptr)
    rows = np.repeat(np.arange(bcsr.n_block_rows, dtype=np.int64), counts)
    cols = bcsr.block_cols
    has_diag = np.zeros(bcsr.n_block_rows, dtype=bool)
    has_diag[rows[rows == cols]] = True
    missing = np.flatnonzero((counts > 0) & ~has_diag)
    source = np.concatenate([np.arange(rows.size, dtype=np.int64),
                             np.full(missing.size, -1, dtype=np.int64)])
    rows = np.concatenate([rows, missing])
    cols = np.concatenate([cols, missing])
    # A stable sort keeps storage order within a block row and puts the
    # appended synthetic block after its row's blocks.
    order = np.argsort(rows, kind="stable")
    return source[order], rows[order], cols[order]


class AlreschaMatrix(SparseFormat):
    """Locally-dense Alrescha storage of a square sparse matrix.

    The stream is held as columns: :attr:`blocks`, an ``[m, ω, ω]``
    float64 stack in stream order (each block exactly as laid out in
    memory), and per-block :attr:`block_row`, :attr:`block_col`,
    :attr:`is_diagonal` and :attr:`reversed_cols` arrays.
    :meth:`stream` builds :class:`StreamBlock` views of the stack on
    demand.
    """

    name = "Alrescha"

    def __init__(self, shape: Tuple[int, int], omega: int,
                 blocks: np.ndarray, block_row, block_col, is_diagonal,
                 reversed_cols, diagonal: np.ndarray | None,
                 symgs_layout: bool) -> None:
        self._shape = (int(shape[0]), int(shape[1]))
        self.omega = int(omega)
        self.blocks = np.ascontiguousarray(blocks, dtype=np.float64)
        if self.blocks.ndim != 3 or self.blocks.shape[1:] != (omega, omega):
            raise FormatError(
                f"blocks must be (m, {omega}, {omega}), "
                f"got {self.blocks.shape}")
        self.block_row = np.asarray(block_row, dtype=np.int64)
        self.block_col = np.asarray(block_col, dtype=np.int64)
        self.is_diagonal = np.asarray(is_diagonal, dtype=bool)
        self.reversed_cols = np.asarray(reversed_cols, dtype=bool)
        m = self.blocks.shape[0]
        if any(a.shape != (m,) for a in (self.block_row, self.block_col,
                                         self.is_diagonal,
                                         self.reversed_cols)):
            raise FormatError("one block index pair and flag pair per block")
        self.diagonal = diagonal
        self.symgs_layout = bool(symgs_layout)
        if symgs_layout and diagonal is None:
            raise FormatError("SymGS layout requires the extracted diagonal")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_bcsr(cls, bcsr: BCSRMatrix,
                  symgs_layout: bool = False) -> "AlreschaMatrix":
        """Reformat a BCSR matrix into Alrescha stream order.

        ``symgs_layout=True`` applies all three format changes (block
        reordering with diagonal-last, upper-block column reversal, and
        diagonal extraction).  With ``False`` — the layout used by SpMV
        and the graph kernels — blocks keep BCSR's in-row order and only
        the meta-data-free streaming property applies.
        """
        n_rows, n_cols = bcsr.shape
        if symgs_layout and n_rows != n_cols:
            raise FormatError("SymGS layout requires a square matrix")
        w = bcsr.omega
        if not symgs_layout:
            rows = np.repeat(np.arange(bcsr.n_block_rows, dtype=np.int64),
                             np.diff(bcsr.block_indptr))
            return cls(bcsr.shape, w, bcsr.blocks.copy(), rows,
                       bcsr.block_cols.copy(), np.zeros(rows.size, bool),
                       np.zeros(rows.size, bool), None, False)
        source, rows, cols = symgs_natural_order(bcsr)
        diag = rows == cols
        # Each block row's off-diagonal blocks in natural order, then
        # its diagonal block.
        order = np.lexsort((diag, rows))
        source, rows, cols, diag = (source[order], rows[order],
                                    cols[order], diag[order])
        blocks = np.zeros((source.size, w, w))
        real = source >= 0
        blocks[real] = bcsr.blocks[source[real]]
        # Upper-triangle blocks store their columns reversed.
        upper = cols > rows
        blocks[upper] = blocks[upper][:, :, ::-1]
        lanes = np.arange(w)
        diagonal = np.zeros(bcsr.n_block_rows * w)
        diagonal.reshape(-1, w)[rows[diag]] = blocks[diag][:, lanes, lanes]
        blocks[np.flatnonzero(diag)[:, None], lanes, lanes] = 0.0
        return cls(bcsr.shape, w, blocks, rows, cols, diag, upper,
                   diagonal[:n_rows].copy(), True)

    @classmethod
    def from_coo(cls, coo: COOMatrix, omega: int,
                 symgs_layout: bool = False) -> "AlreschaMatrix":
        return cls.from_bcsr(BCSRMatrix.from_coo(coo, omega), symgs_layout)

    @classmethod
    def from_dense(cls, dense, omega: int,
                   symgs_layout: bool = False) -> "AlreschaMatrix":
        return cls.from_coo(COOMatrix.from_dense(dense), omega, symgs_layout)

    # ------------------------------------------------------------------
    # Stream access
    # ------------------------------------------------------------------
    def stream(self) -> Iterator[StreamBlock]:
        """Blocks in the exact order they stream from memory (their
        ``values`` are views of :attr:`blocks`)."""
        rows = zip(self.block_row.tolist(), self.block_col.tolist(),
                   self.is_diagonal.tolist(), self.reversed_cols.tolist(),
                   self.blocks)
        for row, col, is_diag, reversed_cols, values in rows:
            yield StreamBlock(row, col, is_diag, reversed_cols, values)

    def payload(self) -> np.ndarray:
        """The 1-D value stream as laid out in physical memory."""
        return self.blocks.reshape(-1).copy()

    @property
    def payload_bytes(self) -> int:
        """Bytes streamed per pass over the matrix (8 B doubles)."""
        return self.n_blocks * self.omega * self.omega * 8

    @property
    def n_blocks(self) -> int:
        return int(self.blocks.shape[0])

    @property
    def n_block_rows(self) -> int:
        return -(-self._shape[0] // self.omega)

    @property
    def n_diagonal_blocks(self) -> int:
        return int(np.count_nonzero(self.is_diagonal))

    # ------------------------------------------------------------------
    # SparseFormat API
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        return self._shape

    @property
    def nnz(self) -> int:
        in_blocks = int(np.count_nonzero(self.blocks))
        if self.diagonal is not None:
            in_blocks += int(np.count_nonzero(self.diagonal))
        return in_blocks

    @property
    def stored_values(self) -> int:
        """Streamed slots per pass (dense blocks, zeros included)."""
        return self.n_blocks * self.omega * self.omega

    @property
    def block_density(self) -> float:
        if not self.n_blocks:
            return 0.0
        return self.nnz / max(1, self.stored_values +
                              (self._shape[0] if self.diagonal is not None
                               else 0))

    def to_dense(self) -> np.ndarray:
        w = self.omega
        n_rows, n_cols = self._shape
        nbr = -(-n_rows // w)
        nbc = -(-n_cols // w)
        padded = np.zeros((nbr * w, nbc * w), dtype=np.float64)
        original = np.where(self.reversed_cols[:, None, None],
                            self.blocks[:, :, ::-1], self.blocks)
        tiles = padded.reshape(nbr, w, nbc, w).transpose(0, 2, 1, 3)
        np.add.at(tiles, (self.block_row, self.block_col), original)
        dense = padded[:n_rows, :n_cols]
        if self.diagonal is not None:
            dense = dense.copy()
            idx = np.arange(min(n_rows, n_cols))
            dense[idx, idx] += self.diagonal[: idx.size]
        return dense

    def metadata_bits(self) -> int:
        """Same budget as BCSR: a block index per block + row pointers.

        The crucial difference is *where* the bits live: they are written
        once into the configuration table (``Inx_in``/``Inx_out``) during
        programming and never streamed with the payload.
        """
        col_bits = index_bits(-(-self._shape[1] // self.omega))
        ptr_bits = index_bits(max(self.n_blocks, 1) + 1)
        return self.n_blocks * col_bits + (self.n_block_rows + 1) * ptr_bits

    def runtime_metadata_bits(self) -> int:
        """Meta-data streamed alongside payload at runtime: none."""
        return 0

    def block_rows(self) -> Iterator[Tuple[int, List[StreamBlock]]]:
        """Group the stream by block-row, preserving stream order."""
        blocks = list(self.stream())
        bounds = (np.flatnonzero(np.diff(self.block_row)) + 1).tolist()
        for lo, hi in zip([0] + bounds, bounds + [len(blocks)]):
            if hi > lo:
                yield blocks[lo].block_row, blocks[lo:hi]

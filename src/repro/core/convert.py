"""Algorithm 1: converting sparse kernels to dense data paths.

The host-side, one-time conversion.  Given a kernel type, the sparse
matrix operand and the block width ω, it produces

* the :class:`~repro.core.config.ConfigTable` programmed into the
  accelerator, and
* the matrix reformatted into the Alrescha locally-dense storage format,
  whose stream order matches the table's entry order.

Kernels without (or with straightforward) data dependencies — SpMV, BFS,
SSSP, PR — lower every non-empty block to one instance of their dense
data path.  SymGS lowers to a *majority of parallelisable GEMV* entries
(the non-diagonal blocks) *plus a minority of sequential D-SymGS* entries
(the diagonal blocks); the entries of each block-row are reordered so all
GEMVs run back-to-back before the single switch into D-SymGS.  The
distributive property of the inner products in Equation 2 guarantees the
reordering is exact.

Note on index conventions: the paper's listing is written over columns of
``A^T`` (its line 19 reads "i > j -> port2 = x^{t-1}").  We index by rows
of ``A`` — computing block-row *i* of the output — so blocks *left* of
the diagonal (j < i) read the vector being produced this sweep (``x^t``,
port 1) and blocks right of it read the previous iterate (``x^{t-1}``,
port 2).  The two conventions describe the same dataflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import ConfigError
from repro.formats import AlreschaMatrix, BCSRMatrix, COOMatrix
from repro.formats.alrescha import symgs_natural_order
from repro.formats.base import SparseFormat
from repro.core.config import (
    AccessOrder,
    ConfigTable,
    DataPathType,
    KernelType,
    OperandPort,
    column_code,
)

#: Host-side preprocessing cost per source non-zero, in host cycles.
#: §4: "the conversion complexity from frequently-used storage formats
#: (e.g., CSR and BCSR) is linear in time and requires constant space."
PREPROCESS_CYCLES_PER_NNZ = 4.0

_L2R = column_code(AccessOrder.L2R)
_R2L = column_code(AccessOrder.R2L)
_PORT1 = column_code(OperandPort.PORT1)
_PORT2 = column_code(OperandPort.PORT2)


@dataclass
class ConversionResult:
    """Output of Algorithm 1: the table plus the reformatted operand,
    the two halves the program binary and the device image persist."""

    kernel: KernelType
    omega: int
    table: ConfigTable
    matrix: AlreschaMatrix

    @property
    def reordered(self) -> bool:
        """Whether the table follows §4.1's data-path reordering."""
        return self.table.reordered

    @cached_property
    def nnz(self) -> int:
        """Source non-zeros: the locally-dense format holds each once.

        Counted on first read, so a warm start that never prices useful
        bytes never counts.
        """
        return self.matrix.nnz

    @property
    def n_entries(self) -> int:
        return len(self.table)

    @property
    def n_dependent(self) -> int:
        return self.table.n_dependent

    @property
    def n_parallel(self) -> int:
        return self.n_entries - self.n_dependent

    @property
    def switch_count(self) -> int:
        return self.table.switch_count()

    def preprocess_cycles(self) -> float:
        """One-time host-side conversion cost (linear in nnz)."""
        return PREPROCESS_CYCLES_PER_NNZ * self.nnz


def _to_bcsr(matrix, omega: int) -> BCSRMatrix:
    if isinstance(matrix, BCSRMatrix):
        if matrix.omega != omega:
            raise ConfigError(
                f"matrix blocked at omega={matrix.omega}, requested {omega}"
            )
        return matrix
    if isinstance(matrix, SparseFormat):
        return BCSRMatrix.from_coo(COOMatrix.from_dense(matrix.to_dense()),
                                   omega)
    if hasattr(matrix, "tocoo"):
        return BCSRMatrix.from_coo(COOMatrix.from_scipy(matrix), omega)
    return BCSRMatrix.from_dense(matrix, omega)


def convert(kernel: KernelType, matrix, omega: int = 8,
            reorder: bool = True) -> ConversionResult:
    """Run Algorithm 1.

    Parameters
    ----------
    kernel:
        Which sparse kernel the table implements.
    matrix:
        The sparse matrix operand (dense array, scipy.sparse, or any
        :class:`~repro.formats.SparseFormat`).
    omega:
        Block width; the paper evaluates {8, 16, 32} and selects 8.
    reorder:
        For SymGS only: when True (the paper's design), all GEMV entries
        of a block-row precede its D-SymGS entry.  When False (ablation),
        entries follow the natural column order, interleaving the
        dependent data path mid-row and multiplying the switch count.
    """
    if not isinstance(kernel, KernelType):
        raise ConfigError(f"unknown kernel type {kernel!r}")
    bcsr = _to_bcsr(matrix, omega)
    if kernel is KernelType.SYMGS:
        return _convert_symgs(kernel, bcsr, omega, reorder)
    return _convert_straightforward(kernel, bcsr, omega)


def _convert_straightforward(kernel: KernelType, bcsr: BCSRMatrix,
                             omega: int) -> ConversionResult:
    """Lines 8-12: SpMV/BFS/SSSP/PR lower 1:1 to their dense data path,
    one entry per block in stream order, read left to right from
    port 1."""
    alr = AlreschaMatrix.from_bcsr(bcsr, symgs_layout=False)
    m = alr.n_blocks
    table = ConfigTable.from_columns(
        bcsr.shape[0], omega, dp=np.full(m, column_code(kernel.datapath)),
        block_row=alr.block_row, block_col=alr.block_col,
        order=np.full(m, _L2R), port=np.full(m, _PORT1))
    return ConversionResult(kernel, omega, table, alr)


def _convert_symgs(kernel: KernelType, bcsr: BCSRMatrix, omega: int,
                   reorder: bool) -> ConversionResult:
    """Lines 13-27: split SymGS into GEMV + D-SymGS entries.

    Each block row's off-diagonal blocks become GEMV entries in BCSR
    order (ascending block column) and its diagonal block one D-SymGS
    entry, read right to left: after all the row's GEMVs with §4.1's
    reordering (the SymGS layout's stream order), at its natural column
    position without.  GEMVs left of the diagonal read ``x^t`` (port 1)
    and right of it ``x^{t-1}`` (port 2); their partials go to the link
    stack.  A block row with off-diagonal content but an all-zero
    diagonal block still gets its D-SymGS entry (the layout's synthetic
    zero block), so the singular pivot surfaces when it is programmed.
    """
    if bcsr.shape[0] != bcsr.shape[1]:
        raise ConfigError(f"SymGS requires a square matrix, got {bcsr.shape}")
    alr = AlreschaMatrix.from_bcsr(bcsr, symgs_layout=True)
    if reorder:
        rows, cols = alr.block_row, alr.block_col
    else:
        _source, rows, cols = symgs_natural_order(bcsr)
    diag = rows == cols
    table = ConfigTable.from_columns(
        bcsr.shape[0], omega,
        dp=np.where(diag, column_code(DataPathType.D_SYMGS),
                    column_code(DataPathType.GEMV)),
        block_row=rows, block_col=cols,
        order=np.where(diag, _R2L, _L2R),
        port=np.where(cols < rows, _PORT1, _PORT2),
        reordered=reorder)
    return ConversionResult(kernel, omega, table, alr)

"""Unit tests for Algorithm 1 (kernel -> dense data paths)."""

import numpy as np
import pytest

from repro.core import DataPathType, KernelType, NO_CACHE_WRITE, OperandPort
from repro.core import convert
from repro.core.config import AccessOrder
from repro.errors import ConfigError
from repro.formats import BCSRMatrix


class TestStraightforwardKernels:
    @pytest.mark.parametrize("kernel", [
        KernelType.SPMV, KernelType.BFS, KernelType.SSSP,
        KernelType.PAGERANK,
    ])
    def test_one_entry_per_nonempty_block(self, spd_small, kernel):
        conv = convert(kernel, spd_small, omega=8)
        bcsr = BCSRMatrix.from_dense(spd_small, 8)
        assert len(conv.table) == bcsr.n_blocks

    def test_spmv_entries_are_gemv(self, spd_small):
        conv = convert(KernelType.SPMV, spd_small, omega=8)
        assert all(e.dp is DataPathType.GEMV for e in conv.table)
        assert conv.n_dependent == 0

    def test_entries_carry_block_indices(self, spd_small):
        conv = convert(KernelType.SPMV, spd_small, omega=8)
        for e in conv.table:
            assert e.inx_in == e.block_col * 8
            assert e.inx_out == e.block_row * 8
            assert e.order is AccessOrder.L2R

    def test_bfs_entries_use_dbfs(self, small_digraph):
        conv = convert(KernelType.BFS, small_digraph.T.tocsr(), omega=8)
        assert all(e.dp is DataPathType.D_BFS for e in conv.table)


class TestSymGSConversion:
    def test_majority_gemv_minority_dsymgs(self, spd_medium):
        conv = convert(KernelType.SYMGS, spd_medium, omega=8)
        assert conv.n_parallel > conv.n_dependent
        assert conv.n_dependent >= 1

    def test_one_dsymgs_per_nonempty_block_row(self, spd_medium):
        conv = convert(KernelType.SYMGS, spd_medium, omega=8)
        dsymgs_rows = [e.block_row for e in conv.table
                       if e.dp is DataPathType.D_SYMGS]
        assert len(dsymgs_rows) == len(set(dsymgs_rows))

    def test_reordered_gemvs_precede_dsymgs_within_row(self, spd_medium):
        conv = convert(KernelType.SYMGS, spd_medium, omega=8)
        seen_diag_for_row = set()
        for e in conv.table:
            if e.dp is DataPathType.D_SYMGS:
                seen_diag_for_row.add(e.block_row)
            else:
                assert e.block_row not in seen_diag_for_row

    def test_gemv_partials_bypass_cache(self, spd_medium):
        conv = convert(KernelType.SYMGS, spd_medium, omega=8)
        for e in conv.table:
            if e.dp is DataPathType.GEMV:
                assert e.inx_out == NO_CACHE_WRITE

    def test_operand_ports_follow_triangle(self, spd_medium):
        """Lower-triangle blocks read x^t (port 1), upper read x^{t-1}."""
        conv = convert(KernelType.SYMGS, spd_medium, omega=8)
        for e in conv.table:
            if e.dp is DataPathType.GEMV:
                if e.block_col < e.block_row:
                    assert e.op is OperandPort.PORT1
                else:
                    assert e.op is OperandPort.PORT2

    def test_dsymgs_access_order_r2l(self, spd_medium):
        conv = convert(KernelType.SYMGS, spd_medium, omega=8)
        for e in conv.table:
            if e.dp is DataPathType.D_SYMGS:
                assert e.order is AccessOrder.R2L

    def test_reordering_moves_diagonal_last(self, spd_medium):
        """Reordered tables end every block row with its D-SymGS; the
        natural (ablation) order leaves it interleaved mid-row."""
        reordered = convert(KernelType.SYMGS, spd_medium, omega=8,
                            reorder=True)
        natural = convert(KernelType.SYMGS, spd_medium, omega=8,
                          reorder=False)
        assert len(reordered.table) == len(natural.table)
        assert reordered.reordered and not natural.reordered

        def diag_is_last_everywhere(conv):
            last_in_row = {}
            for e in conv.table:
                last_in_row[e.block_row] = e
            return all(
                last_in_row[e.block_row] == e
                for e in conv.table if e.dp is DataPathType.D_SYMGS
            )

        assert diag_is_last_everywhere(reordered)
        assert not diag_is_last_everywhere(natural)

    def test_requires_square(self):
        with pytest.raises(ConfigError):
            convert(KernelType.SYMGS, np.ones((4, 8)), omega=4)


class TestConversionResult:
    def test_preprocess_cost_linear_in_nnz(self, spd_small, spd_medium):
        small = convert(KernelType.SPMV, spd_small, omega=8)
        large = convert(KernelType.SPMV, spd_medium, omega=8)
        assert small.preprocess_cycles() < large.preprocess_cycles()
        assert small.nnz == np.count_nonzero(spd_small)
        assert small.preprocess_cycles() == pytest.approx(
            4.0 * small.nnz)

    def test_accepts_prebuilt_bcsr(self, spd_small):
        """A prebuilt BCSR is taken as is: the stream holds its blocks,
        in its order, with its values."""
        bcsr = BCSRMatrix.from_dense(spd_small, 8)
        conv = convert(KernelType.SPMV, bcsr, omega=8)
        want = [(i, j, blk) for i in range(bcsr.n_block_rows)
                for j, blk in bcsr.block_row(i)]
        got = list(conv.matrix.stream())
        assert [(b.block_row, b.block_col) for b in got] \
            == [(i, j) for i, j, _ in want]
        for b, (_i, _j, blk) in zip(got, want):
            np.testing.assert_array_equal(b.values, blk)
        assert conv.nnz == bcsr.nnz

    def test_omega_mismatch_with_bcsr(self, spd_small):
        bcsr = BCSRMatrix.from_dense(spd_small, 4)
        with pytest.raises(ConfigError):
            convert(KernelType.SPMV, bcsr, omega=8)

    def test_unknown_kernel_rejected(self, spd_small):
        with pytest.raises(ConfigError):
            convert("spmv", spd_small, omega=8)

    def test_accepts_scipy(self, small_digraph):
        conv = convert(KernelType.SPMV, small_digraph, omega=4)
        np.testing.assert_allclose(conv.matrix.to_dense(),
                                   small_digraph.toarray())
        assert conv.nnz == small_digraph.nnz

    def test_stream_matches_table_when_reordered(self, spd_medium):
        """The storage format's stream order equals the table order."""
        conv = convert(KernelType.SYMGS, spd_medium, omega=8, reorder=True)
        stream_keys = [(b.block_row, b.block_col)
                       for b in conv.matrix.stream()]
        table_keys = [(e.block_row, e.block_col) for e in conv.table]
        assert stream_keys == table_keys

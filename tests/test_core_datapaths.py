"""Unit tests for the dense data-path implementations (§4.2)."""

import numpy as np
import pytest

from repro.core import AlreschaConfig, DataPathType, FixedComputeUnit, \
    ReconfigurableComputeUnit
from repro.core.datapaths import (
    DataPathTiming,
    dbfs_block,
    dpr_block,
    dsssp_block,
    dsymgs_block,
    gemv_block,
)
from repro.errors import SimulationError


@pytest.fixture
def fcu():
    return FixedComputeUnit()


@pytest.fixture
def rcu():
    return ReconfigurableComputeUnit()


@pytest.fixture
def block(rng):
    b = rng.normal(size=(8, 8))
    b[rng.random((8, 8)) < 0.5] = 0.0
    return b


class TestGEMV:
    def test_matches_numpy(self, fcu, block, rng):
        x = rng.normal(size=8)
        np.testing.assert_allclose(gemv_block(fcu, block, x), block @ x)

    def test_reversed_block_same_product(self, fcu, block, rng):
        """An upper-triangle block stored column-reversed, read r2l,
        produces the original product exactly."""
        x = rng.normal(size=8)
        stored = block[:, ::-1]
        np.testing.assert_allclose(
            gemv_block(fcu, stored, x, reversed_cols=True), block @ x
        )

    def test_wrong_block_shape(self, fcu):
        with pytest.raises(SimulationError):
            gemv_block(fcu, np.zeros((4, 4)), np.zeros(8))

    def test_wrong_chunk_shape(self, fcu, block):
        with pytest.raises(SimulationError):
            gemv_block(fcu, block, np.zeros(4))

    def test_alu_activity_equals_block_nnz(self, fcu, block, rng):
        gemv_block(fcu, block, rng.normal(size=8))
        assert fcu.counters.get("alu_op") == np.count_nonzero(block)


class TestDSymGS:
    def test_solves_block_row_exactly(self, fcu, rcu, rng):
        """One D-SymGS block equals a forward Gauss-Seidel restricted to
        the block, given the external accumulator."""
        n = 8
        body = rng.normal(size=(n, n))
        np.fill_diagonal(body, 0.0)
        diag = rng.uniform(2.0, 4.0, size=n)
        b = rng.normal(size=n)
        x_old = rng.normal(size=n)
        acc = rng.normal(size=n)
        out = dsymgs_block(fcu, rcu, body, diag, b, x_old, acc, n)
        expected = np.zeros(n)
        for r in range(n):
            s = acc[r] + body[r, :r] @ expected[:r] \
                + body[r, r + 1:] @ x_old[r + 1:]
            expected[r] = (b[r] - s) / diag[r]
        np.testing.assert_allclose(out, expected)

    def test_padding_rows_stay_zero(self, fcu, rcu, rng):
        body = np.zeros((8, 8))
        diag = np.ones(8)
        out = dsymgs_block(fcu, rcu, body, diag, np.ones(8),
                           np.zeros(8), np.zeros(8), valid_rows=5)
        np.testing.assert_allclose(out[5:], 0.0)
        np.testing.assert_allclose(out[:5], 1.0)

    def test_zero_diagonal_raises(self, fcu, rcu):
        with pytest.raises(SimulationError):
            dsymgs_block(fcu, rcu, np.zeros((8, 8)), np.zeros(8),
                         np.ones(8), np.zeros(8), np.zeros(8), 8)

    def test_pe_ops_counted(self, fcu, rcu, rng):
        diag = np.ones(8)
        dsymgs_block(fcu, rcu, np.zeros((8, 8)), diag, np.ones(8),
                     np.zeros(8), np.zeros(8), 8)
        # One sub + one div per valid row.
        assert rcu.counters.get("pe_op") == 16.0


class TestGraphBlocks:
    def test_dbfs_min_plus_unit(self, fcu):
        block = np.zeros((8, 8))
        block[0, 1] = 1.0
        block[0, 3] = 1.0
        dist = np.full(8, np.inf)
        dist[1] = 5.0
        dist[3] = 2.0
        out = dbfs_block(fcu, block, dist)
        assert out[0] == pytest.approx(3.0)   # min(5+1, 2+1)
        assert np.isinf(out[1])

    def test_dsssp_uses_weights(self, fcu):
        block = np.zeros((8, 8))
        block[2, 0] = 7.0
        block[2, 1] = 1.5
        dist = np.zeros(8)
        out = dsssp_block(fcu, block, dist)
        assert out[2] == pytest.approx(1.5)

    def test_dsssp_inf_propagates(self, fcu):
        block = np.zeros((8, 8))
        block[0, 1] = 2.0
        dist = np.full(8, np.inf)
        out = dsssp_block(fcu, block, dist)
        assert np.isinf(out[0])

    def test_dpr_sums_rank_over_outdeg(self, fcu, rcu):
        block = np.zeros((8, 8))
        block[0, 1] = 1.0
        block[0, 2] = 1.0
        rank = np.zeros(8)
        rank[1], rank[2] = 0.4, 0.6
        outdeg = np.zeros(8)
        outdeg[1], outdeg[2] = 2.0, 3.0
        out = dpr_block(fcu, rcu, block, rank, outdeg)
        assert out[0] == pytest.approx(0.4 / 2 + 0.6 / 3)

    def test_dpr_ignores_dangling_sources(self, fcu, rcu):
        block = np.zeros((8, 8))
        block[0, 1] = 1.0
        rank = np.full(8, 1.0)
        outdeg = np.zeros(8)  # vertex 1 has no out-edges recorded
        out = dpr_block(fcu, rcu, block, rank, outdeg)
        assert out[0] == 0.0


class TestTiming:
    @pytest.fixture
    def timing(self):
        return DataPathTiming(
            omega=8, n_alus=16, mem_bytes_per_cycle=115.2,
            alu_latency=3, re_sum_latency=3, re_min_latency=1,
        )

    def test_stream_cycles_per_block(self, timing):
        assert timing.stream_cycles_per_block() == pytest.approx(512 / 115.2)

    def test_streaming_paths_are_memory_bound(self, timing):
        compute = timing.compute_cycles_per_block(DataPathType.GEMV)
        assert compute <= timing.stream_cycles_per_block()

    def test_dsymgs_serialises(self, timing):
        dsymgs = timing.compute_cycles_per_block(DataPathType.D_SYMGS)
        gemv = timing.compute_cycles_per_block(DataPathType.GEMV)
        assert dsymgs > 5 * gemv

    def test_min_tree_fills_faster(self, timing):
        assert timing.pipeline_fill(DataPathType.D_BFS) < \
            timing.pipeline_fill(DataPathType.GEMV)

    def test_dsymgs_fill_includes_pes(self, timing):
        assert timing.pipeline_fill(DataPathType.D_SYMGS) > \
            timing.pipeline_fill(DataPathType.GEMV)

    def test_drain_covers_default_reconfig(self, timing):
        """The sum-tree drain (9 cycles) hides the default 8-cycle
        reconfiguration — the §4.4 design point."""
        assert timing.drain(DataPathType.GEMV) >= 8

    def test_table5_tree_depth(self):
        assert AlreschaConfig().timing().tree_depth == 3
        assert AlreschaConfig(omega=16).timing().tree_depth == 4

    def test_table5_sum_fill(self):
        timing = AlreschaConfig().timing()
        # ALU (3) + 3 RE levels x sum latency (3).
        assert timing.pipeline_fill(DataPathType.GEMV) == 12.0

    def test_table5_min_fill_cheaper(self):
        """Table 5: RE latency is 3 for sum, 1 for min."""
        timing = AlreschaConfig().timing()
        # ALU (3) + 3 RE levels x min latency (1).
        assert timing.pipeline_fill(DataPathType.D_BFS) == 6.0
        assert timing.pipeline_fill(DataPathType.D_BFS) < \
            timing.pipeline_fill(DataPathType.GEMV)

    def test_table5_dsymgs_fill(self):
        timing = AlreschaConfig().timing()
        # The GEMV fill plus the PE subtract (2) and divide (6).
        assert timing.pipeline_fill(DataPathType.D_SYMGS) == 20.0

    def test_table5_drains_are_tree_only(self):
        timing = AlreschaConfig().timing()
        assert timing.drain(DataPathType.GEMV) == 9.0
        assert timing.drain(DataPathType.D_BFS) == 3.0

    def test_table5_pe_latencies(self):
        timing = AlreschaConfig().timing()
        assert timing.pe_div_latency == 6
        assert timing.pe_sub_latency == 2

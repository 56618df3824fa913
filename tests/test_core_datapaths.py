"""Unit tests for the dense data-path implementations (§4.2)."""

import numpy as np
import pytest

from repro.core import AlreschaConfig, DataPathType, FixedComputeUnit
from repro.core.datapaths import (
    DataPathTiming,
    block_activity,
    dpr_contributions,
    dsymgs_block,
    dsymgs_upper_dots,
    gemv_block,
    gemv_partials,
    minplus_candidates,
    parent_improve,
)
from repro.errors import SimulationError


@pytest.fixture
def fcu():
    return FixedComputeUnit()


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

    def test_alu_activity_equals_block_nnz(self, block):
        alu, re, pe = block_activity(block, DataPathType.GEMV)
        assert alu == np.count_nonzero(block)
        # Each row's reduction: one RE op per nonzero beyond its first.
        assert re == alu - np.count_nonzero(block.any(axis=1))
        assert pe == 0


class TestDSymGS:
    def test_solves_block_row_exactly(self, fcu, rng):
        """One D-SymGS block equals a forward Gauss-Seidel restricted to
        the block, given the external accumulator."""
        n = 8
        body = rng.normal(size=(n, n))
        np.fill_diagonal(body, 0.0)
        diag = rng.uniform(2.0, 4.0, size=n)
        b = rng.normal(size=n)
        x_old = rng.normal(size=n)
        acc = rng.normal(size=n)
        out = dsymgs_block(fcu, body, diag, b, x_old, acc, n)
        expected = np.zeros(n)
        for r in range(n):
            s = acc[r] + body[r, :r] @ expected[:r] \
                + body[r, r + 1:] @ x_old[r + 1:]
            expected[r] = (b[r] - s) / diag[r]
        np.testing.assert_allclose(out, expected)

    def test_padding_rows_stay_zero(self, fcu, rng):
        body = np.zeros((8, 8))
        diag = np.ones(8)
        out = dsymgs_block(fcu, body, diag, np.ones(8),
                           np.zeros(8), np.zeros(8), valid_rows=5)
        np.testing.assert_allclose(out[5:], 0.0)
        np.testing.assert_allclose(out[:5], 1.0)

    def test_zero_diagonal_raises(self, fcu):
        with pytest.raises(SimulationError):
            dsymgs_block(fcu, np.zeros((8, 8)), np.zeros(8),
                         np.ones(8), np.zeros(8), np.zeros(8), 8)

    def test_pe_ops_counted(self):
        # One sub + one div per valid row.
        _alu, _re, pe = block_activity(np.zeros((8, 8)),
                                       DataPathType.D_SYMGS)
        assert pe == 16

    def test_activity_counts_valid_rows_only(self, block):
        """Over the valid rows: each row's nonzeros as ALU ops, at least
        one RE op per row, two PE ops per row."""
        rows = np.count_nonzero(block[:5], axis=1)
        assert tuple(block_activity(block, DataPathType.D_SYMGS, 5)) \
            == (rows.sum(), np.maximum(rows, 1).sum(), 10)


class TestGraphBlocks:
    def test_dbfs_min_plus_unit(self):
        block = np.zeros((8, 8))
        block[0, 1] = 1.0
        block[0, 3] = 1.0
        dist = np.full(8, np.inf)
        dist[1] = 5.0
        dist[3] = 2.0
        out = minplus_candidates(block != 0.0, dist)
        assert out[0] == pytest.approx(3.0)   # min(5+1, 2+1)
        assert np.isinf(out[1])

    def test_dsssp_uses_weights(self):
        block = np.zeros((8, 8))
        block[2, 0] = 7.0
        block[2, 1] = 1.5
        dist = np.zeros(8)
        out = minplus_candidates(block != 0.0, dist, block)
        assert out[2] == pytest.approx(1.5)

    def test_dsssp_inf_propagates(self):
        block = np.zeros((8, 8))
        block[0, 1] = 2.0
        dist = np.full(8, np.inf)
        out = minplus_candidates(block != 0.0, dist, block)
        assert np.isinf(out[0])

    def test_dpr_sums_rank_over_outdeg(self):
        block = np.zeros((8, 8))
        block[0, 1] = 1.0
        block[0, 2] = 1.0
        rank = np.zeros(8)
        rank[1], rank[2] = 0.4, 0.6
        outdeg = np.zeros(8)
        outdeg[1], outdeg[2] = 2.0, 3.0
        out = dpr_contributions(block != 0.0, rank, outdeg)
        assert out[0] == pytest.approx(0.4 / 2 + 0.6 / 3)

    def test_dpr_ignores_dangling_sources(self):
        block = np.zeros((8, 8))
        block[0, 1] = 1.0
        rank = np.full(8, 1.0)
        outdeg = np.zeros(8)  # vertex 1 has no out-edges recorded
        out = dpr_contributions(block != 0.0, rank, outdeg)
        assert out[0] == 0.0

    @pytest.mark.parametrize("dp", [DataPathType.D_BFS,
                                    DataPathType.D_SSSP])
    def test_min_plus_activity_counts_edges(self, block, dp):
        edges = np.count_nonzero(block)
        assert tuple(block_activity(block, dp)) == (edges, edges, 0)

    def test_dpr_activity_divides_once_per_source_lane(self):
        """The quotient of a source with edges is broadcast to the ALU
        row: one PE divide per source lane, however many edges leave
        it."""
        block = np.zeros((8, 8))
        block[[0, 3, 5], 1] = 1.0
        block[2, 6] = 1.0
        assert tuple(block_activity(block, DataPathType.D_PR)) == (4, 4, 2)


def _same_bits(stacked, per_block):
    """``stacked`` equals the per-block results, stacked, bit for bit."""
    expect = np.stack(per_block)
    assert stacked.shape == expect.shape
    assert stacked.dtype == expect.dtype
    assert stacked.tobytes() == expect.tobytes()


@pytest.mark.parametrize("omega", [8, 4])
class TestStackEqualsPerBlock:
    """Each data path's stack function over ``[m, ω, ω]`` equals the
    per-block operation on each block, bit for bit.  The compiled plans
    call the former on their whole stacks and the interpreter the
    latter, so this equality is what keeps the two engines' answers
    equal; CI reruns it under OpenBLAS's Haswell kernels."""

    M = 512

    @pytest.fixture
    def fcu(self, omega):
        return FixedComputeUnit(omega=omega)

    @pytest.fixture
    def stack(self, rng, omega):
        blocks = rng.normal(size=(self.M, omega, omega))
        blocks[rng.random(blocks.shape) < 0.4] = 0.0
        return blocks

    @pytest.fixture
    def dist(self, rng, omega):
        """Small integer distances (so candidates tie) with unreached
        (``inf``) lanes."""
        dist = rng.integers(0, 3, size=(self.M, omega)).astype(float)
        dist[rng.random(dist.shape) < 0.3] = np.inf
        return dist

    def test_gemv(self, fcu, stack, rng, omega):
        chunks = rng.normal(size=(self.M, omega))
        _same_bits(gemv_partials(stack, chunks),
                   [gemv_block(fcu, b, c) for b, c in zip(stack, chunks)])

    def test_gemv_reversed_lanes(self, fcu, stack, rng, omega):
        """The plan gathers a column-reversed block's lanes reversed;
        the interpreter reads the chunk right-to-left."""
        chunks = rng.normal(size=(self.M, omega))
        _same_bits(gemv_partials(stack, chunks[:, ::-1].copy()),
                   [gemv_block(fcu, b, c, reversed_cols=True)
                    for b, c in zip(stack, chunks)])

    def test_bfs_with_unreached_sources(self, stack, dist):
        _same_bits(minplus_candidates(stack != 0.0, dist),
                   [minplus_candidates(b != 0.0, d)
                    for b, d in zip(stack, dist)])

    def test_sssp_with_unreached_sources(self, stack, dist):
        weights = np.abs(stack)
        _same_bits(minplus_candidates(weights != 0.0, dist, weights),
                   [minplus_candidates(w != 0.0, d, w)
                    for w, d in zip(weights, dist)])

    def test_argmin_lanes_with_ties(self, stack, dist):
        """Tied candidates report the lowest source lane on both forms,
        and lanes no edge reaches report -1."""
        best, lanes = minplus_candidates(stack != 0.0, dist,
                                         with_argmin=True)
        solo = [minplus_candidates(b != 0.0, d, with_argmin=True)
                for b, d in zip(stack, dist)]
        _same_bits(best, [s[0] for s in solo])
        _same_bits(lanes, [s[1] for s in solo])
        cand = np.where(stack != 0.0, dist[:, None, :] + 1.0, np.inf)
        ties = (cand == best[..., None]).sum(axis=-1) > 1
        assert ties.any() and np.isinf(best).any()
        assert (lanes[np.isinf(best)] == -1).all()

    @pytest.mark.parametrize("tagged", [True, False])
    def test_parent_improve(self, stack, dist, rng, omega, tagged):
        """One improve over a stack of rows equals one per row, with
        lane tags (the per-block fold) and without (the update)."""
        cand, lanes = minplus_candidates(stack != 0.0, dist,
                                         with_argmin=True)
        src = np.arange(self.M)[:, None] * omega + lanes
        best = rng.integers(0, 4, size=cand.shape).astype(float)
        best[rng.random(best.shape) < 0.3] = np.inf
        best_src = rng.integers(-1, 50, size=cand.shape)
        rows = [best, best_src, cand, src] + ([lanes] if tagged else [])
        stacked = parent_improve(*rows)
        solo = [parent_improve(*row) for row in zip(*rows)]
        _same_bits(stacked[0], [s[0] for s in solo])
        _same_bits(stacked[1], [s[1] for s in solo])

    def test_dpr_with_zero_outdegrees(self, stack, rng, omega):
        rank = rng.random((self.M, omega))
        outdeg = rng.integers(0, 4, size=(self.M, omega)).astype(float)
        assert (outdeg == 0.0).any()
        _same_bits(dpr_contributions(stack != 0.0, rank, outdeg),
                   [dpr_contributions(b != 0.0, r, d)
                    for b, r, d in zip(stack, rank, outdeg)])

    def test_dsymgs_upper_dots(self, stack, rng, omega):
        x_old = rng.normal(size=(self.M, omega))
        _same_bits(dsymgs_upper_dots(stack, x_old),
                   [dsymgs_upper_dots(b[None], x[None])[0]
                    for b, x in zip(stack, x_old)])

    @pytest.mark.parametrize("dp", list(DataPathType))
    def test_activity(self, stack, rng, omega, dp):
        """Activity over a stack is each block's, whatever the data
        path; D-SymGS with per-block valid rows."""
        valid = rng.integers(0, omega + 1, size=self.M)
        for stacked, solo in zip(
                block_activity(stack, dp, valid),
                zip(*(block_activity(b, dp, v)
                      for b, v in zip(stack, valid)))):
            assert stacked.tolist() == list(solo)


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

"""Tests for the graph data-path passes on the accelerator."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import Alrescha, AlreschaConfig, KernelType


def _transpose_unit(adj):
    at = adj.T.tocsr().copy()
    at.data = np.ones_like(at.data)
    return at


class TestBFSPass:
    def test_single_pass_expands_one_level(self, small_digraph):
        acc = Alrescha.from_matrix(KernelType.BFS,
                                   _transpose_unit(small_digraph))
        dist = np.full(12, np.inf)
        dist[0] = 0.0
        new, _ = acc.run_bfs_pass(dist)
        # Direct successors of 0 are 1, 2, 8.
        assert new[1] == 1.0
        assert new[2] == 1.0
        assert new[8] == 1.0
        assert np.isinf(new[4])

    def test_pass_is_monotone(self, random_digraph, rng):
        acc = Alrescha.from_matrix(KernelType.BFS,
                                   _transpose_unit(random_digraph))
        dist = np.full(60, np.inf)
        dist[0] = 0.0
        for _ in range(4):
            new, _ = acc.run_bfs_pass(dist)
            assert (new <= dist).all()
            dist = new

    def test_report_has_min_datapath(self, small_digraph):
        acc = Alrescha.from_matrix(KernelType.BFS,
                                   _transpose_unit(small_digraph))
        dist = np.full(12, np.inf)
        dist[0] = 0.0
        _new, report = acc.run_bfs_pass(dist)
        assert "d-bfs" in report.datapath_cycles
        assert report.cycles > 0

    @pytest.mark.parametrize("use_plan", [False, True])
    @pytest.mark.parametrize("parents", [False, True])
    def test_edgeless_pass_names_no_datapath(self, use_plan, parents):
        """``datapath_cycles`` names only data paths that ran: a pass
        over a graph without edges streams no block and names none,
        with or without parent tracking, on either engine."""
        acc = Alrescha.from_matrix(KernelType.BFS, sp.csr_matrix((10, 10)),
                                   config=AlreschaConfig(use_plan=use_plan))
        dist = np.full(10, np.inf)
        dist[0] = 0.0
        if parents:
            *_, report = acc.run_bfs_pass_parents(
                dist, np.full(10, -1, dtype=np.int64))
        else:
            _new, report = acc.run_bfs_pass(dist)
        assert report.datapath_cycles == {}


class TestSSSPPass:
    def test_single_pass_relaxes_weighted_edges(self, small_digraph):
        acc = Alrescha.from_matrix(KernelType.SSSP,
                                   small_digraph.T.tocsr())
        dist = np.full(12, np.inf)
        dist[0] = 0.0
        new, _ = acc.run_sssp_pass(dist)
        assert new[1] == pytest.approx(2.0)
        assert new[2] == pytest.approx(5.0)
        assert new[8] == pytest.approx(9.0)

    def test_second_pass_improves_paths(self, small_digraph):
        acc = Alrescha.from_matrix(KernelType.SSSP,
                                   small_digraph.T.tocsr())
        dist = np.full(12, np.inf)
        dist[0] = 0.0
        dist, _ = acc.run_sssp_pass(dist)
        dist, _ = acc.run_sssp_pass(dist)
        # 0 -> 1 -> 2 costs 3, better than direct 5.
        assert dist[2] == pytest.approx(3.0)


class TestPRPass:
    def test_contrib_matches_matrix_product(self, random_digraph, rng):
        structure = random_digraph.copy()
        structure.data = np.ones_like(structure.data)
        acc = Alrescha.from_matrix(KernelType.PAGERANK,
                                   structure.T.tocsr())
        n = 60
        outdeg = np.asarray(structure.sum(axis=1)).ravel().astype(float)
        rank = rng.uniform(0.1, 1.0, size=n)
        contrib, _ = acc.run_pr_pass(rank, outdeg)
        share = np.where(outdeg > 0, rank / np.where(outdeg > 0, outdeg, 1),
                         0.0)
        expected = structure.T.tocsr() @ share
        np.testing.assert_allclose(contrib, expected, atol=1e-12)

    def test_pr_pass_counts_pe_updates(self, small_digraph):
        structure = small_digraph.copy()
        structure.data = np.ones_like(structure.data)
        acc = Alrescha.from_matrix(KernelType.PAGERANK,
                                   structure.T.tocsr())
        outdeg = np.asarray(structure.sum(axis=1)).ravel().astype(float)
        _c, report = acc.run_pr_pass(np.full(12, 1 / 12), outdeg)
        assert report.counters.get("pe_op") > 0

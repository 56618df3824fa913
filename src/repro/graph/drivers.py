"""Accelerated graph-algorithm drivers.

Each driver programs the accelerator once with the *transposed*
adjacency matrix — the vertex-centric model processes, per destination
vertex, all of its in-edges (a row of ``A^T``) against the property
vector — and then iterates synchronous passes until a fixpoint:

* BFS / SSSP: min-plus relaxation passes (Bellman-Ford style); a pass
  that changes nothing terminates the run.
* PageRank: damped power iterations to an L1 tolerance.

Every driver returns the result vector together with the combined
:class:`~repro.core.report.SimReport` across passes, which is what the
Figure 17 benchmark consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from repro.errors import ConvergenceError, DatasetError
from repro.core.accelerator import Alrescha, AlreschaConfig
from repro.core.config import KernelType
from repro.core.report import SimReport, combine


@dataclass
class GraphResult:
    """Outcome of an accelerated graph-algorithm run."""

    values: np.ndarray
    iterations: int
    converged: bool
    report: SimReport
    #: BFS-tree parents (Graph500 style), populated only by
    #: ``run_bfs(..., return_parents=True)``.
    parents: Optional[np.ndarray] = None


def _program(kernel: KernelType, adj: sp.spmatrix,
             config: Optional[AlreschaConfig],
             unit_weights: bool) -> Alrescha:
    adj = adj.tocsr()
    if adj.shape[0] != adj.shape[1]:
        raise DatasetError(f"adjacency must be square, got {adj.shape}")
    at = adj.T.tocsr().copy()
    if unit_weights and at.nnz:
        at.data = np.ones_like(at.data)
    return Alrescha.from_matrix(kernel, at, config=config)


def run_bfs(adj: sp.spmatrix, src: int,
            config: Optional[AlreschaConfig] = None,
            max_passes: Optional[int] = None,
            return_parents: bool = False) -> GraphResult:
    """Breadth-first search from ``src`` on the accelerator.

    With ``return_parents`` the min tree's lane tags are used to build a
    Graph500-style BFS tree; the parent vector lands in
    ``GraphResult.parents`` (source's parent is itself, unreached
    vertices are -1).
    """
    acc = _program(KernelType.BFS, adj, config, unit_weights=True)
    n = acc.n
    if not 0 <= src < n:
        raise DatasetError(f"source {src} out of range for n={n}")
    dist = np.full(n, np.inf)
    dist[src] = 0.0
    if not return_parents:
        return _relax_to_fixpoint(acc.run_bfs_pass, (dist,),
                                  max_passes or n, kernel="bfs")
    parent = np.full(n, -1, dtype=np.int64)
    parent[src] = src
    return _relax_to_fixpoint(acc.run_bfs_pass_parents, (dist, parent),
                              max_passes or n, kernel="bfs")


def run_sssp(adj: sp.spmatrix, src: int,
             config: Optional[AlreschaConfig] = None,
             max_passes: Optional[int] = None) -> GraphResult:
    """Single-source shortest paths on the accelerator (weights >= 0)."""
    if adj.nnz and adj.tocsr().data.min() < 0:
        raise DatasetError("SSSP requires non-negative edge weights")
    acc = _program(KernelType.SSSP, adj, config, unit_weights=False)
    n = acc.n
    if not 0 <= src < n:
        raise DatasetError(f"source {src} out of range for n={n}")
    dist = np.full(n, np.inf)
    dist[src] = 0.0
    return _relax_to_fixpoint(acc.run_sssp_pass, (dist,), max_passes or n,
                              kernel="sssp")


def _relax_to_fixpoint(pass_fn, state, max_passes: int,
                       kernel: str) -> GraphResult:
    """Run relaxation passes until the distances stop changing.

    ``state`` is ``(dist,)``, or ``(dist, parent)`` when the passes
    carry BFS-tree tags; ``pass_fn(*state)`` returns the next state
    followed by the pass's report.
    """
    reports = []
    converged = False
    passes = 0
    for _ in range(max_passes):
        passes += 1
        *new, report = pass_fn(*state)
        reports.append(report)
        unchanged = np.array_equal(
            np.nan_to_num(new[0], posinf=-1.0),
            np.nan_to_num(state[0], posinf=-1.0),
        )
        state = new
        if unchanged:
            converged = True
            break
    return GraphResult(
        values=state[0],
        iterations=passes,
        converged=converged,
        report=combine(reports, kernel=kernel),
        parents=state[1] if len(state) > 1 else None,
    )


def run_pagerank(adj: sp.spmatrix, damping: float = 0.85,
                 tol: float = 1e-8, max_iter: int = 200,
                 config: Optional[AlreschaConfig] = None) -> GraphResult:
    """Damped PageRank on the accelerator.

    Phase 3 of Table 1 (the damping update) and the dangling-mass
    redistribution are scalar host-side steps; the per-edge work — the
    expensive part — runs on the accelerator.
    """
    if not 0.0 < damping < 1.0:
        raise DatasetError(f"damping must be in (0, 1), got {damping}")
    acc = _program(KernelType.PAGERANK, adj, config, unit_weights=True)
    n = acc.n
    structure = adj.tocsr().copy()
    if structure.nnz:
        structure.data = np.ones_like(structure.data)
    outdeg = np.asarray(structure.sum(axis=1)).ravel().astype(np.float64)
    rank = np.full(n, 1.0 / n)
    reports = []
    converged = False
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        contrib, report = acc.run_pr_pass(rank, outdeg)
        reports.append(report)
        dangling = rank[outdeg == 0].sum()
        new = (1.0 - damping) / n + damping * (contrib + dangling / n)
        if np.abs(new - rank).sum() < tol:
            rank = new
            converged = True
            break
        rank = new
    if not converged and iterations >= max_iter:
        # PageRank always converges for 0 < damping < 1; hitting the
        # iteration cap signals a tolerance too tight for float64.
        if tol < 1e-15:
            raise ConvergenceError(
                f"PageRank did not reach tol={tol} in {max_iter} iterations"
            )
    return GraphResult(
        values=rank,
        iterations=iterations,
        converged=converged,
        report=combine(reports, kernel="pagerank"),
    )

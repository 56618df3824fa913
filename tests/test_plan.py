"""Compiled pass plans equal the per-block interpreter exactly.

The plan layer (:mod:`repro.core.plan`) is a pure lowering: same
functional outputs bit for bit, same :class:`SimReport` field for field.
These tests run every kernel through both paths — including
non-multiple-of-omega shapes and real datasets — and compare.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import Alrescha, AlreschaConfig, KernelType
from repro.core.plan import PLAN_KINDS, compile_pass
from repro.errors import SimulationError

REPORT_FIELDS = (
    "kernel", "cycles", "frequency_hz", "useful_bytes", "streamed_bytes",
    "sequential_cycles", "cache_busy_cycles", "exposed_reconfig_cycles",
    "n_entries", "n_switches", "energy_j", "bytes_per_cycle",
)


def assert_reports_identical(plan_rep, legacy_rep):
    """Field-for-field equality, including counters and per-path cycles."""
    for name in REPORT_FIELDS:
        assert getattr(plan_rep, name) == getattr(legacy_rep, name), name
    assert plan_rep.counters.as_dict() == legacy_rep.counters.as_dict()
    assert plan_rep.datapath_cycles == legacy_rep.datapath_cycles


def both_paths(acc, runner):
    """Run ``runner(acc)`` with the plan path, then with the legacy path."""
    acc.config.use_plan = True
    plan_out = runner(acc)
    acc.config.use_plan = False
    legacy_out = runner(acc)
    acc.config.use_plan = True
    return plan_out, legacy_out


def spd_matrix(n, seed=0, density=0.3):
    rng = np.random.default_rng(seed)
    a = np.zeros((n, n))
    nnz = max(1, int(density * n * n))
    i = rng.integers(0, n, size=nnz)
    j = rng.integers(0, n, size=nnz)
    a[i, j] = rng.normal(size=nnz)
    a = (a + a.T) / 2
    np.fill_diagonal(a, 0.0)
    a += np.diag(np.abs(a).sum(axis=1) + 1.0)
    return a


def digraph(n, seed=1, p=0.15):
    rng = np.random.default_rng(seed)
    a = (rng.random((n, n)) < p).astype(float)
    np.fill_diagonal(a, 0.0)
    g = sp.csr_matrix(a)
    g.data = rng.uniform(0.5, 5.0, size=g.nnz)
    return g


# Deliberately awkward sizes: below one block, non-multiples of omega=8,
# exact multiples, and just past a multiple.
SIZES = [5, 13, 16, 63, 70]


@pytest.mark.parametrize("n", SIZES)
def test_spmv_plan_equals_legacy(n):
    a = spd_matrix(n, seed=n)
    acc = Alrescha.from_matrix(KernelType.SPMV, a)
    x = np.random.default_rng(2).normal(size=n)
    (y1, r1), (y0, r0) = both_paths(acc, lambda acc: acc.run_spmv(x))
    np.testing.assert_array_equal(y1, y0)
    assert_reports_identical(r1, r0)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("reorder", [True, False])
def test_symgs_plan_equals_legacy(n, reorder):
    a = spd_matrix(n, seed=n + 1)
    acc = Alrescha.from_matrix(KernelType.SYMGS, a, reorder=reorder)
    rng = np.random.default_rng(3)
    b, x0 = rng.normal(size=n), rng.normal(size=n)
    (x1, r1), (x0_, r0) = both_paths(
        acc, lambda acc: acc.run_symgs_sweep(b, x0))
    np.testing.assert_array_equal(x1, x0_)
    assert_reports_identical(r1, r0)


@pytest.mark.parametrize("n", SIZES)
def test_bfs_plan_equals_legacy(n):
    g = digraph(n, seed=n)
    acc = Alrescha.from_matrix(KernelType.BFS, g)
    dist = np.full(n, np.inf)
    dist[0] = 0.0
    (d1, r1), (d0, r0) = both_paths(acc, lambda acc: acc.run_bfs_pass(dist))
    np.testing.assert_array_equal(d1, d0)
    assert_reports_identical(r1, r0)


@pytest.mark.parametrize("n", SIZES)
def test_bfs_parents_plan_equals_legacy(n):
    g = digraph(n, seed=n + 7)
    acc = Alrescha.from_matrix(KernelType.BFS, g)
    dist = np.full(n, np.inf)
    dist[0] = 0.0
    parent = np.full(n, -1, dtype=np.int64)
    (d1, p1, r1), (d0, p0, r0) = both_paths(
        acc, lambda acc: acc.run_bfs_pass_parents(dist, parent))
    np.testing.assert_array_equal(d1, d0)
    np.testing.assert_array_equal(p1, p0)
    assert_reports_identical(r1, r0)


@pytest.mark.parametrize("n", SIZES)
def test_sssp_plan_equals_legacy(n):
    g = digraph(n, seed=n + 11)
    acc = Alrescha.from_matrix(KernelType.SSSP, g)
    dist = np.full(n, np.inf)
    dist[0] = 0.0
    (d1, r1), (d0, r0) = both_paths(acc, lambda acc: acc.run_sssp_pass(dist))
    np.testing.assert_array_equal(d1, d0)
    assert_reports_identical(r1, r0)


@pytest.mark.parametrize("n", SIZES)
def test_pagerank_plan_equals_legacy(n):
    g = digraph(n, seed=n + 13)
    acc = Alrescha.from_matrix(KernelType.PAGERANK, g)
    rank = np.full(n, 1.0 / n)
    outdeg = np.asarray(g.sum(axis=0)).ravel()
    (k1, r1), (k0, r0) = both_paths(
        acc, lambda acc: acc.run_pr_pass(rank, outdeg))
    np.testing.assert_array_equal(k1, k0)
    assert_reports_identical(r1, r0)


def test_sptrsv_plan_equals_legacy():
    a = spd_matrix(21, seed=42)
    acc = Alrescha.from_matrix(KernelType.SYMGS, a)
    b = np.random.default_rng(5).normal(size=21)
    (x1, r1), (x0, r0) = both_paths(acc, lambda acc: acc.run_sptrsv(b))
    np.testing.assert_array_equal(x1, x0)
    assert_reports_identical(r1, r0)


def test_repeat_runs_share_one_template():
    """Two runs on the plan path yield independent but equal reports."""
    a = spd_matrix(20, seed=9)
    acc = Alrescha.from_matrix(KernelType.SPMV, a)
    x = np.ones(20)
    _, rep_a = acc.run_spmv(x)
    _, rep_b = acc.run_spmv(2 * x)
    assert_reports_identical(rep_a, rep_b)
    rep_a.counters.add("tampered")
    rep_a.datapath_cycles["tampered"] = 1.0
    assert "tampered" not in rep_b.counters
    assert "tampered" not in rep_b.datapath_cycles


def test_reprogram_invalidates_plans():
    acc = Alrescha.from_matrix(KernelType.SPMV, spd_matrix(16, seed=1))
    acc.run_spmv(np.ones(16))
    assert acc.image.plans
    from repro.core import convert
    a2 = spd_matrix(24, seed=2)
    acc.program(convert(KernelType.SPMV, a2, omega=acc.config.omega))
    assert not acc.image.plans
    y, _ = acc.run_spmv(np.ones(24))
    np.testing.assert_allclose(y, a2 @ np.ones(24), atol=1e-9)


def test_compile_plans_is_eager_and_idempotent():
    acc = Alrescha.from_matrix(KernelType.SYMGS, spd_matrix(16, seed=3))
    acc.compile_plans()
    assert "symgs" in acc.image.plans
    first = acc.image.plans["symgs"]
    acc.compile_plans()
    assert acc.image.plans["symgs"] is first


def test_compile_pass_rejects_unknown_kind():
    acc = Alrescha.from_matrix(KernelType.SPMV, spd_matrix(16, seed=4))
    with pytest.raises(SimulationError):
        compile_pass(acc, "not-a-kind")
    assert "symgs" in PLAN_KINDS


def test_plan_rejects_bad_operand_shapes():
    acc = Alrescha.from_matrix(KernelType.SPMV, spd_matrix(16, seed=5))
    with pytest.raises(SimulationError):
        acc.run_spmv(np.ones(17))
    acc = Alrescha.from_matrix(KernelType.SYMGS, spd_matrix(16, seed=5))
    with pytest.raises(SimulationError):
        acc.run_symgs_sweep(np.ones(16), np.ones(15))


def test_use_plan_flag_defaults_on():
    assert AlreschaConfig().use_plan is True


@pytest.mark.parametrize("name,kernel", [
    ("stencil27", KernelType.SPMV),
    ("stencil27", KernelType.SYMGS),
    ("Youtube", KernelType.BFS),
    ("Youtube", KernelType.PAGERANK),
])
def test_dataset_plan_equals_legacy(name, kernel):
    """Dataset-level equivalence on one scientific and one graph matrix."""
    from repro.datasets import load_dataset
    ds = load_dataset(name, scale=0.05)
    acc = Alrescha.from_matrix(kernel, ds.matrix)
    n = acc.n
    rng = np.random.default_rng(17)
    if kernel is KernelType.SPMV:
        x = rng.normal(size=n)
        run = lambda acc: acc.run_spmv(x)
    elif kernel is KernelType.SYMGS:
        b, x0 = rng.normal(size=n), rng.normal(size=n)
        run = lambda acc: acc.run_symgs_sweep(b, x0)
    elif kernel is KernelType.BFS:
        dist = np.full(n, np.inf)
        dist[0] = 0.0
        run = lambda acc: acc.run_bfs_pass(dist)
    else:
        rank = np.full(n, 1.0 / n)
        outdeg = np.asarray(
            sp.csr_matrix(ds.matrix).sum(axis=0)).ravel()
        run = lambda acc: acc.run_pr_pass(rank, outdeg)
    (out1, r1), (out0, r0) = both_paths(acc, run)
    np.testing.assert_array_equal(out1, out0)
    assert_reports_identical(r1, r0)


def test_backend_results_independent_of_plan_flag():
    """A full PCG solve is bit-identical on either path."""
    from repro.solvers.backends import AcceleratorBackend
    from repro.solvers.pcg import pcg
    a = spd_matrix(40, seed=8)
    b = np.random.default_rng(9).normal(size=40)
    results = {}
    for use_plan in (True, False):
        backend = AcceleratorBackend(
            a, config=AlreschaConfig(use_plan=use_plan))
        results[use_plan] = pcg(backend, b, tol=1e-10, max_iter=50)
    r_plan, r_legacy = results[True], results[False]
    np.testing.assert_array_equal(r_plan.x, r_legacy.x)
    assert r_plan.iterations == r_legacy.iterations
    assert_reports_identical(r_plan.report, r_legacy.report)

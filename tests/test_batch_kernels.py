"""Batched multi-RHS kernels: one payload stream, per-column answers.

``run_spmv_batch`` / ``run_symgs_batch`` process a stacked ``(n, k)``
operand panel per ω-block while streaming the programmed payload once
for the whole batch.  The contracts pinned here:

* every answer column is bit-identical to the corresponding solo run,
  on both the compiled-plan and the legacy interpreter path;
* the plan path reproduces the interpreter's batch report field for
  field (the same lowering guarantee the solo plans carry);
* the payload stream appears once — ``dram_requests`` of a k-batch
  equals the solo count, and only the small per-RHS vector traffic
  grows with k;
* FCU compute scales with k while stream cycles do not, so batch
  cycles grow sublinearly.
"""

import numpy as np
import pytest

from repro.core import Alrescha, AlreschaConfig, KernelType
from repro.datasets import load_dataset
from repro.errors import SimulationError
from repro.sim.faults import FaultModel

from tests.test_plan import assert_reports_identical

SCALE = 0.05


@pytest.fixture(scope="module")
def matrix():
    return load_dataset("stencil27", scale=SCALE).matrix


def make(kernel, matrix, use_plan, fault_model=None):
    config = AlreschaConfig(use_plan=use_plan, fault_model=fault_model)
    return Alrescha.from_matrix(kernel, matrix, config=config)


def panel(n, k, seed=0):
    return np.random.default_rng(seed).normal(size=(n, k))


class TestColumnIdentity:
    @pytest.mark.parametrize("use_plan", [False, True])
    @pytest.mark.parametrize("k", [1, 3, 4])
    def test_spmv_batch_columns_equal_solo_runs(self, matrix, use_plan, k):
        x = panel(matrix.shape[0], k)
        batch = make(KernelType.SPMV, matrix, use_plan)
        y, _ = batch.run_spmv_batch(x)
        assert y.shape == x.shape
        solo = make(KernelType.SPMV, matrix, use_plan)
        for col in range(k):
            y1, _ = solo.run_spmv(x[:, col])
            assert np.array_equal(y[:, col], y1)

    @pytest.mark.parametrize("use_plan", [False, True])
    @pytest.mark.parametrize("k", [1, 3, 4])
    def test_symgs_batch_columns_equal_solo_runs(self, matrix, use_plan, k):
        n = matrix.shape[0]
        b, x0 = panel(n, k, seed=1), panel(n, k, seed=2)
        batch = make(KernelType.SYMGS, matrix, use_plan)
        y, _ = batch.run_symgs_batch(b, x0)
        solo = make(KernelType.SYMGS, matrix, use_plan)
        for col in range(k):
            y1, _ = solo.run_symgs_sweep(b[:, col], x0[:, col])
            assert np.array_equal(y[:, col], y1)

    @pytest.mark.parametrize("use_plan", [False, True])
    def test_one_dimensional_operand_is_a_width_one_batch(
            self, matrix, use_plan):
        n = matrix.shape[0]
        x = panel(n, 1)[:, 0]
        acc = make(KernelType.SPMV, matrix, use_plan)
        y, _ = acc.run_spmv_batch(x)
        assert y.shape == (n, 1)
        solo = make(KernelType.SPMV, matrix, use_plan)
        y1, _ = solo.run_spmv(x)
        assert np.array_equal(y[:, 0], y1)


class TestPlanReportIdentity:
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_spmv_batch_plan_matches_interpreter(self, matrix, k):
        x = panel(matrix.shape[0], k)
        plan_acc = make(KernelType.SPMV, matrix, use_plan=True)
        y_plan, rep_plan = plan_acc.run_spmv_batch(x)
        legacy_acc = make(KernelType.SPMV, matrix, use_plan=False)
        y_leg, rep_leg = legacy_acc.run_spmv_batch(x)
        assert np.array_equal(y_plan, y_leg)
        assert_reports_identical(rep_plan, rep_leg)

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_symgs_batch_plan_matches_interpreter(self, matrix, k):
        n = matrix.shape[0]
        b, x0 = panel(n, k, seed=3), panel(n, k, seed=4)
        plan_acc = make(KernelType.SYMGS, matrix, use_plan=True)
        y_plan, rep_plan = plan_acc.run_symgs_batch(b, x0)
        legacy_acc = make(KernelType.SYMGS, matrix, use_plan=False)
        y_leg, rep_leg = legacy_acc.run_symgs_batch(b, x0)
        assert np.array_equal(y_plan, y_leg)
        assert_reports_identical(rep_plan, rep_leg)


class TestPayloadStreamedOnce:
    @pytest.mark.parametrize("kernel,runner", [
        (KernelType.SPMV,
         lambda acc, x: acc.run_spmv_batch(x)),
        (KernelType.SYMGS,
         lambda acc, x: acc.run_symgs_batch(x, np.zeros_like(x))),
    ])
    @pytest.mark.parametrize("use_plan", [False, True])
    def test_dram_requests_do_not_grow_with_k(self, matrix, kernel,
                                              runner, use_plan):
        n = matrix.shape[0]
        k = 4
        solo_acc = make(kernel, matrix, use_plan)
        _, rep1 = runner(solo_acc, panel(n, 1))
        batch_acc = make(kernel, matrix, use_plan)
        _, repk = runner(batch_acc, panel(n, k))
        # The payload stream is issued once per batch: the request
        # count is width-independent.
        assert (repk.counters.get("dram_requests")
                == rep1.counters.get("dram_requests"))
        # Extra traffic is the per-RHS vectors only — far below k
        # full payload streams.
        assert repk.counters.get("dram_bytes") < k * rep1.counters.get(
            "dram_bytes")
        extra = (repk.counters.get("dram_bytes")
                 - rep1.counters.get("dram_bytes"))
        assert extra >= (k - 1) * n * 8  # k-1 extra operand panels

    @pytest.mark.parametrize("use_plan", [False, True])
    def test_batch_cycles_grow_sublinearly(self, matrix, use_plan):
        n = matrix.shape[0]
        k = 4
        solo_acc = make(KernelType.SPMV, matrix, use_plan)
        _, rep1 = solo_acc.run_spmv_batch(panel(n, 1))
        batch_acc = make(KernelType.SPMV, matrix, use_plan)
        _, repk = batch_acc.run_spmv_batch(panel(n, k))
        assert rep1.cycles < repk.cycles < k * rep1.cycles


class TestBatchAccountingFollowsSolo:
    """A width-k SpMV batch charges each column exactly what a solo
    SpMV charges: results stay fp64 at every element width (8 bytes of
    write-back per output element), and an empty matrix reports no
    data-path cycles at all."""

    @pytest.mark.parametrize("use_plan", [False, True])
    @pytest.mark.parametrize("k", [1, 3])
    def test_element_width_only_shrinks_the_payload(self, matrix,
                                                    use_plan, k):
        x = panel(matrix.shape[0], k)

        def streamed(element_bytes, run):
            acc = Alrescha.from_matrix(
                KernelType.SPMV, matrix, config=AlreschaConfig(
                    use_plan=use_plan, element_bytes=element_bytes))
            return run(acc).streamed_bytes

        def solo(acc):
            return acc.run_spmv(x[:, 0])[1]

        def batch(acc):
            return acc.run_spmv_batch(x)[1]

        solo_drop = streamed(8, solo) - streamed(4, solo)
        batch_drop = streamed(8, batch) - streamed(4, batch)
        assert solo_drop > 0.0
        assert batch_drop == solo_drop

    @pytest.mark.parametrize("use_plan", [False, True])
    def test_empty_matrix_reports_no_datapath_cycles(self, use_plan):
        empty = np.zeros((13, 13))
        solo = make(KernelType.SPMV, empty, use_plan)
        _, solo_rep = solo.run_spmv(np.ones(13))
        batch = make(KernelType.SPMV, empty, use_plan)
        _, batch_rep = batch.run_spmv_batch(np.ones((13, 2)))
        assert batch_rep.datapath_cycles == solo_rep.datapath_cycles


class TestBatchValidation:
    @pytest.mark.parametrize("use_plan", [False, True])
    def test_symgs_panel_shapes_must_match(self, matrix, use_plan):
        n = matrix.shape[0]
        acc = make(KernelType.SYMGS, matrix, use_plan)
        with pytest.raises(SimulationError):
            acc.run_symgs_batch(panel(n, 3), panel(n, 2))

    @pytest.mark.parametrize("use_plan", [False, True])
    def test_certain_fault_raises_for_the_whole_batch(self, matrix,
                                                      use_plan):
        from repro.errors import FaultError
        fm = FaultModel(rate=1.0, seed=9, persistent=True)
        acc = make(KernelType.SPMV, matrix, use_plan, fault_model=fm)
        with pytest.raises(FaultError):
            acc.run_spmv_batch(panel(matrix.shape[0], 4))

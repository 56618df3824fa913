"""Failure-injection tests: the simulator fails loudly, not silently.

Corrupted streams, mismatched tables, singular systems and poisoned
values must surface as typed errors (or NaNs that tests can observe),
never as quietly wrong results.  The runtime-fault half exercises the
resilience subsystem end to end: seeded :class:`~repro.sim.faults.
FaultModel` injection, checksum detection, bounded re-stream retries,
cross-check fallback from the compiled plan to the interpreter, and
counter reconciliation against the injection log.
"""

import dataclasses
import functools

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import Alrescha, AlreschaConfig, KernelType, convert, \
    interpreter
from repro.core.config import ConfigEntry, ConfigTable, DataPathType, \
    AccessOrder, OperandPort
from repro.core.convert import ConversionResult
from repro.errors import (CapacityError, ConfigError, ConvergenceError,
                          CorruptionError, FaultError, ReproError,
                          SimulationError)
from repro.sim.faults import FaultModel, payload_checksum


class TestCorruptedPrograms:
    def test_table_referencing_missing_block(self, spd_small):
        conv = convert(KernelType.SPMV, spd_small, omega=8)
        bad_table = ConfigTable(conv.table.n, conv.table.omega)
        for e in conv.table:
            bad_table.add(e)
        # Reference a block that was never streamed.
        bad_table.add(ConfigEntry(
            DataPathType.GEMV, 0, 0, AccessOrder.L2R, OperandPort.PORT1,
            block_row=2, block_col=2,
        ))
        bad = ConversionResult(
            kernel=conv.kernel, omega=conv.omega, table=bad_table,
            matrix=conv.matrix,
        )
        acc = Alrescha()
        present = {(b.block_row, b.block_col)
                   for b in conv.matrix.stream()}
        if (2, 2) in present:
            pytest.skip("fixture happens to contain block (2,2)")
        with pytest.raises(ConfigError):
            acc.program(bad)

    def test_omega_mismatch(self, spd_small):
        conv = convert(KernelType.SPMV, spd_small, omega=4)
        with pytest.raises(ConfigError):
            Alrescha(AlreschaConfig(omega=8)).program(conv)

    def test_every_repro_error_is_catchable_at_base(self, spd_small):
        with pytest.raises(ReproError):
            convert(KernelType.SYMGS, np.ones((4, 8)), omega=4)


class TestSingularSystems:
    def test_zero_diagonal_detected_at_program_time(self):
        """Regression: a zero pivot used to slip through ``program()``
        and only surface as a SimulationError mid-sweep."""
        a = np.eye(16)
        a[5, 5] = 0.0
        a[5, 6] = 1.0  # keep the row non-empty
        a[6, 5] = 1.0
        with pytest.raises(ConfigError, match="row 5"):
            Alrescha.from_matrix(KernelType.SYMGS, a)

    def test_nonfinite_diagonal_detected_at_program_time(self):
        a = np.eye(16)
        a[7, 7] = np.nan
        with pytest.raises(ConfigError, match="row 7"):
            Alrescha.from_matrix(KernelType.SYMGS, a)

    def test_missing_pivot_in_live_block_detected_at_program_time(self):
        """A row whose pivot is zero inside an otherwise live diagonal
        block (the system is singular; D-SymGS cannot divide by it)."""
        a = np.eye(16)
        a[3, :] = 0.0
        a[:, 3] = 0.0
        a[3, 3] = 0.0
        # Whole block row 0 is not empty (other diag entries), so only
        # row 3 inside the diagonal block lacks a pivot.
        with pytest.raises(ConfigError, match="row 3"):
            Alrescha.from_matrix(KernelType.SYMGS, a)


class TestPoisonedValues:
    def test_nan_propagates_visibly_spmv(self, spd_small):
        acc = Alrescha.from_matrix(KernelType.SPMV, spd_small)
        x = np.ones(17)
        x[0] = np.nan
        y, _ = acc.run_spmv(x)
        assert np.isnan(y).any()

    def test_inf_input_does_not_crash_bfs(self, random_digraph):
        at = random_digraph.T.tocsr().copy()
        at.data = np.ones_like(at.data)
        acc = Alrescha.from_matrix(KernelType.BFS, at)
        dist = np.full(60, np.inf)  # no source at all
        new, _ = acc.run_bfs_pass(dist)
        assert np.isinf(new).all()


class TestOperandShapeErrors:
    @pytest.mark.parametrize("kernel,method,args", [
        (KernelType.SPMV, "run_spmv", (np.zeros(5),)),
        (KernelType.BFS, "run_bfs_pass", (np.zeros(5),)),
        (KernelType.SSSP, "run_sssp_pass", (np.zeros(5),)),
    ])
    def test_wrong_length_operands(self, spd_small, kernel, method, args):
        matrix = np.abs(spd_small)  # non-negative weights for sssp
        acc = Alrescha.from_matrix(kernel, matrix)
        with pytest.raises(SimulationError):
            getattr(acc, method)(*args)

    def test_pr_operand_mismatch(self, spd_small):
        acc = Alrescha.from_matrix(KernelType.PAGERANK, np.abs(spd_small))
        with pytest.raises(SimulationError):
            acc.run_pr_pass(np.zeros(17), np.zeros(5))


def _counter_reconciliation(report, fm):
    """Assert the report's fault counters match the injection log."""
    assert report.counters.get("faults_injected") == fm.injected
    assert report.counters.get("faults_detected") == fm.detected
    assert report.counters.get("faults_corrected") == fm.corrected
    assert report.counters.get("retry_cycles") == \
        pytest.approx(fm.total_retry_cycles)


#: Kernel -> (programmed kernel, runner name, batch width or None).
DIFFERENTIAL_KERNELS = {
    "spmv": (KernelType.SPMV, "run_spmv", None),
    "spmv_k2": (KernelType.SPMV, "run_spmv_batch", 2),
    "spmv_k4": (KernelType.SPMV, "run_spmv_batch", 4),
    "bfs": (KernelType.BFS, "run_bfs_pass", None),
    "bfs_parents": (KernelType.BFS, "run_bfs_pass_parents", None),
    "sssp": (KernelType.SSSP, "run_sssp_pass", None),
    "pagerank": (KernelType.PAGERANK, "run_pr_pass", None),
    "symgs": (KernelType.SYMGS, "run_symgs_sweep", None),
    "symgs_k2": (KernelType.SYMGS, "run_symgs_batch", 2),
    "symgs_k4": (KernelType.SYMGS, "run_symgs_batch", 4),
    "sptrsv": (KernelType.SYMGS, "run_sptrsv", None),
}

#: Fault specs that inject on both matrices without exhausting a retry
#: budget — a mix, latency spikes only, drops (re-streams) and silent
#: bitflips — each with whether the run verifies checksums.  Unverified
#: bitflips reach the data paths, so a pass computes on a corrupted copy
#: of its programmed blocks.
DIFFERENTIAL_SPECS = {"0.05:3": True, "0.3:7:latency": True,
                      "0.2:5:drop": True, "0.2:5:bitflip": False}

#: ``(kernel, matrix, spec, omega, element_bytes, reorder)``; only SymGS
#: kernels have a reordering to switch off.
DIFFERENTIAL_CASES = [
    (kernel, matrix, spec, omega, element_bytes, reorder)
    for kernel, (ktype, _runner, _k) in DIFFERENTIAL_KERNELS.items()
    for matrix in ("stencil27", "spd_small")
    for spec in DIFFERENTIAL_SPECS
    for omega in (8, 4)
    for element_bytes in (8, 4)
    for reorder in ((True, False) if ktype is KernelType.SYMGS
                    else (True,))
]


def _case_id(case) -> str:
    kernel, matrix, spec, omega, element_bytes, reorder = case
    return (f"{kernel}-{matrix}-{spec}-w{omega}-e{element_bytes}"
            + ("" if reorder else "-noreorder"))


@functools.lru_cache(maxsize=None)
def _stencil27():
    from repro.datasets import load_dataset
    return load_dataset("stencil27", scale=0.05).matrix


def _engine_run(kernel, matrix, spec, use_plan, reorder=True, **config):
    """Run ``kernel`` once on one engine under fault model ``spec``;
    returns ``(outputs, report fields, fault log)``."""
    ktype, runner, k = DIFFERENTIAL_KERNELS[kernel]
    if ktype is not KernelType.SPMV and ktype is not KernelType.SYMGS:
        matrix = abs(sp.csr_matrix(matrix)).tolil()
        matrix.setdiag(0.0)
        matrix = matrix.tocsr()
        matrix.eliminate_zeros()
    n = matrix.shape[0]
    rng = np.random.default_rng(n)
    shape = (n,) if k is None else (n, k)
    dist = np.full(n, np.inf)
    dist[0] = 0.0
    if ktype is KernelType.SPMV or kernel == "sptrsv":
        operands = (rng.normal(size=shape),)
    elif ktype is KernelType.SYMGS:
        operands = (rng.normal(size=shape), rng.normal(size=shape))
    elif ktype is KernelType.PAGERANK:
        operands = (np.full(n, 1.0 / n), np.asarray(
            (matrix != 0).sum(axis=0), dtype=float).ravel())
    elif kernel == "bfs_parents":
        operands = (dist, np.full(n, -1, dtype=np.int64))
    else:
        operands = (dist,)
    fm = FaultModel.parse(spec)
    acc = Alrescha.from_matrix(
        ktype, matrix, reorder=reorder,
        config=AlreschaConfig(use_plan=use_plan, fault_model=fm,
                              verify_checksums=DIFFERENTIAL_SPECS[spec],
                              **config))
    *outputs, report = getattr(acc, runner)(*operands)
    fields = dataclasses.asdict(report)
    fields["counters"] = report.counters.as_dict()
    return outputs, fields, list(fm.log)


class TestFaultModel:
    def test_deterministic_under_seed(self):
        blocks = [np.full((8, 8), float(i)) for i in range(64)]
        logs = []
        for _ in range(2):
            fm = FaultModel(rate=0.3, seed=7)
            for b in blocks:
                try:
                    fm.deliver(b, payload_checksum(b), restream_cycles=8.0)
                except FaultError:
                    pass
            logs.append([(e.index, e.kind, e.detected, e.corrected,
                          e.retry_cycles, e.detail) for e in fm.log])
        assert logs[0] == logs[1] and logs[0]

    def test_reset_replays_the_same_sequence(self):
        fm = FaultModel(rate=0.5, seed=3, kinds=("latency",))
        b = np.zeros((4, 4))
        first = [fm.deliver(b)[2] is not None for _ in range(32)]
        fm.reset()
        second = [fm.deliver(b)[2] is not None for _ in range(32)]
        assert first == second
        assert fm.transfers == 32

    def test_parse(self):
        fm = FaultModel.parse("0.01:42")
        assert fm.rate == 0.01 and fm.seed == 42
        assert FaultModel.parse("0.5").seed == 0
        with pytest.raises(ConfigError):
            FaultModel.parse("lots")
        with pytest.raises(ConfigError):
            FaultModel(rate=1.5)
        with pytest.raises(ConfigError):
            FaultModel(rate=0.1, kinds=("gamma-ray",))

    def test_rate_zero_is_a_noop(self):
        fm = FaultModel(rate=0.0, seed=1)
        b = np.ones((8, 8))
        vals, extra, event = fm.deliver(b, payload_checksum(b))
        assert vals is b and extra == 0.0 and event is None
        assert fm.injected == 0


class TestRuntimeFaults:
    """Seeded faults through the full stream–compute path."""

    def _run_pair(self, matrix, fault_model, use_plan=False, **cfg):
        """Run SpMV clean and faulted on identically programmed engines."""
        x = np.arange(matrix.shape[0], dtype=np.float64)
        clean = Alrescha.from_matrix(
            KernelType.SPMV, matrix,
            config=AlreschaConfig(use_plan=use_plan))
        y_clean, rep_clean = clean.run_spmv(x)
        acc = Alrescha.from_matrix(
            KernelType.SPMV, matrix,
            config=AlreschaConfig(use_plan=use_plan,
                                  fault_model=fault_model, **cfg))
        y, rep = acc.run_spmv(x)
        return y_clean, rep_clean, y, rep, acc

    def test_checksum_detected_bitflip_is_corrected(self, spd_small):
        """A bitflip against the programmed CRC is re-streamed: the
        result is bit-identical to the clean run and every counter
        reconciles with the injection log."""
        fm = FaultModel(rate=0.25, seed=11, kinds=("bitflip",))
        y_clean, _, y, rep, _ = self._run_pair(spd_small, fm)
        assert fm.injected > 0
        assert fm.detected == fm.injected  # CRC catches every flip
        assert fm.corrected == fm.injected
        assert np.array_equal(y, y_clean)
        _counter_reconciliation(rep, fm)
        assert rep.counters.get("retry_cycles") > 0.0

    def test_dropped_burst_is_retried_and_charged(self, spd_small):
        fm = FaultModel(rate=0.2, seed=5, kinds=("drop",))
        y_clean, rep_clean, y, rep, _ = self._run_pair(spd_small, fm)
        assert fm.injected > 0
        assert np.array_equal(y, y_clean)
        _counter_reconciliation(rep, fm)
        # Recovery is visible in time and traffic, not in values.
        assert rep.cycles > rep_clean.cycles
        assert rep.counters.get("fault_restreams") >= fm.injected
        assert rep.counters.get("dram_requests") > \
            rep_clean.counters.get("dram_requests")

    def test_duplicate_burst_discarded_but_charged(self, spd_small):
        fm = FaultModel(rate=0.3, seed=2, kinds=("duplicate",))
        y_clean, rep_clean, y, rep, _ = self._run_pair(spd_small, fm)
        assert fm.injected > 0
        assert np.array_equal(y, y_clean)
        assert rep.cycles > rep_clean.cycles
        assert rep.counters.get("faults_corrected") == fm.injected

    def test_latency_spike_changes_only_timing(self, spd_small):
        fm = FaultModel(rate=0.3, seed=9, kinds=("latency",))
        y_clean, rep_clean, y, rep, _ = self._run_pair(spd_small, fm)
        assert fm.injected > 0
        assert np.array_equal(y, y_clean)
        assert rep.cycles == pytest.approx(
            rep_clean.cycles
            + rep.counters.get("fault_latency_cycles"))

    def test_persistent_fault_exhausts_retries(self, spd_small):
        fm = FaultModel(rate=1.0, seed=0, kinds=("drop",), persistent=True)
        acc = Alrescha.from_matrix(
            KernelType.SPMV, spd_small,
            config=AlreschaConfig(use_plan=False, fault_model=fm))
        with pytest.raises(FaultError, match="re-stream retries"):
            acc.run_spmv(np.ones(17))
        assert fm.log and not fm.log[-1].corrected

    def test_silent_bitflip_without_checksums(self, spd_small):
        """With checksum verification off, a bitflip is delivered
        silently — logged as such, and the result really is wrong
        (which is exactly what the cross-check layer exists for)."""
        fm = FaultModel(rate=0.25, seed=11, kinds=("bitflip",))
        _, _, y, rep, _ = self._run_pair(spd_small, fm,
                                         verify_checksums=False)
        assert fm.injected > 0
        assert fm.detected == 0
        assert all(e.silent for e in fm.log)
        assert rep.counters.get("faults_silent") == fm.injected
        assert rep.counters.get("retry_cycles") == 0.0

    @pytest.mark.parametrize("case", DIFFERENTIAL_CASES,
                             ids=[_case_id(c) for c in DIFFERENTIAL_CASES])
    def test_plan_path_matches_interpreter_under_faults(self, case,
                                                        spd_small):
        """Both engines charge a faulty pass through one rule: the same
        seed gives the same fault log, bitwise-equal answers and a
        field-for-field equal report on every plan kind, stream-bound
        (element_bytes 8) or compute-bound (element_bytes 4 and the
        batches), with and without SymGS reordering.  Activity counts
        come from the programmed blocks, so an unverified bitflip moves
        the answers of both engines alike and neither one's counts."""
        kernel, matrix_name, spec, omega, element_bytes, reorder = case
        matrix = (_stencil27() if matrix_name == "stencil27"
                  else spd_small)
        runs = [_engine_run(kernel, matrix, spec, use_plan,
                            omega=omega, element_bytes=element_bytes,
                            reorder=reorder)
                for use_plan in (False, True)]
        (out_i, rep_i, log_i), (out_p, rep_p, log_p) = runs
        assert log_i, f"{spec} must inject on {matrix_name}"
        assert log_p == log_i
        assert [(o.dtype, o.tobytes()) for o in out_p] \
            == [(o.dtype, o.tobytes()) for o in out_i]
        assert rep_p == rep_i

    def test_crosscheck_falls_back_to_interpreter(self, spd_small):
        """A silent bitflip under the compiled plan is caught by the
        sampled cross-check; the plan's output is discarded, the
        interpreter reruns with forced checksum verification, and the
        final answer is bit-identical to a clean run.  Run with the
        reconfiguration hidden under the drain and exposed, so the
        fallback's report keeps both fields that mirror a counter equal
        to it."""
        x = np.arange(17, dtype=np.float64)
        for hide in (True, False):
            clean = Alrescha.from_matrix(
                KernelType.SPMV, spd_small,
                config=AlreschaConfig(use_plan=True,
                                      hide_reconfig_under_drain=hide))
            y_clean, rep_clean = clean.run_spmv(x)

            fm = FaultModel(rate=0.25, seed=11, kinds=("bitflip",))
            acc = Alrescha.from_matrix(
                KernelType.SPMV, spd_small,
                config=AlreschaConfig(use_plan=True, fault_model=fm,
                                      verify_checksums=False,
                                      crosscheck_rows=1.0,
                                      hide_reconfig_under_drain=hide))
            y, rep = acc.run_spmv(x)
            assert rep.counters.get("crosscheck_mismatches") > 0
            assert rep.counters.get("plan_fallbacks") == 1.0
            assert rep.counters.get("crosscheck_wasted_cycles") > 0.0
            assert acc.plan_degraded
            assert np.array_equal(y, y_clean)
            # The pass ran twice on the hardware: the discarded plan
            # run's blocks are charged beside the rerun's blocks and
            # re-streams, and each mirrored field follows its counter.
            restreams = rep.counters.get("fault_restreams")
            assert restreams > 0
            assert rep.counters.get("dram_requests") == \
                2 * rep_clean.counters.get("dram_requests") + restreams
            assert rep.streamed_bytes == 2 * rep_clean.streamed_bytes \
                + restreams * interpreter.restream_cost(acc.config)[0]
            assert rep.cache_busy_cycles == \
                rep.counters.get("cache_busy_cycles") == \
                2 * rep_clean.cache_busy_cycles
            assert rep.exposed_reconfig_cycles == \
                rep.counters.get("reconfig_exposed_cycles") == \
                2 * rep_clean.exposed_reconfig_cycles
            assert (rep.exposed_reconfig_cycles > 0.0) is not hide
            # Once degraded, later runs go straight to the (verifying)
            # interpreter and keep producing clean answers.
            y2, rep2 = acc.run_spmv(x)
            assert np.array_equal(y2, y_clean)
            assert rep2.counters.get("plan_fallbacks") == 0.0

    def test_clean_crosscheck_passes_without_fallback(self, spd_small):
        x = np.arange(17, dtype=np.float64)
        base = Alrescha.from_matrix(KernelType.SPMV, spd_small,
                                    config=AlreschaConfig(use_plan=True))
        y_base, _ = base.run_spmv(x)
        acc = Alrescha.from_matrix(
            KernelType.SPMV, spd_small,
            config=AlreschaConfig(use_plan=True, crosscheck_rows=0.5))
        y, rep = acc.run_spmv(x)
        assert np.array_equal(y, y_base)
        assert rep.counters.get("crosscheck_rows") > 0
        assert rep.counters.get("crosscheck_mismatches") == 0.0
        assert not acc.plan_degraded

    def test_clean_path_reports_no_fault_counters(self, spd_small):
        """With no fault model attached (the default), no resilience
        counter is even *present* — the clean path is untouched."""
        acc = Alrescha.from_matrix(KernelType.SPMV, spd_small)
        _, rep = acc.run_spmv(np.ones(17))
        for key in ("faults_injected", "faults_detected", "retry_cycles",
                    "crosscheck_rows", "plan_fallbacks"):
            assert key not in rep.counters.as_dict()

    def test_symgs_sweep_survives_detected_faults(self, banded_spd):
        fm = FaultModel(rate=0.15, seed=21, kinds=("bitflip", "drop"))
        r = np.arange(40, dtype=np.float64)
        clean = Alrescha.from_matrix(KernelType.SYMGS, banded_spd,
                                     config=AlreschaConfig(use_plan=False))
        x_clean, _ = clean.run_symgs_sweep(r, np.zeros(40))
        acc = Alrescha.from_matrix(
            KernelType.SYMGS, banded_spd,
            config=AlreschaConfig(use_plan=False, fault_model=fm))
        x, rep = acc.run_symgs_sweep(r, np.zeros(40))
        assert fm.injected > 0
        assert np.array_equal(x, x_clean)
        _counter_reconciliation(rep, fm)


class TestSymgsPlanCrosscheck:
    """The SymGS plan recomputes sampled block rows from the pristine
    payload and the run's x^t and x^{t-1}, as the streaming plans do."""

    @pytest.fixture(scope="class")
    def stencil(self):
        from repro.datasets import load_dataset
        return load_dataset("stencil27", scale=0.05).matrix

    @staticmethod
    def _operands(n, k=None):
        rng = np.random.default_rng(4)
        shape = (n,) if k is None else (n, k)
        return rng.normal(size=shape), rng.normal(size=shape)

    def test_silent_bitflips_degrade_to_the_interpreter(self, stencil):
        b, x_prev = self._operands(stencil.shape[0])
        clean = Alrescha.from_matrix(KernelType.SYMGS, stencil,
                                     config=AlreschaConfig(use_plan=False))
        x_clean, _ = clean.run_symgs_sweep(b, x_prev)
        acc = Alrescha.from_matrix(
            KernelType.SYMGS, stencil,
            config=AlreschaConfig(
                fault_model=FaultModel.parse("0.2:5:bitflip"),
                verify_checksums=False, crosscheck_rows=1.0))
        x, rep = acc.run_symgs_sweep(b, x_prev)
        assert rep.counters.get("crosscheck_mismatches") > 0
        assert rep.counters.get("plan_fallbacks") == 1.0
        assert rep.counters.get("crosscheck_wasted_cycles") > 0.0
        assert acc.plan_degraded
        assert np.array_equal(x, x_clean)

    @pytest.mark.parametrize("k", [None, 3])
    def test_clean_sweep_counts_every_row(self, stencil, k):
        b, x_prev = self._operands(stencil.shape[0], k)
        base = Alrescha.from_matrix(KernelType.SYMGS, stencil)
        acc = Alrescha.from_matrix(
            KernelType.SYMGS, stencil,
            config=AlreschaConfig(crosscheck_rows=1.0))
        run = ((lambda a: a.run_symgs_sweep(b, x_prev)) if k is None
               else (lambda a: a.run_symgs_batch(b, x_prev)))
        x_base, _ = run(base)
        x, rep = run(acc)
        assert np.array_equal(x, x_base)
        assert rep.counters.get("crosscheck_rows") \
            == len(acc.image.rows) * (k or 1)
        assert rep.counters.get("crosscheck_mismatches") == 0.0
        assert not acc.plan_degraded


class TestBfsParentsPlanCrosscheck:
    """The parent-tracking D-BFS plan recomputes sampled block rows'
    minima and argmin-lane parents from the pristine payload, as the
    other compiled plans do."""

    @pytest.fixture(scope="class")
    def graph(self):
        from repro.datasets import load_dataset
        at = load_dataset("Youtube", scale=0.1).matrix.T.tocsr().copy()
        at.data = np.ones_like(at.data)
        return at

    @staticmethod
    def _operands(n):
        rng = np.random.default_rng(4)
        dist = rng.integers(0, 6, size=n).astype(np.float64)
        dist[rng.random(n) < 0.3] = np.inf
        return dist, np.full(n, -1, dtype=np.int64)

    def _clean(self, graph):
        return Alrescha.from_matrix(
            KernelType.BFS, graph,
            config=AlreschaConfig(use_plan=False)).run_bfs_pass_parents(
                *self._operands(graph.shape[0]))

    def test_silent_bitflips_degrade_to_the_interpreter(self, graph):
        dist_clean, parent_clean, _ = self._clean(graph)
        acc = Alrescha.from_matrix(
            KernelType.BFS, graph,
            config=AlreschaConfig(
                fault_model=FaultModel.parse("0.2:5:bitflip"),
                verify_checksums=False, crosscheck_rows=1.0))
        dist, parent, rep = acc.run_bfs_pass_parents(
            *self._operands(graph.shape[0]))
        assert rep.counters.get("crosscheck_mismatches") > 0
        assert rep.counters.get("plan_fallbacks") == 1.0
        assert rep.counters.get("crosscheck_wasted_cycles") > 0.0
        assert acc.plan_degraded
        assert np.array_equal(dist, dist_clean)
        assert np.array_equal(parent, parent_clean)

    def test_clean_pass_counts_every_row(self, graph):
        dist_clean, parent_clean, _ = self._clean(graph)
        acc = Alrescha.from_matrix(
            KernelType.BFS, graph, config=AlreschaConfig(crosscheck_rows=1.0))
        dist, parent, rep = acc.run_bfs_pass_parents(
            *self._operands(graph.shape[0]))
        rows = acc.image.plans["bfs-parents"].artifacts.out_rows
        assert rep.counters.get("crosscheck_rows") == rows.size > 0
        assert rep.counters.get("crosscheck_mismatches") == 0.0
        assert not acc.plan_degraded
        assert np.array_equal(dist, dist_clean)
        assert np.array_equal(parent, parent_clean)


class TestCapacityAndImageIntegrity:
    def test_oversized_image_rejected_at_program_time(self, spd_small):
        with pytest.raises(CapacityError, match="capacity_bytes"):
            Alrescha.from_matrix(
                KernelType.SPMV, spd_small,
                config=AlreschaConfig(memory_capacity_bytes=64))

    def test_default_capacity_accepts_small_systems(self, spd_small):
        acc = Alrescha.from_matrix(KernelType.SPMV, spd_small)
        assert acc.conversion is not None

    def test_device_image_bitflip_fails_checksum(self, spd_small):
        from repro.core.device_image import decode_image, encode_image
        from repro.formats.alrescha import AlreschaMatrix
        matrix = AlreschaMatrix.from_dense(spd_small, omega=8)
        data = bytearray(encode_image(matrix))
        data[-5] ^= 0x10  # corrupt payload, not the header
        with pytest.raises(CorruptionError, match="checksum"):
            decode_image(bytes(data))
        # The pristine image still round-trips.
        decode_image(bytes(bytearray(encode_image(matrix))))


class TestNonFiniteGuards:
    @pytest.mark.parametrize("use_plan", [False, True])
    def test_fcu_guard_catches_poisoned_gemv(self, spd_small, use_plan):
        """With the FCU reduction guard armed, a NaN operand surfaces
        as CorruptionError at the reduce boundary instead of quietly
        poisoning downstream iterations — on the default engine too,
        which sends a guarded accelerator's passes to the interpreter."""
        acc = Alrescha.from_matrix(
            KernelType.SPMV, spd_small,
            config=AlreschaConfig(use_plan=use_plan, guard_nonfinite=True))
        x = np.ones(17)
        x[3] = np.nan
        with pytest.raises(CorruptionError, match="GEMV"):
            acc.run_spmv(x)

    @pytest.mark.parametrize("use_plan", [False, True])
    def test_fcu_guard_catches_poisoned_symgs(self, spd_small, use_plan):
        """A NaN right-hand side is caught where D-SymGS first emits it
        (block row 0, lane 3), on either engine setting."""
        acc = Alrescha.from_matrix(
            KernelType.SYMGS, spd_small,
            config=AlreschaConfig(use_plan=use_plan, guard_nonfinite=True))
        b = np.ones(17)
        b[3] = np.nan
        with pytest.raises(CorruptionError,
                           match=r"D-SymGS solve output \(lane 3\)"):
            acc.run_symgs_sweep(b, np.zeros(17))

    def test_guard_off_by_default_keeps_nan_propagation(self, spd_small):
        acc = Alrescha.from_matrix(KernelType.SPMV, spd_small,
                                   config=AlreschaConfig(use_plan=False))
        x = np.ones(17)
        x[3] = np.nan
        y, _ = acc.run_spmv(x)
        assert np.isnan(y).any()

    def test_jacobi_divergence_names_the_sweep(self):
        from repro.solvers import jacobi
        a = np.array([[1.0, 10.0], [10.0, 1.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ConvergenceError, match="sweep"):
                jacobi(a, np.ones(2), sweeps=500, damping=1.0)


class _FlakyBackend:
    """Reference backend that raises a typed fault on chosen spmv calls."""

    def __init__(self, matrix, fail_on=(), error=FaultError,
                 poison_on=()):
        from repro.solvers import ReferenceBackend
        self._inner = ReferenceBackend(matrix)
        self.n = self._inner.n
        self._calls = 0
        self._fail_on = set(fail_on)
        self._poison_on = set(poison_on)
        self._error = error

    def spmv(self, x):
        self._calls += 1
        if self._calls in self._fail_on:
            raise self._error(f"injected fault on spmv call {self._calls}")
        y = self._inner.spmv(x)
        if self._calls in self._poison_on:
            y = y.copy()
            y[0] = np.nan
        return y

    def precondition(self, r):
        return self._inner.precondition(r)

    def report(self):
        return None


class TestSolverRecovery:
    def test_pcg_checkpoint_restart_recovers(self, spd_small):
        from repro.solvers import pcg
        b = np.ones(17)
        backend = _FlakyBackend(spd_small, fail_on=(4,))
        result = pcg(backend, b, tol=1e-10, max_iter=100,
                     checkpoint_interval=1)
        assert result.converged
        assert result.restarts == 1
        a = np.asarray(spd_small)
        assert np.linalg.norm(a @ result.x - b) < 1e-8 * np.linalg.norm(b)

    def test_pcg_without_checkpointing_propagates(self, spd_small):
        from repro.solvers import pcg
        backend = _FlakyBackend(spd_small, fail_on=(4,))
        with pytest.raises(FaultError):
            pcg(backend, np.ones(17), tol=1e-10, max_iter=100)

    def test_pcg_restart_budget_exhausts(self, spd_small):
        from repro.solvers import pcg
        backend = _FlakyBackend(spd_small,
                                fail_on=tuple(range(2, 40)))
        with pytest.raises(FaultError):
            pcg(backend, np.ones(17), tol=1e-10, max_iter=100,
                checkpoint_interval=1, max_restarts=2)

    def test_pcg_nonfinite_residual_is_typed(self, spd_small):
        from repro.solvers import pcg
        backend = _FlakyBackend(spd_small, poison_on=(2,))
        with pytest.raises(ConvergenceError, match="iteration"):
            pcg(backend, np.ones(17), tol=1e-12, max_iter=100)

    def test_cg_checkpoint_restart_recovers(self, spd_small):
        from repro.solvers import cg
        backend = _FlakyBackend(spd_small, fail_on=(5,))
        result = cg(backend, np.ones(17), tol=1e-10, max_iter=200,
                    checkpoint_interval=1)
        assert result.converged and result.restarts == 1

    def test_multigrid_cycle_retry(self):
        from repro.solvers.multigrid import MultigridPreconditioner
        mg = MultigridPreconditioner(4, 4, 4, n_levels=2,
                                     cycle_retries=1)
        flaky = _FlakyBackend(mg.levels[0].matrix, fail_on=(1,))
        mg.levels[0].backend = flaky
        r = np.ones(mg.levels[0].n)
        z = mg.apply(r)
        assert np.all(np.isfinite(z))
        assert mg.cycles_retried == 1

    def test_multigrid_without_retries_propagates(self):
        from repro.solvers.multigrid import MultigridPreconditioner
        mg = MultigridPreconditioner(4, 4, 4, n_levels=2)
        mg.levels[0].backend = _FlakyBackend(mg.levels[0].matrix,
                                             fail_on=(1,))
        with pytest.raises(FaultError):
            mg.apply(np.ones(mg.levels[0].n))


class TestFaultCLI:
    def test_inject_faults_flag(self, capsys):
        from repro.cli import main
        assert main(["run", "spmv", "--dataset", "stencil27",
                     "--scale", "0.05", "--inject-faults", "0.05:7"]) == 0
        out = capsys.readouterr().out
        assert "faults injected" in out

    def test_bad_fault_spec_is_a_config_error(self, capsys):
        from repro.cli import main
        assert main(["run", "spmv", "--dataset", "stencil27",
                     "--scale", "0.05", "--inject-faults", "nope"]) == 2
        err = capsys.readouterr().err
        assert "RATE[:SEED[:KINDS]]" in err
        assert "'nope'" in err  # the offending token is named


class TestValidationHarness:
    def test_validate_smoke(self):
        from repro.analysis import validate
        report = validate(scale=0.03,
                          datasets=["stencil27", "Youtube"])
        assert report.passed
        assert report.n_passed == len(report.cases) > 0
        assert "ok" in report.summary()

    def test_validation_detects_broken_hardware(self):
        """A mis-configured engine (too-narrow ALU row) fails fast."""
        with pytest.raises(ReproError):
            AlreschaConfig(omega=16, n_alus=8).make_fcu()

"""Trace-driven invariant tests for the tracing/profiling layer.

The tracer turns the paper's *temporal* claims into checkable
structure: reconfiguration hides under the reduction-tree drain
(§4.4/Fig. 10), every block-row's GEMV windows retire before its
D-SymGS window starts, runtime devices serve one job at a time, and
every attributed cycle reconciles with the :class:`SimReport` the run
produced.  The suite asserts each invariant both ways where an ablation
exists, plus the null-tracer guarantee: ``tracer=None`` is bit-identical
to a traced run.
"""

import numpy as np
import pytest

from repro.core import Alrescha, AlreschaConfig, KernelType
from repro.datasets import load_dataset
from repro.errors import CorruptionError, SimulationError
from repro.observe import (
    Span,
    Tracer,
    attribution_rows,
    attribution_table,
    check_device_exclusive,
    check_hedge_cancellation,
    check_no_incident_after_retirement,
    check_no_service_after_timeout,
    check_no_service_in_downtime,
    check_no_service_on_draining_device,
    check_proper_nesting,
    check_reconfig_hidden,
    check_row_ordering,
    check_trace,
    dumps_chrome_trace,
    phase_cycle_totals,
)
from repro.observe.export import EXCLUSIVE_CATS
from repro.runtime import serve
from repro.sim import CounterSet
from repro.sim.faults import FaultModel
from repro.solvers import AcceleratorBackend, ReferenceBackend, pcg
from repro.solvers.cg import cg


SCALE = 0.05


@pytest.fixture(scope="module")
def matrix():
    return load_dataset("stencil27", scale=SCALE).matrix


@pytest.fixture(scope="module")
def rhs(matrix):
    return np.random.default_rng(0).normal(size=matrix.shape[0])


def _traced_symgs(matrix, rhs, **config_kwargs):
    tracer = Tracer()
    acc = Alrescha.from_matrix(
        KernelType.SYMGS, matrix,
        config=AlreschaConfig(tracer=tracer, **config_kwargs))
    x, report = acc.run_symgs_sweep(rhs, np.zeros(rhs.size))
    return tracer, x, report


# ---------------------------------------------------------------------------
# Null-tracer bit-identity (the acceptance-criterion guarantee)
# ---------------------------------------------------------------------------
class TestNullTracerBitIdentity:
    @pytest.mark.parametrize("use_plan", [False, True])
    def test_symgs_outputs_and_report_identical(self, matrix, rhs,
                                                use_plan):
        base_acc = Alrescha.from_matrix(
            KernelType.SYMGS, matrix,
            config=AlreschaConfig(use_plan=use_plan))
        x0, rep0 = base_acc.run_symgs_sweep(rhs, np.zeros(rhs.size))
        tracer, x1, rep1 = _traced_symgs(matrix, rhs, use_plan=use_plan)
        assert x0.tobytes() == x1.tobytes()
        assert rep0.cycles == rep1.cycles
        assert rep0.counters.as_dict() == rep1.counters.as_dict()
        assert len(tracer) > 0

    def test_spmv_outputs_and_report_identical(self, matrix, rhs):
        acc0 = Alrescha.from_matrix(KernelType.SPMV, matrix)
        y0, rep0 = acc0.run_spmv(rhs)
        tracer = Tracer()
        acc1 = Alrescha.from_matrix(
            KernelType.SPMV, matrix,
            config=AlreschaConfig(tracer=tracer))
        y1, rep1 = acc1.run_spmv(rhs)
        assert y0.tobytes() == y1.tobytes()
        assert rep0.cycles == rep1.cycles
        assert len(tracer) > 0

    def test_traced_faulty_run_identical(self, matrix, rhs):
        def run(tracer):
            config = AlreschaConfig(
                fault_model=FaultModel(rate=0.05, seed=7),
                use_plan=False, tracer=tracer)
            acc = Alrescha.from_matrix(KernelType.SYMGS, matrix,
                                       config=config)
            return acc.run_symgs_sweep(rhs, np.zeros(rhs.size))

        x0, rep0 = run(None)
        x1, rep1 = run(Tracer())
        assert x0.tobytes() == x1.tobytes()
        assert rep0.cycles == rep1.cycles
        assert rep0.counters.as_dict() == rep1.counters.as_dict()

    def test_serve_results_identical(self):
        kwargs = dict(n_requests=30, n_devices=3, fault_rate=0.08,
                      seed=7, scale=0.04)
        r0, rep0 = serve(**kwargs)
        r1, rep1 = serve(tracer=Tracer(), **kwargs)
        assert [(a.job_id, a.status, a.finish_cycle, a.value_crc)
                for a in r0] == \
               [(a.job_id, a.status, a.finish_cycle, a.value_crc)
                for a in r1]


# ---------------------------------------------------------------------------
# Reconfiguration hides under the reduction-tree drain (§4.4 / Fig. 10)
# ---------------------------------------------------------------------------
class TestReconfigContainment:
    def test_every_reconfig_contained_in_a_drain(self, matrix, rhs):
        tracer, _, _ = _traced_symgs(matrix, rhs)
        reconfigs = tracer.by_cat("reconfig")
        drains = tracer.by_cat("reduce_drain")
        assert reconfigs, "SymGS must switch data paths"
        for rc in reconfigs:
            assert any(d.contains(rc) for d in drains
                       if d.track == rc.track), (
                f"reconfig [{rc.begin}, {rc.end}] escapes every drain")
        assert check_reconfig_hidden(tracer) == []

    def test_ablation_exposes_every_reconfig(self, matrix, rhs):
        tracer, _, report = _traced_symgs(
            matrix, rhs, hide_reconfig_under_drain=False)
        violations = check_reconfig_hidden(tracer)
        reconfigs = tracer.by_cat("reconfig")
        assert len(violations) == len(reconfigs) > 0
        assert report.exposed_reconfig_cycles > 0

    def test_ablation_costs_the_exposed_cycles(self, matrix, rhs):
        _, _, hidden = _traced_symgs(matrix, rhs)
        _, _, exposed = _traced_symgs(matrix, rhs,
                                      hide_reconfig_under_drain=False)
        assert exposed.cycles == pytest.approx(
            hidden.cycles + exposed.exposed_reconfig_cycles)


# ---------------------------------------------------------------------------
# GEMV-before-D-SymGS ordering per block row
# ---------------------------------------------------------------------------
class TestRowOrdering:
    def test_symgs_rows_ordered(self, matrix, rhs):
        tracer, _, _ = _traced_symgs(matrix, rhs)
        assert check_row_ordering(tracer) == []
        gemv = [s for s in tracer.spans
                if s.cat == "datapath" and s.name == "gemv"]
        dsymgs = [s for s in tracer.spans
                  if s.cat == "datapath" and s.name == "d-symgs"]
        assert gemv and dsymgs
        by_row = {}
        for s in dsymgs:
            by_row[int(s.args["row"])] = s.begin
        for s in gemv:
            row = int(s.args["row"])
            assert s.end <= by_row[row] + 1e-6

    def test_checker_flags_inverted_order(self):
        tracer = Tracer()
        pid = tracer.begin("pass:symgs", "pass", 0.0)
        tracer.add("d-symgs", "datapath", 0.0, 10.0, args={"row": 0})
        tracer.add("gemv", "datapath", 10.0, 20.0, args={"row": 0})
        tracer.end(pid, 20.0)
        violations = check_row_ordering(tracer)
        assert len(violations) == 1
        assert "row 0" in violations[0]


# ---------------------------------------------------------------------------
# Proper nesting / no partial overlap
# ---------------------------------------------------------------------------
class TestProperNesting:
    def test_engine_trace_nests(self, matrix, rhs):
        tracer, _, _ = _traced_symgs(matrix, rhs)
        assert check_proper_nesting(tracer) == []

    def test_checker_flags_partial_overlap(self):
        tracer = Tracer()
        tracer.add("a", "datapath", 0.0, 10.0)
        tracer.add("b", "datapath", 5.0, 15.0)
        violations = check_proper_nesting(tracer)
        assert len(violations) == 1
        assert "partially overlaps" in violations[0]

    def test_reference_track_may_overlap(self):
        # Degraded fallbacks are concurrent host-side lanes, exempt
        # from the single-engine nesting invariant.
        tracer = Tracer()
        tracer.add("pcg#1", "degraded", 0.0, 10.0, "reference")
        tracer.add("pcg#2", "degraded", 5.0, 15.0, "reference")
        assert check_proper_nesting(tracer) == []


# ---------------------------------------------------------------------------
# Runtime: one job at a time per device
# ---------------------------------------------------------------------------
class TestDeviceExclusive:
    def test_traced_serve_is_exclusive(self):
        tracer = Tracer()
        serve(n_requests=40, n_devices=3, fault_rate=0.08, seed=7,
              scale=0.04, tracer=tracer)
        jobs = tracer.by_cat("job")
        assert jobs, "serve must place jobs on devices"
        assert check_device_exclusive(tracer) == []
        assert check_trace(tracer) == []

    def test_device_summary_encloses_jobs(self):
        tracer = Tracer()
        serve(n_requests=25, n_devices=2, fault_rate=0.05, seed=3,
              scale=0.04, tracer=tracer)
        summaries = {s.track: s for s in tracer.by_cat("device")}
        for job in tracer.by_cat("job"):
            assert summaries[job.track].contains(job)

    def test_degraded_jobs_land_on_reference_track(self):
        # One device with a certain fault stream: attempts exhaust and
        # jobs degrade to the reference path.
        tracer = Tracer()
        results, _ = serve(n_requests=10, n_devices=1, fault_rate=0.9,
                           seed=1, scale=0.04, tracer=tracer)
        degraded = [r for r in results if r.status.value == "degraded"]
        spans = tracer.by_cat("degraded")
        assert degraded, "fault rate 0.9 on one device must degrade jobs"
        assert {s.track for s in spans} == {"reference"}
        assert len(spans) == len(degraded)

    def test_checker_flags_double_booked_device(self):
        tracer = Tracer()
        tracer.add("spmv#1", "job", 0.0, 100.0, "device0")
        tracer.add("spmv#2", "job", 50.0, 150.0, "device0")
        violations = check_device_exclusive(tracer)
        assert len(violations) == 1

    def test_same_batch_overlap_allowed(self):
        # Members of one fused multi-RHS dispatch share the device on
        # purpose; the matching ``batch`` arg marks the overlap legal.
        tracer = Tracer()
        tracer.add("spmv#1", "job", 0.0, 100.0, "device0",
                   args={"batch": 0.0})
        tracer.add("spmv#2", "job", 0.0, 100.0, "device0",
                   args={"batch": 0.0})
        assert check_device_exclusive(tracer) == []

    def test_different_batches_still_flagged(self):
        tracer = Tracer()
        tracer.add("spmv#1", "job", 0.0, 100.0, "device0",
                   args={"batch": 0.0})
        tracer.add("spmv#2", "job", 50.0, 150.0, "device0",
                   args={"batch": 1.0})
        assert len(check_device_exclusive(tracer)) == 1

    def test_batched_serve_passes_invariants(self):
        tracer = Tracer()
        _, report = serve(n_requests=30, n_devices=2, seed=3,
                          max_batch=4,
                          deadline_range=(300_000.0, 500_000.0),
                          tracer=tracer)
        assert report.batches >= 1
        assert tracer.by_cat("batch"), "fused dispatches must be traced"
        assert check_trace(tracer) == []


# ---------------------------------------------------------------------------
# Runtime: a finalised (timed-out) job never re-enters service
# ---------------------------------------------------------------------------
class TestNoServiceAfterTimeout:
    def test_checker_flags_dispatch_after_finalisation(self):
        tracer = Tracer()
        tracer.instant_event("timeout#3", "timeout", 100.0, "scheduler")
        tracer.add("spmv#3", "job", 150.0, 250.0, "device0")
        violations = check_no_service_after_timeout(tracer)
        assert len(violations) == 1
        assert "spmv#3" in violations[0]
        assert "100.00" in violations[0]

    def test_dispatch_at_finalisation_cycle_also_flagged(self):
        # The deadline-expiry event sorts after every same-cycle
        # dispatch, so a job span *beginning* at the finalisation cycle
        # means the engine dispatched a job it had already finalised.
        tracer = Tracer()
        tracer.instant_event("timeout#3", "timeout", 100.0, "scheduler")
        tracer.add("spmv#3", "job", 100.0, 250.0, "device0")
        assert len(check_no_service_after_timeout(tracer)) == 1

    def test_attempts_before_finalisation_are_legal(self):
        # Faulted attempts precede the expiry; only post-finalisation
        # service is a violation.
        tracer = Tracer()
        tracer.add("spmv#3", "job", 0.0, 90.0, "device0")
        tracer.instant_event("timeout#3", "timeout", 100.0, "scheduler")
        assert check_no_service_after_timeout(tracer) == []

    def test_other_jobs_unaffected(self):
        tracer = Tracer()
        tracer.instant_event("timeout#3", "timeout", 100.0, "scheduler")
        tracer.add("spmv#4", "job", 150.0, 250.0, "device0")
        assert check_no_service_after_timeout(tracer) == []

    def test_traced_serve_with_expiries_is_clean(self):
        # Tight deadlines on one device force queued jobs to expire
        # unexecuted; the real engine must never serve them afterwards.
        tracer = Tracer()
        results, report = serve(
            n_requests=40, n_devices=1, seed=2, scale=0.04,
            deadline_range=(400.0, 1_500.0),
            mean_interarrival_cycles=150.0, tracer=tracer)
        unexecuted = [r for r in results
                      if r.status.value == "timeout" and r.attempts == 0]
        assert unexecuted, "tight deadlines must expire queued jobs"
        instants = [s for s in tracer.spans if s.cat == "timeout"]
        assert len(instants) == len(unexecuted)
        assert check_no_service_after_timeout(tracer) == []
        assert check_trace(tracer) == []


# ---------------------------------------------------------------------------
# Span sums reconcile with the SimReport
# ---------------------------------------------------------------------------
class TestReportReconciliation:
    @pytest.mark.parametrize("kernel,runner", [
        (KernelType.SYMGS,
         lambda acc, b: acc.run_symgs_sweep(b, np.zeros(b.size))),
        (KernelType.SPMV, lambda acc, b: acc.run_spmv(b)),
    ])
    def test_pass_span_duration_equals_report_cycles(self, matrix, rhs,
                                                     kernel, runner):
        tracer = Tracer()
        acc = Alrescha.from_matrix(
            kernel, matrix, config=AlreschaConfig(tracer=tracer))
        _, report = runner(acc, rhs)
        passes = tracer.by_cat("pass", track="engine")
        assert len(passes) == 1
        assert passes[0].dur == pytest.approx(report.cycles)
        assert passes[0].args["cycles"] == report.cycles

    def test_exclusive_phases_tile_the_pass(self, matrix, rhs):
        # datapath + fills + waits partition the pass span: the engine
        # track is gap-free and every cycle is attributed exactly once.
        tracer, _, report = _traced_symgs(matrix, rhs)
        tiled = sum(s.dur for s in tracer.spans
                    if s.track == "engine" and s.cat in EXCLUSIVE_CATS)
        assert tiled == pytest.approx(report.cycles)

    def test_retry_spans_sum_to_retry_counters(self, matrix, rhs):
        config = AlreschaConfig(
            fault_model=FaultModel(rate=0.05, seed=7),
            use_plan=False, tracer=Tracer())
        acc = Alrescha.from_matrix(KernelType.SYMGS, matrix,
                                   config=config)
        _, report = acc.run_symgs_sweep(rhs, np.zeros(rhs.size))
        retries = config.tracer.by_cat("retry")
        assert retries, "seed 7 at rate 0.05 must inject recoverable faults"
        total = sum(s.dur for s in retries)
        assert total == pytest.approx(
            report.counters.get("retry_cycles")
            + report.counters.get("fault_latency_cycles"))

    def test_channel_stream_bytes_match_counters(self, matrix, rhs):
        # Per-block payload transfers land in the channel spans; the
        # remainder (cache refills, write-back) is recorded on the pass
        # span as ``extra_stream_bytes``.  Together they account every
        # DRAM byte the report counted.
        tracer, _, report = _traced_symgs(matrix, rhs)
        streamed = sum(float(s.args.get("dram_bytes", 0.0))
                       for s in tracer.spans
                       if s.track == "channel" and s.cat == "stream")
        extra = float(tracer.by_cat("pass")[0].args["extra_stream_bytes"])
        assert streamed + extra == pytest.approx(
            report.counters.get("dram_bytes"))

    def test_attribution_rows_share_sums_to_one(self, matrix, rhs):
        tracer, _, _ = _traced_symgs(matrix, rhs)
        exclusive = [r for r in attribution_rows(tracer)
                     if not r["overlapped"]]
        assert sum(r["share"] for r in exclusive) == pytest.approx(1.0)
        table = attribution_table(tracer)
        assert "engine wall" in table
        assert "datapath:gemv" in table


    @pytest.mark.parametrize("kernel,runner,k", [
        (KernelType.SPMV, "run_spmv", None),
        (KernelType.SPMV, "run_spmv_batch", 2),  # compute hides faults
        (KernelType.SYMGS, "run_symgs_sweep", None),
        (KernelType.SYMGS, "run_symgs_batch", 4),
    ])
    def test_faulty_pass_tiles_on_both_engines(self, matrix, rhs, kernel,
                                               runner, k):
        # A faulty pass is its clean trace plus the one fault charge: a
        # trailing wait of the charged cycles keeps the engine track
        # tiled, and both engines lay byte-identical traces.
        n = matrix.shape[0]
        operands = [rhs if k is None else np.tile(rhs[:, None], (1, k))]
        if kernel is KernelType.SYMGS:
            operands.append(np.zeros_like(operands[0]))
        traces = []
        for use_plan in (False, True):
            tracer = Tracer()
            acc = Alrescha.from_matrix(kernel, matrix, config=AlreschaConfig(
                use_plan=use_plan, tracer=tracer,
                fault_model=FaultModel(rate=0.05, seed=3)))
            _, report = getattr(acc, runner)(*operands)
            assert report.counters.get("faults_injected") > 0
            (pass_span,) = tracer.by_cat("pass", track="engine")
            assert pass_span.dur == pytest.approx(report.cycles)
            assert pass_span.args["cycles"] == report.cycles
            tiled = sum(s.dur for s in tracer.spans
                        if s.track == "engine" and s.cat in EXCLUSIVE_CATS)
            assert tiled == pytest.approx(report.cycles)
            assert check_trace(tracer) == []
            traces.append(dumps_chrome_trace(tracer))
        assert traces[0] == traces[1]


# ---------------------------------------------------------------------------
# Solver iteration spans
# ---------------------------------------------------------------------------
class TestSolverTracing:
    def test_pcg_span_per_iteration_clocked_by_report(self, matrix, rhs):
        tracer = Tracer()
        backend = AcceleratorBackend(
            matrix, config=AlreschaConfig(tracer=tracer))
        result = pcg(backend, rhs, max_iter=5, tracer=tracer)
        spans = tracer.by_cat("solver")
        assert len(spans) == result.iterations
        for prev, cur in zip(spans, spans[1:]):
            assert cur.begin >= prev.end - 1e-9
        assert spans[-1].end == pytest.approx(result.report.cycles)
        assert "counters" in spans[-1].args

    def test_reference_backend_falls_back_to_iteration_clock(self, matrix,
                                                             rhs):
        tracer = Tracer()
        result = cg(ReferenceBackend(matrix), rhs, max_iter=6,
                    tracer=tracer)
        spans = tracer.by_cat("solver")
        assert len(spans) == result.iterations
        assert spans[0].begin == 0.0
        assert spans[-1].end == float(result.iterations)

    def test_checkpoint_instants(self, matrix, rhs):
        tracer = Tracer()
        pcg(ReferenceBackend(matrix), rhs, max_iter=10,
            checkpoint_interval=2, tracer=tracer)
        checkpoints = tracer.by_cat("checkpoint")
        assert checkpoints
        assert all(s.instant for s in checkpoints)

    def test_restart_instants_on_rollback(self, matrix, rhs):
        class FlakyBackend(ReferenceBackend):
            def __init__(self, m):
                super().__init__(m)
                self.calls = 0

            def spmv(self, x):
                self.calls += 1
                if self.calls == 3:
                    raise CorruptionError("injected")
                return super().spmv(x)

        tracer = Tracer()
        result = pcg(FlakyBackend(matrix), rhs, max_iter=10,
                     checkpoint_interval=1, tracer=tracer)
        restarts = [s for s in tracer.spans if s.name == "solver_restart"]
        assert result.restarts >= 1
        assert len(restarts) == result.restarts
        # The failing iteration's span still closed (finally path).
        assert not tracer._open.get("solver")


# ---------------------------------------------------------------------------
# Tracer mechanics
# ---------------------------------------------------------------------------
class TestTracerMechanics:
    def test_add_rejects_backwards_span(self):
        with pytest.raises(SimulationError):
            Tracer().add("x", "datapath", 10.0, 5.0)

    def test_end_enforces_lifo(self):
        tracer = Tracer()
        outer = tracer.begin("outer", "pass", 0.0)
        tracer.begin("inner", "block_row", 1.0)
        with pytest.raises(SimulationError):
            tracer.end(outer, 10.0)

    def test_counters_delta_attached_on_end(self):
        tracer = Tracer()
        live = CounterSet({"alu_op": 5.0})
        sid = tracer.begin("w", "solver", 0.0, counters=live)
        live.add("alu_op", 3.0)
        live.add("dram_bytes", 64.0)
        span = tracer.end(sid, 4.0, counters=live)
        assert span.args["counters"] == {"alu_op": 3.0, "dram_bytes": 64.0}

    def test_extend_coalesces_and_seal_breaks(self):
        tracer = Tracer()
        tracer.extend("channel", "stream", "stream", 4.0,
                      {"dram_bytes": 64.0})
        tracer.extend("channel", "stream", "stream", 6.0,
                      {"dram_bytes": 128.0})
        assert len(tracer) == 1
        assert tracer.spans[0].dur == 10.0
        assert tracer.spans[0].args["dram_bytes"] == 192.0
        tracer.seal("channel")
        tracer.extend("channel", "stream", "stream", 1.0)
        assert len(tracer) == 2

    def test_extend_non_coalescing_retry(self):
        tracer = Tracer()
        tracer.extend("channel", "stream", "stream", 4.0)
        tracer.extend("channel", "retry:drop", "retry", 2.0,
                      coalesce=False)
        tracer.extend("channel", "stream", "stream", 4.0)
        assert [s.cat for s in tracer.spans] == ["stream", "retry",
                                                 "stream"]

    def test_stretch_lengthens_in_place(self):
        tracer = Tracer()
        sid = tracer.add("p", "pass", 0.0, 10.0)
        tracer.stretch(sid, 5.0)
        assert tracer.spans[sid].end == 15.0
        assert tracer.cursor("engine") == 15.0

    def test_replay_shifts_by_track_offset(self):
        template = [Span(0, "w", "datapath", "engine", 0.0, 4.0),
                    Span(1, "s", "stream", "channel", 0.0, 2.0)]
        tracer = Tracer()
        tracer.replay(template, {"engine": 100.0, "channel": 50.0})
        assert tracer.spans[0].begin == 100.0
        assert tracer.spans[1].begin == 50.0

    def test_phase_cycle_totals_keys(self, matrix, rhs):
        tracer, _, _ = _traced_symgs(matrix, rhs)
        totals = phase_cycle_totals(tracer)
        assert "datapath:gemv" in totals
        assert "datapath:d-symgs" in totals
        assert totals["pass"] > 0


# ---------------------------------------------------------------------------
# Runtime: no service inside a device's chaos downtime
# ---------------------------------------------------------------------------
class TestNoServiceInDowntime:
    def test_checker_flags_job_overlapping_a_crash(self):
        tracer = Tracer()
        tracer.add("crash#0.1", "crash", 100.0, 300.0, "chaos",
                   args={"device": 0.0})
        tracer.add("spmv#1", "job", 150.0, 250.0, "device0")
        violations = check_no_service_in_downtime(tracer)
        assert len(violations) == 1
        assert "spmv#1" in violations[0]
        assert "crash" in violations[0]

    def test_checker_flags_job_placed_mid_hang(self):
        tracer = Tracer()
        tracer.add("hang#0.1", "hang", 100.0, 300.0, "chaos",
                   args={"device": 0.0})
        tracer.add("spmv#1", "job", 200.0, 400.0, "device0")
        violations = check_no_service_in_downtime(tracer)
        assert len(violations) == 1
        assert "begins at" in violations[0]

    def test_job_stretching_across_a_hang_is_legal(self):
        # The slowed-not-lost case: dispatched before the stall,
        # completion postponed past it.
        tracer = Tracer()
        tracer.add("hang#0.1", "hang", 100.0, 300.0, "chaos",
                   args={"device": 0.0})
        tracer.add("spmv#1", "job", 50.0, 400.0, "device0")
        assert check_no_service_in_downtime(tracer) == []

    def test_voided_span_ending_at_the_crash_is_legal(self):
        # Work lost to a crash is spanned as ``voided``, ending at the
        # crash cycle — not a service violation.
        tracer = Tracer()
        tracer.add("crash#0.1", "crash", 100.0, 300.0, "chaos",
                   args={"device": 0.0})
        tracer.add("spmv#1", "voided", 50.0, 100.0, "device0")
        assert check_no_service_in_downtime(tracer) == []

    def test_other_devices_unaffected(self):
        tracer = Tracer()
        tracer.add("crash#0.1", "crash", 100.0, 300.0, "chaos",
                   args={"device": 0.0})
        tracer.add("spmv#1", "job", 150.0, 250.0, "device1")
        assert check_no_service_in_downtime(tracer) == []

    def test_traced_chaos_serve_is_clean(self):
        from repro.runtime import ChaosModel
        tracer = Tracer()
        chaos = ChaosModel(rate=0.2, seed=4, mean_gap_cycles=1500.0,
                           mean_crash_cycles=3000.0,
                           mean_hang_cycles=1500.0)
        _, report = serve(n_requests=60, n_devices=3, fault_rate=0.1,
                          seed=4, scale=0.04, execution="model",
                          chaos=chaos, tracer=tracer)
        assert report.crashes + report.hangs > 0
        assert tracer.by_cat("crash") or tracer.by_cat("hang")
        assert check_no_service_in_downtime(tracer) == []
        assert check_trace(tracer) == []


# ---------------------------------------------------------------------------
# Runtime: a cancelled hedge attempt lost to a real winner
# ---------------------------------------------------------------------------
class TestHedgeCancellation:
    def test_checker_flags_cancellation_without_winner(self):
        tracer = Tracer()
        tracer.add("spmv#3", "hedge_cancelled", 0.0, 100.0, "device0")
        violations = check_hedge_cancellation(tracer)
        assert len(violations) == 1
        assert "spmv#3" in violations[0]

    def test_checker_flags_winner_on_same_track(self):
        # "Winning" on the device whose attempt was cancelled means
        # the scheduler cancelled the attempt that answered.
        tracer = Tracer()
        tracer.add("spmv#3", "hedge_cancelled", 0.0, 100.0, "device0")
        tracer.add("spmv#3", "job", 20.0, 100.0, "device0",
                   args={"ok": True})
        assert len(check_hedge_cancellation(tracer)) == 1

    def test_checker_flags_winner_ending_elsewhere_in_time(self):
        tracer = Tracer()
        tracer.add("spmv#3", "hedge_cancelled", 0.0, 100.0, "device0")
        tracer.add("spmv#3", "job", 20.0, 180.0, "device1",
                   args={"ok": True})
        assert len(check_hedge_cancellation(tracer)) == 1

    def test_coincident_winner_on_other_track_is_legal(self):
        tracer = Tracer()
        tracer.add("spmv#3", "hedge_cancelled", 0.0, 100.0, "device0")
        tracer.add("spmv#3", "job", 20.0, 100.0, "device1",
                   args={"ok": True})
        assert check_hedge_cancellation(tracer) == []

    def test_traced_hedged_serve_is_clean(self):
        from repro.runtime import ChaosModel
        tracer = Tracer()
        chaos = ChaosModel(rate=0.3, seed=2, mean_gap_cycles=1500.0,
                           mean_crash_cycles=3000.0,
                           mean_hang_cycles=1500.0)
        _, report = serve(n_requests=60, n_devices=3, fault_rate=0.1,
                          seed=2, scale=0.04, execution="model",
                          chaos=chaos, hedge_after=1.2, tracer=tracer)
        assert check_hedge_cancellation(tracer) == []
        assert check_trace(tracer) == []


# ---------------------------------------------------------------------------
# Runtime: no new placement on a device once its autoscale drain begins
# ---------------------------------------------------------------------------
class TestNoServiceOnDrainingDevice:
    def test_checker_flags_job_starting_inside_the_drain(self):
        tracer = Tracer()
        tracer.add("drain#1", "drain", 100.0, 300.0, "autoscale",
                   args={"device": 1.0})
        tracer.add("spmv#7", "job", 150.0, 250.0, "device1")
        violations = check_no_service_on_draining_device(tracer)
        assert len(violations) == 1
        assert "spmv#7" in violations[0]
        assert "drain" in violations[0]

    def test_checker_flags_job_starting_after_retirement(self):
        # Retired devices never serve again — a job *after* the drain
        # window is just as illegal as one inside it.
        tracer = Tracer()
        tracer.add("drain#1", "drain", 100.0, 300.0, "autoscale",
                   args={"device": 1.0})
        tracer.add("spmv#7", "job", 400.0, 500.0, "device1")
        assert len(check_no_service_on_draining_device(tracer)) == 1

    def test_in_flight_work_finishing_during_drain_is_legal(self):
        # Drain-before-remove: the job dispatched *before* the drain
        # began may run to completion inside the window.
        tracer = Tracer()
        tracer.add("drain#1", "drain", 100.0, 300.0, "autoscale",
                   args={"device": 1.0})
        tracer.add("spmv#7", "job", 50.0, 280.0, "device1")
        assert check_no_service_on_draining_device(tracer) == []

    def test_other_devices_unaffected(self):
        tracer = Tracer()
        tracer.add("drain#1", "drain", 100.0, 300.0, "autoscale",
                   args={"device": 1.0})
        tracer.add("spmv#7", "job", 150.0, 250.0, "device0")
        assert check_no_service_on_draining_device(tracer) == []

    def test_fleet_prefixes_scope_the_drain_to_its_pool(self):
        # p0's drain must not constrain p1's device of the same id.
        tracer = Tracer()
        tracer.add("drain#0", "drain", 100.0, 300.0, "p0.autoscale",
                   args={"device": 0.0})
        tracer.add("spmv#7", "job", 150.0, 250.0, "p1.device0")
        assert check_no_service_on_draining_device(tracer) == []
        tracer.add("spmv#8", "job", 150.0, 250.0, "p0.device0")
        assert len(check_no_service_on_draining_device(tracer)) == 1

    def test_traced_autoscaled_serve_is_clean(self):
        from repro.runtime import AutoscaleConfig
        tracer = Tracer()
        cfg = AutoscaleConfig(min_devices=1, max_devices=6,
                              cooldown_cycles=8_000.0)
        _, report = serve(n_requests=80, n_devices=2, seed=3,
                          scale=0.04, execution="model", tracer=tracer,
                          autoscale=cfg, shape="bursty+zipf")
        assert report.autoscale is not None
        assert report.autoscale.scale_ups > 0
        assert tracer.by_cat("drain"), "no drain recorded"
        assert check_no_service_on_draining_device(tracer) == []
        assert check_trace(tracer) == []


# ---------------------------------------------------------------------------
# Runtime: retirement ends a device's incident chain
# ---------------------------------------------------------------------------
class TestNoIncidentAfterRetirement:
    @staticmethod
    def _drained(track="autoscale"):
        tracer = Tracer()
        tracer.add("drain#1", "drain", 100.0, 300.0, track,
                   args={"device": 1.0})
        return tracer

    @pytest.mark.parametrize("cat", ["crash", "hang"])
    def test_checker_flags_incident_after_retirement(self, cat):
        tracer = self._drained()
        tracer.add(f"{cat}#1.4", cat, 400.0, 500.0, "chaos",
                   args={"device": 1.0})
        violations = check_no_incident_after_retirement(tracer)
        assert len(violations) == 1
        assert cat in violations[0] and "retired" in violations[0]

    def test_incident_begun_in_service_may_outlast_retirement(self):
        # A recovery already pending at retirement still lands, and an
        # onset at the retirement cycle itself sorts before the drain.
        tracer = self._drained()
        tracer.add("crash#1.1", "crash", 200.0, 600.0, "chaos",
                   args={"device": 1.0})
        tracer.add("hang#1.1", "hang", 300.0, 350.0, "chaos",
                   args={"device": 1.0})
        assert check_no_incident_after_retirement(tracer) == []

    def test_other_devices_and_pools_unaffected(self):
        tracer = self._drained(track="p0.autoscale")
        tracer.add("crash#0.1", "crash", 400.0, 500.0, "p0.chaos",
                   args={"device": 0.0})
        tracer.add("crash#1.1", "crash", 400.0, 500.0, "p1.chaos",
                   args={"device": 1.0})
        assert check_no_incident_after_retirement(tracer) == []
        tracer.add("hang#1.1", "hang", 400.0, 500.0, "p0.chaos",
                   args={"device": 1.0})
        assert len(check_no_incident_after_retirement(tracer)) == 1

    def test_traced_elastic_chaos_serve_is_clean(self):
        from tests.test_storm_report_golden import regen
        tracer = Tracer()
        _, report = regen.serve_case("storm", seed=0, n_jobs=2_000,
                                     tracer=tracer)
        assert report.autoscale.devices_retired > 5
        assert report.crashes > 0
        assert check_no_incident_after_retirement(tracer) == []
        assert check_trace(tracer) == []

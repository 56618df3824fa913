"""Scheduler policies: admission, deadlines, retries, degradation."""

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.errors import ConfigError, RejectedError, SimulationError
from repro.kernels.spmv import to_csr
from repro.runtime import (
    ChaosModel,
    DevicePool,
    Job,
    JobStatus,
    Scheduler,
    SchedulerConfig,
    TraceSpec,
    make_trace,
    serve,
    value_crc,
)
from repro.sim.faults import FaultModel

SCALE = 0.05


def job(job_id, arrival=0.0, deadline=50_000.0, priority=0,
        kernel="spmv", dataset="stencil27"):
    return Job(job_id=job_id, kernel=kernel, dataset=dataset,
               scale=SCALE, arrival_cycle=arrival,
               deadline_cycles=deadline, priority=priority,
               seed=1000 + job_id)


def run(jobs, n_devices=2, fault_rate=0.0, seed=0, **sched_kwargs):
    pool = DevicePool(n_devices, fault_rate=fault_rate, seed=seed)
    scheduler = Scheduler(pool, SchedulerConfig(**sched_kwargs))
    return scheduler.run(jobs)


class TestAdmission:
    def test_zero_deadline_rejected_not_executed(self):
        results, report = run([job(0, deadline=0.0), job(1)])
        assert results[0].status is JobStatus.REJECTED
        assert results[0].attempts == 0
        assert "deadline" in results[0].error
        assert results[1].status is JobStatus.OK
        assert report.rejected == 1

    def test_queue_full_rejects_instead_of_blocking(self):
        # 8 simultaneous arrivals into a queue of 3 over 1 device: the
        # overflow is rejected immediately, never queued.
        jobs = [job(i, arrival=0.0) for i in range(8)]
        results, report = run(jobs, n_devices=1, queue_depth=3,
                              high_priority_reserve=0)
        rejected = [r for r in results if r.status is JobStatus.REJECTED]
        assert len(rejected) == 5
        assert all("queue full" in r.error for r in rejected)
        assert report.admitted == 3

    def test_high_priority_reserve(self):
        # Queue saturated by normal jobs; a priority-2 job still fits
        # in the reserve slot, a second priority-0 job does not.
        jobs = [job(i, arrival=0.0) for i in range(3)]
        jobs.append(job(3, arrival=0.0, priority=2))
        jobs.append(job(4, arrival=0.0, priority=0))
        results, _ = run(jobs, n_devices=1, queue_depth=3,
                         high_priority_reserve=1)
        assert results[3].status is not JobStatus.REJECTED
        assert results[4].status is JobStatus.REJECTED

    def test_admit_raises_rejected_error(self):
        pool = DevicePool(1)
        sched = Scheduler(pool, SchedulerConfig(queue_depth=2))
        with pytest.raises(RejectedError, match="queue full"):
            sched.admit(job(0), queue_length=2)
        with pytest.raises(RejectedError, match="deadline"):
            sched.admit(job(1, deadline=0.0), queue_length=0)


class TestDeadlines:
    def test_queued_job_times_out_at_deadline(self):
        # Two jobs, one device: the second waits behind the first and
        # its 1-cycle deadline expires in the queue.
        results, report = run([job(0), job(1, deadline=1.0)], n_devices=1)
        assert results[0].status is JobStatus.OK
        assert results[1].status is JobStatus.TIMEOUT
        assert results[1].value_crc == 0  # never executed
        assert "deadline" in results[1].error
        assert report.timeout == 1

    def test_late_completion_is_timeout_with_answer(self):
        # Deadline shorter than the service time: the job runs but
        # finishes late; the (correct) answer stays attached.
        results, _ = run([job(0, deadline=10.0)], n_devices=1)
        assert results[0].status is JobStatus.TIMEOUT
        assert results[0].value_crc != 0
        assert results[0].latency_cycles > 10.0

    def test_completion_exactly_at_deadline_is_ok(self):
        # Boundary: a deadline equal to the service time is met, not
        # missed — the completion check is strictly `>`.
        probe, _ = run([job(0)], n_devices=1)
        service = probe[0].latency_cycles
        results, _ = run([job(0, deadline=service)], n_devices=1)
        assert results[0].status is JobStatus.OK
        assert results[0].latency_cycles == service

    def test_queued_job_at_exact_deadline_still_dispatches(self):
        # Regression: the queued-expiry check used `now >= deadline_at`
        # while the completion check used `latency > deadline`, so a
        # job becoming dispatchable exactly at its deadline was shed
        # unexecuted (no answer, zero attempts).  With both on strict
        # `>`, it dispatches at that cycle and finishes late *with* its
        # answer attached.
        probe, _ = run([job(0)], n_devices=1)
        service = probe[0].latency_cycles
        # Job 1 waits behind job 0 and its deadline lands exactly on
        # the cycle the device frees up.
        results, _ = run([job(0), job(1, deadline=service)], n_devices=1)
        assert results[1].status is JobStatus.TIMEOUT
        assert results[1].attempts == 1
        assert results[1].value_crc != 0
        assert results[1].finish_cycle == 2 * service

    def test_priority_order_under_contention(self):
        # Same arrival cycle, one device: the priority-2 job must be
        # placed first even though it was submitted last.
        jobs = [job(0), job(1), job(2, priority=2)]
        results, _ = run(jobs, n_devices=1)
        finish = {r.job_id: r.finish_cycle for r in results}
        assert finish[2] < finish[0] < finish[1]


class TestRetryAndDegradation:
    def test_retry_on_another_device(self):
        # Device 0 is persistently sick; device 1 is clean.  Every job
        # first placed on device 0 fails there and must succeed on
        # device 1 within its retry budget.
        pool = DevicePool(2, fault_rate=0.0, seed=0)
        pool.devices[0].fault_model = FaultModel(
            rate=1.0, seed=5, persistent=True)
        scheduler = Scheduler(pool, SchedulerConfig())
        jobs = [job(i, arrival=i * 3000.0) for i in range(6)]
        results, report = scheduler.run(jobs)
        assert all(r.status in (JobStatus.OK, JobStatus.DEGRADED)
                   for r in results)
        retried = [r for r in results if r.attempts > 1]
        assert retried, "device 0 failures must trigger retries"
        assert all(r.device_id == 1 for r in retried
                   if r.status is JobStatus.OK)
        assert pool.devices[0].health.failures > 0
        assert report.retries > 0

    def test_sick_device_breaker_opens(self):
        pool = DevicePool(2, fault_rate=0.0, seed=0)
        pool.devices[0].fault_model = FaultModel(
            rate=1.0, seed=5, persistent=True)
        scheduler = Scheduler(pool, SchedulerConfig())
        jobs = [job(i, arrival=i * 3000.0) for i in range(12)]
        _, report = scheduler.run(jobs)
        assert pool.devices[0].breaker.trips >= 1
        assert report.breaker_trips >= 1

    def test_all_devices_sick_degrades_never_fails(self):
        # rate=1.0 everywhere: every accelerator attempt dies, so every
        # admitted job must come back DEGRADED — explicitly marked,
        # numerically correct — and none may FAIL.
        jobs = [job(i, arrival=i * 8000.0, deadline=200_000.0)
                for i in range(5)]
        results, report = run(jobs, n_devices=2, fault_rate=1.0, seed=3)
        assert report.failed == 0
        degraded = [r for r in results if r.status is JobStatus.DEGRADED]
        assert degraded, "sick pool must shed to the reference path"
        ds = load_dataset("stencil27", scale=SCALE)
        csr = to_csr(ds.matrix)
        for r in degraded:
            j = jobs[r.job_id]
            x = np.random.default_rng(j.seed).normal(size=ds.n)
            assert r.value_crc == value_crc(csr.spmv(x))

    def test_unknown_dataset_fails_loudly(self):
        results, report = run([job(0, dataset="no-such-matrix")])
        assert results[0].status is JobStatus.FAILED
        assert "no-such-matrix" in results[0].error
        assert report.failed == 1

    def test_failed_probe_dispatch_releases_the_probe_slot(self):
        # Regression: a dispatch that dies on ReproError (unserviceable
        # job) after claiming the half-open probe slot used to leave
        # the probe in flight forever, bricking the device.  Brick a
        # one-device pool, cure the hardware, then land an
        # unserviceable job exactly when the breaker becomes probeable:
        # the next good job must still be able to probe and recover.
        pool = DevicePool(1, fault_rate=0.0, seed=0)
        pool.devices[0].fault_model = FaultModel(
            rate=1.0, seed=5, persistent=True)
        sick = [job(i, arrival=i * 3000.0, deadline=200_000.0)
                for i in range(5)]
        results, _ = Scheduler(pool, SchedulerConfig()).run(sick)
        breaker = pool.devices[0].breaker
        assert breaker.state == "open"
        assert all(r.status is JobStatus.DEGRADED for r in results)
        # The fault stream dries up while the breaker cools down.
        pool.devices[0].fault_model.rate = 0.0
        reopen = breaker.reopen_at
        bad = job(10, arrival=reopen, dataset="no-such-matrix",
                  deadline=200_000.0)
        good = job(11, arrival=reopen + 100.0, deadline=200_000.0)
        results, report = Scheduler(pool, SchedulerConfig()).run(
            [bad, good])
        assert results[0].status is JobStatus.FAILED
        # Without release_probe the good job finds the probe slot
        # occupied forever and is shed to the reference path.
        assert results[1].status is JobStatus.OK
        assert results[1].device_id == 0
        assert breaker.state == "closed"
        assert report.degraded == 0


class TestKernels:
    @pytest.mark.parametrize("kernel", ["symgs", "pcg"])
    def test_other_kernels_serve_ok(self, kernel):
        results, report = run(
            [job(0, kernel=kernel, deadline=1e9)], n_devices=1)
        assert results[0].status is JobStatus.OK
        assert results[0].value_crc != 0


class TestBatchCoalescing:
    def test_fused_batch_matches_unbatched_answers(self):
        jobs = [job(i, arrival=0.0, deadline=500_000.0) for i in range(4)]
        solo_results, solo_report = run(jobs, n_devices=1)
        results, report = run(jobs, n_devices=1, max_batch=4)
        assert report.batches == 1
        assert report.batched_jobs == 4
        assert report.stream_bytes_saved > 0.0
        for r, s in zip(results, solo_results):
            assert r.status is JobStatus.OK
            assert r.batch_size == 4
            assert r.device_id == 0
            # Bit-identical answer per job, batched or not.
            assert r.value_crc == s.value_crc
        # One payload stream for four jobs finishes earlier than four.
        assert report.makespan_cycles < solo_report.makespan_cycles

    def test_max_batch_one_is_identical_to_default(self):
        jobs = [job(i, arrival=0.0, deadline=500_000.0) for i in range(6)]
        res_off, rep_off = run(jobs, n_devices=2)
        res_one, rep_one = run(jobs, n_devices=2, max_batch=1)
        assert res_off == res_one
        assert rep_off == rep_one
        assert rep_one.batches == 0
        assert rep_one.stream_bytes_saved == 0.0

    def test_only_identical_workloads_fuse(self):
        jobs = [job(i, deadline=500_000.0,
                    kernel="spmv" if i % 2 == 0 else "symgs")
                for i in range(4)]
        results, report = run(jobs, n_devices=1, max_batch=4)
        assert report.batches == 2
        assert report.batched_jobs == 4
        assert all(r.status is JobStatus.OK and r.batch_size == 2
                   for r in results)

    def test_pcg_never_batches(self):
        jobs = [job(i, arrival=0.0, deadline=1e9, kernel="pcg")
                for i in range(3)]
        results, report = run(jobs, n_devices=1, max_batch=4)
        assert report.batches == 0
        assert all(r.status is JobStatus.OK and r.batch_size == 1
                   for r in results)

    def test_batch_fault_fails_and_retries_whole_batch(self):
        # Device 0 is persistently sick: the fused attempt shares one
        # payload stream, so the fault fails every member at once — one
        # breaker outcome — and the whole batch re-fuses on device 1.
        pool = DevicePool(2, fault_rate=0.0, seed=0)
        pool.devices[0].fault_model = FaultModel(
            rate=1.0, seed=5, persistent=True)
        scheduler = Scheduler(pool, SchedulerConfig(max_batch=4))
        jobs = [job(i, arrival=0.0, deadline=500_000.0) for i in range(4)]
        results, report = scheduler.run(jobs)
        for r in results:
            assert r.status is JobStatus.OK
            assert r.device_id == 1
            assert r.attempts == 2
            assert r.batch_size == 4
        # Only answering batches count, and the fused failure fed the
        # sick device's health exactly once.
        assert report.batches == 1
        assert pool.devices[0].health.failures == 1

    def test_deadline_tight_candidate_stays_out(self):
        # A mate whose deadline cannot absorb the (longer) fused
        # service time is left solo rather than pushed past it.
        pool = DevicePool(1, fault_rate=0.0, seed=0)
        solo = pool.nominal_cycles(job(0))
        fused = pool.nominal_batch_cycles(job(0), 2)
        assert fused > solo  # k operands cost more than one
        tight = (solo + fused) / 2.0
        jobs = [job(0, arrival=0.0, deadline=500_000.0),
                job(1, arrival=0.0, deadline=tight)]
        scheduler = Scheduler(pool, SchedulerConfig(max_batch=4))
        results, report = scheduler.run(jobs)
        assert report.batches == 0
        assert all(r.batch_size == 1 for r in results)

    def test_batch_amortizes_stream_bytes(self):
        # The reported saving matches k solo payload streams collapsed
        # into one batched stream.
        pool = DevicePool(1, fault_rate=0.0, seed=0)
        scheduler = Scheduler(pool, SchedulerConfig(max_batch=4))
        jobs = [job(i, arrival=0.0, deadline=500_000.0) for i in range(4)]
        _, report = scheduler.run(jobs)
        probe = DevicePool(1, fault_rate=0.0, seed=0)
        solo_bytes = probe.nominal_dram_bytes(jobs[0])
        # Far more than half of 3 extra solo streams is avoided (the
        # batch only re-reads the small per-RHS vectors).
        assert report.stream_bytes_saved > 1.5 * solo_bytes


class TestServeEntryPoint:
    def test_acceptance_sweep(self):
        # The ISSUE's acceptance scenario at moderate rate: clean
        # finish, deterministic across two fresh runs.
        res_a, rep_a = serve(n_requests=60, n_devices=4,
                             fault_rate=0.05, seed=7)
        res_b, rep_b = serve(n_requests=60, n_devices=4,
                             fault_rate=0.05, seed=7)
        assert rep_a == rep_b
        assert res_a == res_b
        assert rep_a.failed == 0

    def test_high_fault_rate_trips_breakers_and_degrades(self):
        results, report = serve(n_requests=200, n_devices=4,
                                fault_rate=0.3, seed=7)
        assert report.breaker_trips >= 1
        assert report.degraded >= 1
        assert report.failed == 0
        # Zero-deadline arrivals exist in this trace and were rejected
        # at admission, not executed.
        rejected = [r for r in results
                    if r.status is JobStatus.REJECTED and "deadline"
                    in r.error]
        assert rejected
        assert all(r.attempts == 0 for r in rejected)


class TestDeadlineAccountingRegressions:
    """Fail-before/pass-after pins on the event-engine bug fixes."""

    def test_requeued_job_finalized_at_deadline_cycle(self):
        # Fault-then-wait: the job faults on device 0 and is requeued
        # with ready = finish, but its deadline expires *before* the
        # retry becomes ready.  The scan-based engine only revisited it
        # when ready arrived, stamping finish_cycle/latency past the
        # deadline; the deadline-expiry event finalises it at the
        # deadline cycle itself.
        pool = DevicePool(2, fault_rate=0.0, seed=0)
        pool.devices[0].fault_model = FaultModel(
            rate=1.0, seed=5, persistent=True)
        nominal = pool.nominal_cycles(job(0))
        deadline = nominal + 100.0  # expires inside the wasted attempt
        results, report = Scheduler(pool, SchedulerConfig()).run(
            [job(0, arrival=0.0, deadline=deadline)])
        r = results[0]
        assert r.status is JobStatus.TIMEOUT
        assert r.attempts == 1  # the faulted attempt was consumed
        assert r.value_crc == 0  # no answer was ever produced
        assert r.finish_cycle == deadline  # not the retry-ready cycle
        assert r.latency_cycles == deadline
        assert report.makespan_cycles == deadline

    def test_requeued_job_with_slack_still_retries(self):
        # Control for the fix: a requeued job whose deadline has slack
        # past the retry-ready cycle must still be retried, not expired.
        pool = DevicePool(2, fault_rate=0.0, seed=0)
        pool.devices[0].fault_model = FaultModel(
            rate=1.0, seed=5, persistent=True)
        results, _ = Scheduler(pool, SchedulerConfig()).run(
            [job(0, arrival=0.0, deadline=200_000.0)])
        assert results[0].status is JobStatus.OK
        assert results[0].attempts == 2
        assert results[0].device_id == 1

    def _degraded_latency(self):
        """Latency of a degraded one-device run with ample deadline."""
        pool = DevicePool(1, fault_rate=0.0, seed=0)
        pool.devices[0].fault_model = FaultModel(
            rate=1.0, seed=5, persistent=True)
        results, _ = Scheduler(pool, SchedulerConfig()).run(
            [job(0, deadline=10_000_000.0)])
        assert results[0].status is JobStatus.DEGRADED
        return results[0].latency_cycles, results[0].value_crc

    def test_degraded_past_deadline_is_timeout_with_answer(self):
        # The degraded path used to be exempt from deadline accounting:
        # a reference answer landing past the deadline reported
        # DEGRADED.  It is TIMEOUT like every other late completion —
        # with the (correct) reference answer still attached.
        lat, crc = self._degraded_latency()
        pool = DevicePool(1, fault_rate=0.0, seed=0)
        pool.devices[0].fault_model = FaultModel(
            rate=1.0, seed=5, persistent=True)
        results, report = Scheduler(pool, SchedulerConfig()).run(
            [job(0, deadline=lat - 1.0)])
        r = results[0]
        assert r.status is JobStatus.TIMEOUT
        assert r.value_crc == crc  # late answer kept
        assert r.latency_cycles == lat
        assert "past deadline" in r.error
        assert report.timeout == 1 and report.degraded == 0

    def test_degraded_exactly_at_deadline_is_degraded(self):
        # Boundary control: the strict-`>` rule every completion path
        # shares — finishing exactly at the deadline met it.
        lat, crc = self._degraded_latency()
        pool = DevicePool(1, fault_rate=0.0, seed=0)
        pool.devices[0].fault_model = FaultModel(
            rate=1.0, seed=5, persistent=True)
        results, report = Scheduler(pool, SchedulerConfig()).run(
            [job(0, deadline=lat)])
        assert results[0].status is JobStatus.DEGRADED
        assert results[0].value_crc == crc
        assert report.degraded == 1 and report.timeout == 0


class TestDuplicateJobIds:
    def test_duplicate_ids_raise_config_error(self):
        # Results are keyed by job_id: duplicates used to silently
        # overwrite one result and double-report the other.
        from repro.errors import ConfigError
        pool = DevicePool(1)
        jobs = [job(0), job(1), job(1, arrival=50.0)]
        with pytest.raises(ConfigError, match=r"duplicate job_id 1"):
            Scheduler(pool, SchedulerConfig()).run(jobs)

    def test_unique_ids_unaffected(self):
        results, _ = run([job(0), job(1)], n_devices=1)
        assert [r.job_id for r in results] == [0, 1]


class TestLostJobs:
    def test_finish_names_a_job_with_no_result(self):
        # A lost job used to vanish silently: the report counted only
        # the results that existed, so ``requests`` shrank with it.
        pool = DevicePool(2, seed=0)
        sched = Scheduler(pool, SchedulerConfig())
        sched.start([job(i, arrival=i * 2000.0) for i in range(4)])
        while sched.advance():
            pass
        del sched._results[2]
        with pytest.raises(SimulationError, match=r"1 job\(s\).*: 2$"):
            sched.finish()


class TestOneSession:
    def test_second_session_raises(self):
        """A scheduler serves one session: a second ``run`` or
        ``start`` raises instead of reporting a mix of two runs."""
        trace = make_trace(TraceSpec(n_requests=300, seed=3,
                                     scale=SCALE))
        pool = DevicePool(3, fault_rate=0.05, seed=3, execution="model")
        sched = Scheduler(pool, SchedulerConfig(max_batch=4))
        _, report = sched.run(trace)
        assert (report.ok, report.batches) == (295, 51)
        for second in (sched.run, sched.start):
            with pytest.raises(SimulationError,
                               match="already served a session"):
                second(trace)

    def test_start_alone_opens_the_session(self):
        sched = Scheduler(DevicePool(2, seed=0), SchedulerConfig())
        sched.start([job(0)])
        with pytest.raises(SimulationError,
                           match="already served a session"):
            sched.start([job(1)])


class TestEventEngine:
    def test_event_counters_populate_report(self):
        results, report = run([job(i, arrival=i * 2000.0)
                               for i in range(5)], n_devices=2)
        # At least one arrival per job plus a completion per dispatch.
        assert report.events_processed >= 5
        assert report.events_stale >= 0

    def test_rerun_is_field_identical_including_event_counts(self):
        jobs = [job(i, arrival=i * 1500.0) for i in range(8)]
        _, rep_a = run(jobs, n_devices=2, fault_rate=0.2, seed=9)
        _, rep_b = run(jobs, n_devices=2, fault_rate=0.2, seed=9)
        assert rep_a == rep_b

    def test_deadline_expiry_consumed_for_queued_jobs(self):
        # A queued-but-ready job is still finalised by the dispatch
        # path under the strict-`>` rule (never early, at its deadline
        # cycle), and the engine's heap drains completely.
        results, report = run([job(0), job(1, deadline=1.0)],
                              n_devices=1)
        assert results[1].status is JobStatus.TIMEOUT
        assert results[1].finish_cycle > 1.0  # next wake after expiry
        assert report.events_processed > 0

    def test_peek_consumes_nothing(self):
        """``peek_cycle`` may discard stale events but pops no valid
        one: the processed-event count holds, the peeked wake stays at
        the heap head for ``advance``, and a session stepped this way
        reports exactly what ``run`` does — with chaos, hedging and
        batching all live."""
        def session():
            chaos = ChaosModel(rate=0.3, seed=5, mean_gap_cycles=1_500.0,
                               mean_crash_cycles=3_000.0,
                               mean_hang_cycles=1_500.0)
            pool = DevicePool(3, fault_rate=0.05, seed=5,
                              execution="model", chaos=chaos)
            return Scheduler(pool, SchedulerConfig(max_batch=4,
                                                   hedge_after=1.2))

        trace = make_trace(TraceSpec(n_requests=200, seed=5,
                                     scale=SCALE))
        sched = session()
        sched.start(trace)
        events = sched.events
        while True:
            processed = events.popped - events.stale
            cycle = sched.peek_cycle()
            if cycle is None:
                break
            head = events.peek()
            assert events.popped - events.stale == processed
            assert head is not None and head.cycle == cycle
            assert sched.peek_cycle() == cycle
            assert events.peek() is head
            sched.advance()
        results, report = sched.finish()
        assert (report.crashes > 0 and report.hedges_launched > 0
                and report.batches > 0)
        assert (results, report) == session().run(trace)


class TestSchedulerConfigValidation:
    """Numeric knobs are validated when the config is *constructed*.

    A zero ``max_batch`` used to silently disable batching and a zero
    ``queue_depth`` rejected every job; both are misconfigurations and
    die immediately with a ConfigError naming the field.
    """

    @pytest.mark.parametrize("kwargs,field", [
        (dict(queue_depth=0), "queue_depth"),
        (dict(queue_depth=-3), "queue_depth"),
        (dict(max_attempts=0), "max_attempts"),
        (dict(max_batch=0), "max_batch"),
        (dict(max_batch=-1), "max_batch"),
        (dict(high_priority_reserve=-1), "high_priority_reserve"),
        (dict(hedge_after=0.0), "hedge_after"),
        (dict(hedge_after=-1.5), "hedge_after"),
    ])
    def test_bad_knob_names_the_field(self, kwargs, field):
        with pytest.raises(ConfigError, match=field):
            SchedulerConfig(**kwargs)

    def test_boundary_values_accepted(self):
        cfg = SchedulerConfig(queue_depth=1, max_attempts=1,
                              max_batch=1, high_priority_reserve=0)
        assert cfg.queue_depth == 1

"""Chaos survival, hedged dispatch, and the inertness guarantee.

Three contracts pinned here:

1. **Inert when off** — chaos-free, hedge-free serving is
   field-identical to the pre-chaos scheduler.  A 90-case fingerprint
   corpus (``tests/data/poolreport_fingerprints.json``, captured from
   the tree before the chaos layer landed) is replayed and compared
   field-for-field.  Its fault-free half is also replayed under the
   lifecycle settle timing, which may differ only in event counts.

2. **Survival under storm** — with tight incident gaps every job still
   reaches a terminal status, nothing FAILs from infrastructure loss
   alone, no device serves inside its own down interval (trace
   invariant), and the report counters reconcile with the per-device
   chaos logs.

3. **Determinism** — same seed ⇒ byte-identical canonical report JSON,
   chaos, hedging and all (hypothesis property).
"""

import dataclasses
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.observe import Tracer, check_trace
from repro.runtime import (
    ChaosModel,
    FleetConfig,
    JobStatus,
    Scheduler,
    SchedulerConfig,
    DevicePool,
    TraceSpec,
    make_trace,
    serve,
    serve_fleet,
)
from repro.runtime.metrics import PoolReport, report_json

FINGERPRINTS = pathlib.Path(__file__).parent / "data" \
    / "poolreport_fingerprints.json"

#: Storm knobs: the default mean gap (25k cycles / rate) exceeds a
#: short test trace's makespan, so storms here tighten the gaps to
#: land several incidents inside ~20k simulated cycles.
def storm(seed, rate=0.2, kinds=None):
    kwargs = dict(rate=rate, seed=seed, mean_gap_cycles=1500.0,
                  mean_crash_cycles=3000.0, mean_hang_cycles=1500.0)
    if kinds is not None:
        kwargs["kinds"] = kinds
    return ChaosModel(**kwargs)


def storm_serve(seed, *, chaos=None, hedge_after=None, tracer=None,
                n_requests=60, n_devices=3, fault_rate=0.1, max_batch=1):
    return serve(n_requests=n_requests, n_devices=n_devices,
                 fault_rate=fault_rate, seed=seed, scale=0.04,
                 execution="model", chaos=chaos,
                 hedge_after=hedge_after, tracer=tracer,
                 max_batch=max_batch)


def assert_matches_corpus(entry, report, skip=()):
    """Compare a report with one corpus entry, field for field.

    Only fields present at capture time are compared: counters added
    later (zero when chaos is off) don't invalidate the corpus.
    """
    got = dataclasses.asdict(report)
    for key, expect in entry["report"].items():
        if key in skip:
            continue
        if key == "devices":
            assert len(got["devices"]) == len(expect)
            for gd, wd in zip(got["devices"], expect):
                for dk, dv in wd.items():
                    assert gd[dk] == dv, \
                        f"{entry['case']}: devices[].{dk}"
        else:
            assert got[key] == expect, f"{entry['case']}: {key}"


# ----------------------------------------------------------------------
# 1. Inertness: chaos off == the pre-chaos scheduler, field for field
# ----------------------------------------------------------------------
class TestChaosFreeIdentity:
    def test_fingerprint_corpus(self):
        corpus = json.loads(FINGERPRINTS.read_text())
        assert len(corpus) == 90
        for entry in corpus:
            _, report = serve(n_requests=20, scale=0.04,
                              execution="model", **entry["case"])
            assert_matches_corpus(entry, report)

    def test_lifecycle_timing_matches_corpus_without_faults(self):
        # Eager and lifecycle dispatch share one launch/settle path and
        # differ only in when an outcome settles.  Without faults no
        # verdict can move a job, so the deferred timing reproduces the
        # eager corpus except for its event bookkeeping (the completion
        # events it consumes).  Faulty cases are left out on purpose:
        # there the timing of the breaker verdict and requeue moves
        # queue peak, latency and device stats — which is why the
        # eager timing is kept rather than deleted.
        corpus = json.loads(FINGERPRINTS.read_text())
        fault_free = [e for e in corpus if e["case"]["fault_rate"] == 0.0]
        assert len(fault_free) == 45
        for entry in fault_free:
            case = entry["case"]
            pool = DevicePool(case["n_devices"], seed=case["seed"],
                              execution="model")
            trace = make_trace(TraceSpec(n_requests=20, seed=case["seed"],
                                         scale=0.04))
            _, report = Scheduler(pool, lifecycle=True).run(trace)
            assert_matches_corpus(
                entry, report, skip=("events_processed", "events_stale"))

    def test_eager_path_without_chaos_or_hedge(self):
        pool = DevicePool(2, fault_rate=0.0, seed=0)
        assert Scheduler(pool)._lifecycle is False
        pool2 = DevicePool(2, fault_rate=0.0, seed=0,
                           chaos=storm(0))
        assert Scheduler(pool2)._lifecycle is True
        pool3 = DevicePool(2, fault_rate=0.0, seed=0)
        sched = Scheduler(pool3, SchedulerConfig(hedge_after=2.0))
        assert sched._lifecycle is True

    def test_zero_rate_chaos_is_dropped_by_pool(self):
        pool = DevicePool(2, seed=0, chaos=ChaosModel(rate=0.0))
        assert pool.chaos is None
        assert Scheduler(pool)._lifecycle is False

    def test_new_counters_zero_when_off(self):
        _, rep = storm_serve(3)
        assert (rep.crashes, rep.hangs, rep.recoveries) == (0, 0, 0)
        assert (rep.hedges_launched, rep.hedges_won) == (0, 0)
        for d in rep.devices:
            assert d.downtime_cycles == 0.0
            assert (d.crashes, d.hangs) == (0, 0)


# ----------------------------------------------------------------------
# 2. Survival under storm
# ----------------------------------------------------------------------
class TestStormSurvival:
    @pytest.mark.parametrize("max_batch", [1, 4])
    @pytest.mark.parametrize("seed", range(6))
    def test_every_job_terminal_and_none_lost_to_infrastructure(
            self, seed, max_batch):
        tr = Tracer()
        results, rep = storm_serve(seed, chaos=storm(seed),
                                   hedge_after=1.5, tracer=tr,
                                   max_batch=max_batch)
        assert len(results) == 60
        assert {r.job_id for r in results} == set(range(60))
        for r in results:
            assert r.status in JobStatus
            if r.status is JobStatus.FAILED:
                # Infrastructure loss alone never FAILs a job: crashes
                # salvage onto another device or degrade to reference.
                assert "crash" not in r.error
        assert rep.ok + rep.timeout + rep.degraded + rep.rejected \
            + rep.failed == 60
        assert check_trace(tr) == []

    def test_storm_actually_storms(self):
        # Guard against a silently-inert storm: the knobs above must
        # produce incidents inside the trace, or every other assertion
        # in this class is vacuous.
        seen = 0
        for seed in range(6):
            _, rep = storm_serve(seed, chaos=storm(seed))
            seen += rep.crashes + rep.hangs
        assert seen > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_counters_reconcile_with_chaos_log(self, seed):
        chaos = storm(seed)
        pool = DevicePool(3, fault_rate=0.1, seed=seed,
                          execution="model", chaos=chaos)
        trace = make_trace(TraceSpec(n_requests=60, seed=seed,
                                     scale=0.04))
        _, rep = Scheduler(pool).run(trace)
        drawn_crashes = sum(d.chaos.drawn_of("crash")
                            for d in pool.devices)
        drawn_hangs = sum(d.chaos.drawn_of("hang")
                          for d in pool.devices)
        # Applied incidents are the drawn ones whose start landed
        # before the run ended; the final draw per device is pending.
        assert rep.crashes <= drawn_crashes
        assert rep.hangs <= drawn_hangs
        # A recovery is consumed per applied incident, except any
        # still open when the last job finished.
        assert rep.recoveries <= rep.crashes + rep.hangs
        assert rep.crashes == sum(d.crashes for d in rep.devices)
        assert rep.hangs == sum(d.hangs for d in rep.devices)
        for stat, dev in zip(rep.devices, pool.devices):
            assert stat.crashes == dev.crashes
            assert stat.hangs == dev.hangs
            assert stat.downtime_cycles == \
                pytest.approx(dev.downtime_cycles)
            if stat.crashes or stat.hangs:
                assert stat.downtime_cycles > 0.0

    def test_crash_only_storm_single_device_recovers(self):
        # One device, crash-only chaos: jobs in flight at a crash are
        # salvaged and retried on the same device after quarantine
        # lifts (the refund discards it from ``tried``), or degrade to
        # reference — never FAILED.
        chaos = storm(11, kinds=("crash",))
        results, rep = storm_serve(11, chaos=chaos, n_devices=1,
                                   fault_rate=0.0)
        assert rep.failed == 0
        assert rep.crashes > 0
        assert rep.hangs == 0

    def test_hang_only_storm_slows_but_completes(self):
        tr = Tracer()
        chaos = storm(5, kinds=("hang",))
        results, rep = storm_serve(5, chaos=chaos, fault_rate=0.0,
                                   tracer=tr)
        _, clean = storm_serve(5, fault_rate=0.0)
        assert rep.crashes == 0
        assert rep.hangs > 0
        assert rep.failed == 0
        # Stalls postpone completions, so the storm's makespan can
        # only move one way relative to the clean run.
        assert rep.makespan_cycles >= clean.makespan_cycles
        assert check_trace(tr) == []

    def test_quarantined_breaker_refuses_until_recovery(self):
        # Drive one crash by hand through the scheduler's own hooks.
        pool = DevicePool(2, seed=0, execution="model",
                          chaos=storm(0))
        dev = pool.devices[0]
        dev.breaker.force_open(100.0)
        assert dev.breaker.quarantined
        assert not dev.breaker.allows(100.0)
        # Even far past the cooldown, quarantine holds.
        assert not dev.breaker.allows(1e9)
        assert dev.breaker.reopen_at is None
        dev.breaker.end_quarantine(5000.0)
        assert not dev.breaker.quarantined
        # Immediately probeable: next allows() is the half-open probe.
        assert dev.breaker.allows(5000.0)


# ----------------------------------------------------------------------
# 3. Hedged dispatch
# ----------------------------------------------------------------------
class TestHedging:
    def hedged_run(self, seed, tracer=None):
        return storm_serve(seed, chaos=storm(seed, rate=0.3),
                           hedge_after=1.2, tracer=tracer)

    def test_hedges_fire_and_accounting_reconciles(self):
        launched = won = 0
        hedged_results = 0
        for seed in range(8):
            results, rep = self.hedged_run(seed)
            launched += rep.hedges_launched
            won += rep.hedges_won
            hedged_results += sum(1 for r in results if r.hedged)
            assert rep.hedges_won <= rep.hedges_launched
            assert rep.failed == 0
        # The storm slows devices enough that hedges actually launch
        # somewhere in the sweep — and some of them win.
        assert launched > 0
        assert won > 0
        assert hedged_results == won

    def test_hedge_trace_invariants_hold(self):
        tr = Tracer()
        self.hedged_run(2, tracer=tr)
        assert check_trace(tr) == []

    def test_no_hedging_on_single_device(self):
        _, rep = storm_serve(1, n_devices=1,
                             chaos=storm(1, rate=0.3),
                             hedge_after=1.2)
        assert rep.hedges_launched == 0

    def test_hedge_after_must_be_positive(self):
        pool = DevicePool(2, seed=0)
        with pytest.raises(ConfigError):
            Scheduler(pool, SchedulerConfig(hedge_after=0.0))
        with pytest.raises(ConfigError):
            Scheduler(pool, SchedulerConfig(hedge_after=-1.5))

    #: Batched, hedged serving under a light fault rate: a job whose
    #: solo attempt faulted before its hedge timer fired may be
    #: redispatched inside a batch while that timer is still pending.
    BATCH_HEDGE = dict(
        n_devices=4, fault_rate=0.02, scale=0.05, execution="model",
        scheduler_config=SchedulerConfig(max_batch=4, hedge_after=2.0),
        mean_interarrival_cycles=300.0,
        deadline_range=(200_000.0, 400_000.0))

    def test_stale_hedge_timer_never_cancels_a_batch(self):
        # The timer armed by a job's faulted solo attempt used to stay
        # live after the job joined a batch; the hedge it launched won
        # and cancelled the whole batch, and the batch's other jobs
        # (90-92 here) never got a result.
        results, rep = serve(n_requests=500, seed=13, **self.BATCH_HEDGE)
        assert [r.job_id for r in results] == list(range(500))
        assert rep.requests == 500

    def test_stale_hedge_timer_never_loses_a_fleet_job(self):
        # The same defect on a 2-pool fleet surfaced as a KeyError when
        # the fleet assembled its results.
        results, rep = serve_fleet(
            n_requests=400, seed=7, fleet_config=FleetConfig(n_pools=2),
            **self.BATCH_HEDGE)
        assert [r.job_id for r in results] == list(range(400))
        assert rep.requests == 400

    def test_busy_cycles_stay_consistent_under_cancellation(self):
        # Cancelled hedge attempts are trimmed to the cycles actually
        # spent, so total busy time never exceeds the makespan times
        # the device count.
        for seed in range(4):
            _, rep = self.hedged_run(seed)
            total_busy = sum(d.busy_cycles for d in rep.devices)
            assert total_busy <= rep.makespan_cycles * len(rep.devices)
            for d in rep.devices:
                assert d.busy_cycles >= 0.0


# ----------------------------------------------------------------------
# 4. Determinism: same seed => byte-identical canonical report
# ----------------------------------------------------------------------
class TestDeterminism:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           rate=st.sampled_from([0.0, 0.15, 0.3]),
           hedge=st.sampled_from([None, 1.2, 2.0]))
    @settings(max_examples=8, deadline=None)
    def test_seed_pins_report_bytes(self, seed, rate, hedge):
        def run():
            chaos = storm(seed, rate=rate) if rate else None
            _, rep = serve(n_requests=30, n_devices=3,
                           fault_rate=0.1, seed=seed, scale=0.04,
                           execution="model", chaos=chaos,
                           hedge_after=hedge)
            return rep
        a, b = run(), run()
        assert report_json(a) == report_json(b)
        for f in dataclasses.fields(PoolReport):
            assert getattr(a, f.name) == getattr(b, f.name), f.name

    def test_report_json_is_canonical(self):
        _, rep = storm_serve(0, chaos=storm(0), hedge_after=1.5)
        text = report_json(rep)
        assert text.endswith("\n")
        decoded = json.loads(text)
        raw = dataclasses.asdict(rep)
        raw["devices"] = list(raw["devices"])  # JSON has no tuples
        assert decoded == raw
        # Canonical form: re-encoding the decoded dict with the same
        # options reproduces the bytes.
        assert json.dumps(decoded, sort_keys=True,
                          separators=(",", ":")) + "\n" == text

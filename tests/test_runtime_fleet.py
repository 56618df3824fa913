"""Fleet serving: routing, pool-outage failover, probe-gated recovery.

The contracts under test:

* **Single-pool identity** — a 1-pool fleet without pool chaos is the
  plain scheduler with a fleet-shaped report wrapper: per-job results,
  the nested :class:`~repro.runtime.PoolReport` and the trace are
  identical to :func:`repro.runtime.serve` under device chaos, hedging,
  batching, autoscale and an artifact store (the fingerprint corpus
  pins the solo path; this pins the wrapper against it).
* **Outage storms never lose work** — with at least one healthy
  replica, a seeded pool-outage storm finishes with ``failed == 0``:
  every evicted job is re-routed (charged real transfer cycles) or
  answered degraded, never dropped.
* **Probe-gated readmission** — a pool that served traffic is
  readmitted only after a probe job succeeds on it, so every closed
  outage of a loaded pool shows at least one probe.
* **Determinism** — same trace + seeds + fleet config ⇒ byte-identical
  :func:`~repro.runtime.report_json` from two fresh fleets.
* **Cross-pool bit-reproducibility** — a job re-routed to a different
  pool streams a bit-identical operand (the operand cache keys on the
  job, never the pool), so its answer CRC matches a chaos-free run.
"""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.observe import Tracer, check_trace, dumps_chrome_trace
from repro.runtime import (
    AutoscaleConfig,
    DevicePool,
    Fleet,
    FleetConfig,
    PoolChaosModel,
    PoolReport,
    make_trace,
    serve,
    serve_fleet,
)
from repro.runtime.fleet import content_key, home_pool
from repro.runtime.jobs import TraceSpec
from repro.runtime.metrics import report_json
from repro.sim.chaos import ChaosModel
from repro.store import ArtifactStore

STORM = dict(
    pool_chaos=PoolChaosModel(rate=1.0, seed=0, mean_gap_cycles=15_000,
                              mean_outage_cycles=8_000),
    fleet_config=FleetConfig(n_pools=4, replicas=2),
)


def storm_chaos(seed):
    return PoolChaosModel(rate=1.0, seed=seed, mean_gap_cycles=15_000,
                          mean_outage_cycles=8_000)


#: Every serving feature a 1-pool fleet shares with serve(): device
#: chaos, hedging, batching and autoscale 2:8 on bursty+zipf arrivals.
STORM_POLICY = dict(n_devices=2, shape="bursty+zipf", max_batch=4,
                    hedge_after=2.0, chaos_rate=0.1,
                    autoscale=AutoscaleConfig(min_devices=2,
                                              max_devices=8))

#: 1-pool identity cases: serve()/serve_fleet() keyword arguments, plus
#: ``chaos_rate`` (a device ChaosModel seeded like the trace) and
#: ``store`` (a fresh artifact store per side).  ``chaos`` is device
#: chaos alone; ``model-s*`` and ``sim-s1`` run the storm policy, the
#: simulate case with pcg jobs, store-primed scale-ups and real answer
#: CRCs.
IDENTITY_CASES = {
    "chaos": dict(n_requests=120, n_devices=3, fault_rate=0.1, seed=7,
                  chaos_rate=0.4),
    **{f"model-s{seed}": dict(
        STORM_POLICY, n_requests=2_000, fault_rate=0.02, seed=seed,
        execution="model") for seed in (0, 1, 2)},
    "sim-s1": dict(
        STORM_POLICY, n_requests=120, fault_rate=0.05, seed=1,
        scale=0.04, store=True,
        workloads=(("stencil27", "spmv"), ("stencil27", "symgs"),
                   ("stencil27", "pcg"))),
}


class TestSinglePoolIdentity:
    def test_results_and_report_match_serve(self):
        solo_res, solo_rep = serve(150, n_devices=4, fault_rate=0.1,
                                   seed=13)
        fleet_res, fleet_rep = serve_fleet(150, n_devices=4,
                                           fault_rate=0.1, seed=13)
        assert fleet_res == solo_res
        for f in fields(PoolReport):
            assert (getattr(fleet_rep.pool_stats[0].report, f.name)
                    == getattr(solo_rep, f.name)), f.name

    @pytest.mark.parametrize("case", sorted(IDENTITY_CASES))
    def test_identity_holds_under_device_chaos(self, tmp_path, case):
        """Results, the pool report and the trace (once the fleet's
        ``p0.`` track prefix is stripped) match the solo run, every
        case served through the ``serve`` / ``serve_fleet`` inputs the
        two share (trace spec, ``max_batch`` and ``hedge_after``
        shortcuts)."""
        def run(entry):
            kwargs = dict(IDENTITY_CASES[case], tracer=Tracer())
            kwargs["chaos"] = ChaosModel(rate=kwargs.pop("chaos_rate"),
                                         seed=kwargs["seed"])
            if kwargs.pop("store", False):
                kwargs["artifact_store"] = ArtifactStore(
                    tmp_path / entry.__name__)
            results, report = entry(**kwargs)
            return results, report, kwargs["tracer"]

        solo_res, solo_rep, solo_trace = run(serve)
        fleet_res, fleet_rep, fleet_trace = run(serve_fleet)
        assert fleet_res == solo_res
        assert fleet_rep.pool_stats[0].report == solo_rep
        assert (report_json(fleet_rep.pool_stats[0].report)
                == report_json(solo_rep))
        for span in fleet_trace.spans:
            span.track = span.track.removeprefix("p0.")
        assert (dumps_chrome_trace(fleet_trace)
                == dumps_chrome_trace(solo_trace))
        if case == "sim-s1":
            # The case reaches scale-up priming and fused dispatch.
            assert solo_rep.autoscale.prime_hits > 0
            assert solo_rep.batches > 0

    def test_fleet_rollups_match_the_one_pool(self):
        _, rep = serve_fleet(100, n_devices=2, fault_rate=0.05, seed=3)
        inner = rep.pool_stats[0].report
        assert rep.ok == inner.ok
        assert rep.failed == inner.failed
        assert rep.reroutes == 0
        assert rep.outages == 0
        assert rep.downtime_cycles == 0.0


class TestRouting:
    def test_replicas_are_consecutive_from_home(self):
        trace = make_trace(TraceSpec(n_requests=60, seed=1))
        fleet = Fleet(2, FleetConfig(n_pools=3, replicas=2), seed=1)
        fleet.run(trace)
        for rec in fleet._records.values():
            key = content_key(rec.origin)
            home = home_pool(key, 3)
            assert home in rec.replicas
            if len(rec.replicas) == 2:
                assert (home + 1) % 3 in rec.replicas

    def test_cold_keys_are_not_replicated(self):
        # One dominant key plus a single cold job: the cold key stays
        # on its home pool only.
        from repro.runtime import Job
        jobs = [Job(job_id=i, kernel="spmv", dataset="stencil27",
                    scale=0.05, arrival_cycle=float(i * 100),
                    deadline_cycles=50_000.0) for i in range(20)]
        jobs.append(Job(job_id=99, kernel="symgs", dataset="af_shell",
                        scale=0.05, arrival_cycle=50.0,
                        deadline_cycles=50_000.0))
        fleet = Fleet(2, FleetConfig(n_pools=3, replicas=3,
                                     hot_fraction=0.5), seed=0)
        fleet.run(jobs)
        assert len(fleet._records[0].replicas) == 3
        assert len(fleet._records[99].replicas) == 1

    def test_hot_fraction_zero_replicates_nothing(self):
        # Regression: a zero hot floor used to make *every* key "hot"
        # (all counts are >= 0), silently replicating the whole trace.
        # 0.0 must disable replication outright.
        from repro.runtime import Job
        jobs = [Job(job_id=i, kernel="spmv", dataset="stencil27",
                    scale=0.05, arrival_cycle=float(i * 100),
                    deadline_cycles=50_000.0) for i in range(20)]
        fleet = Fleet(2, FleetConfig(n_pools=3, replicas=3,
                                     hot_fraction=0.0), seed=0)
        fleet.run(jobs)
        assert all(len(rec.replicas) == 1
                   for rec in fleet._records.values())

    def test_hot_fraction_one_needs_the_whole_trace(self):
        # At the other end, 1.0 replicates only a key carrying every
        # job of the trace — a 95% key must stay unreplicated.
        from repro.runtime import Job
        jobs = [Job(job_id=i, kernel="spmv", dataset="stencil27",
                    scale=0.05, arrival_cycle=float(i * 100),
                    deadline_cycles=50_000.0) for i in range(19)]
        jobs.append(Job(job_id=99, kernel="symgs", dataset="af_shell",
                        scale=0.05, arrival_cycle=50.0,
                        deadline_cycles=50_000.0))
        mixed = Fleet(2, FleetConfig(n_pools=3, replicas=3,
                                     hot_fraction=1.0), seed=0)
        mixed.run(jobs)
        assert all(len(rec.replicas) == 1
                   for rec in mixed._records.values())
        pure = Fleet(2, FleetConfig(n_pools=3, replicas=3,
                                    hot_fraction=1.0), seed=0)
        pure.run(jobs[:19])  # one key carries 100% of the trace
        assert all(len(rec.replicas) == 3
                   for rec in pure._records.values())

    def test_duplicate_job_ids_rejected(self):
        from repro.runtime import Job
        j = Job(job_id=1, kernel="spmv", dataset="stencil27",
                scale=0.05, arrival_cycle=0.0, deadline_cycles=1e4)
        fleet = Fleet(2, FleetConfig(n_pools=2), seed=0)
        with pytest.raises(ConfigError, match="duplicate job_id 1"):
            fleet.run([j, j])


class TestOutageStorm:
    def test_storm_with_replicas_never_fails_jobs(self):
        for seed in range(4):
            _, rep = serve_fleet(
                300, n_devices=3, fault_rate=0.1, seed=seed,
                pool_chaos=storm_chaos(seed),
                fleet_config=FleetConfig(n_pools=3, replicas=2))
            assert rep.outages > 0, f"storm seed {seed} drew nothing"
            assert rep.failed == 0, f"lost jobs under seed {seed}"
            assert (rep.ok + rep.timeout + rep.degraded + rep.rejected
                    == rep.requests)

    def test_every_reroute_is_charged(self):
        cfg = FleetConfig(n_pools=4, replicas=2, reroute_cycles=750.0)
        res, rep = serve_fleet(400, n_devices=3, fault_rate=0.1,
                               seed=2, pool_chaos=storm_chaos(2),
                               fleet_config=cfg)
        assert rep.reroutes > 0
        assert rep.reroute_cycles_charged == rep.reroutes * 750.0
        assert rep.reroutes == sum(r.reroutes for r in res)
        # Both ends of every hop: the pool it left and the pool it
        # reached.
        assert (rep.reroutes
                == sum(p.reroutes_out for p in rep.pool_stats)
                == sum(p.reroutes_in for p in rep.pool_stats))

    def test_rerouted_jobs_name_both_pools(self):
        res, rep = serve_fleet(400, n_devices=3, fault_rate=0.1,
                               seed=2, pool_chaos=storm_chaos(2),
                               fleet_config=FleetConfig(n_pools=4,
                                                        replicas=2))
        moved = [r for r in res if r.reroutes > 0]
        assert moved, "storm produced no re-routes"
        for r in moved:
            assert r.answered or r.status.value == "rejected"

    def test_downtime_and_outages_aggregate_pool_stats(self):
        _, rep = serve_fleet(300, n_devices=3, fault_rate=0.1, seed=5,
                             pool_chaos=storm_chaos(5),
                             fleet_config=FleetConfig(n_pools=3,
                                                      replicas=2))
        assert rep.outages == sum(p.outages for p in rep.pool_stats)
        assert rep.downtime_cycles == pytest.approx(
            sum(p.downtime_cycles for p in rep.pool_stats))
        assert rep.probes == sum(p.probes for p in rep.pool_stats)


class TestProbeGatedReadmission:
    def test_loaded_pools_readmit_only_at_probe_completion(self):
        """With one hot key replicated over both pools, every pool
        holds a probe key — so every closed outage window must end
        exactly where a probe attempt on that pool's device 0 ends:
        readmission happens at probe completion, never at the drawn
        window edge."""
        from repro.runtime import Job
        jobs = [Job(job_id=i, kernel="spmv", dataset="stencil27",
                    scale=0.05, arrival_cycle=float(i * 300),
                    deadline_cycles=60_000.0, seed=i)
                for i in range(200)]
        tracer = Tracer()
        _, rep = serve_fleet(
            0, n_devices=2, fault_rate=0.0, seed=4, trace=jobs,
            tracer=tracer,
            pool_chaos=PoolChaosModel(rate=1.0, seed=4,
                                      mean_gap_cycles=8_000,
                                      mean_outage_cycles=4_000),
            fleet_config=FleetConfig(n_pools=2, replicas=2,
                                     hot_fraction=0.0))
        closed = [s for s in tracer.spans
                  if s.track == "fleet" and s.cat == "outage"
                  and not s.instant]
        assert closed, "no outage closed during the storm"
        assert rep.probes > 0
        probe_ends = {}
        for s in tracer.spans:
            if s.cat == "probe":
                probe_ends.setdefault(s.track, set()).add(
                    round(s.end, 6))
        for out in closed:
            pool = int(out.args["pool"])
            ends = probe_ends.get(f"p{pool}.device0", set())
            assert round(out.end, 6) in ends, (
                f"pool {pool} readmitted at {out.end} without a probe "
                f"completing there")

    def test_probe_spans_are_recorded_on_the_pool(self):
        tracer = Tracer()
        serve_fleet(400, n_devices=3, fault_rate=0.1, seed=4,
                    tracer=tracer, pool_chaos=storm_chaos(4),
                    fleet_config=FleetConfig(n_pools=3, replicas=2))
        probes = [s for s in tracer.spans if s.cat == "probe"]
        assert probes, "no probe spans recorded"
        for s in probes:
            assert s.track.endswith(".device0")

    def test_outage_windows_bound_probe_free_service(self):
        tracer = Tracer()
        serve_fleet(400, n_devices=3, fault_rate=0.15, seed=6,
                    tracer=tracer, pool_chaos=storm_chaos(6),
                    chaos=ChaosModel(rate=0.3, seed=6),
                    fleet_config=FleetConfig(n_pools=4, replicas=2))
        violations = check_trace(tracer)
        assert violations == []


class TestDeterminism:
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16),
           n_pools=st.integers(min_value=1, max_value=4),
           replicas=st.integers(min_value=1, max_value=3))
    def test_same_inputs_byte_identical_fleet_report(
            self, seed, n_pools, replicas):
        def run():
            return serve_fleet(
                60, n_devices=2, fault_rate=0.1, seed=seed,
                scale=0.04,
                pool_chaos=PoolChaosModel(rate=0.8, seed=seed,
                                          mean_gap_cycles=10_000,
                                          mean_outage_cycles=5_000),
                fleet_config=FleetConfig(n_pools=n_pools,
                                         replicas=replicas))[1]
        assert report_json(run()) == report_json(run())

    def test_report_json_is_canonical(self):
        _, rep = serve_fleet(50, n_devices=2, seed=0)
        payload = report_json(rep)
        assert payload.endswith("\n")
        assert ": " not in payload  # fixed separators, no pretty print


class TestCrossPoolBitReproducibility:
    def test_operand_is_pool_independent(self):
        """The operand cache keys on (dataset, scale, seed) — two pools
        with different fault seeds stream bit-identical operands."""
        from repro.runtime import Job
        job = Job(job_id=0, kernel="spmv", dataset="stencil27",
                  scale=0.05, arrival_cycle=0.0,
                  deadline_cycles=1e5, seed=42)
        pool_a = DevicePool(2, fault_rate=0.3, seed=1,
                            track_prefix="p0.")
        pool_b = DevicePool(2, fault_rate=0.3, seed=999_983,
                            track_prefix="p1.")
        np.testing.assert_array_equal(pool_a.operand(job),
                                      pool_b.operand(job))

    def test_sibling_pools_move_only_the_chaos_seed(self):
        """Pool 0 carries the device-chaos model as given; every other
        pool a copy that differs only in its seed (and a fresh log), so
        a field added to ChaosModel reaches every pool."""
        chaos = ChaosModel(rate=0.3, seed=5, kinds=("crash",),
                           mean_gap_cycles=9_000.0,
                           mean_crash_cycles=700.0,
                           mean_hang_cycles=300.0)
        fleet = Fleet(2, FleetConfig(n_pools=3), chaos=chaos,
                      execution="model")
        assert fleet.pools[0].chaos is chaos
        seeds = {chaos.seed}
        for pool in fleet.pools[1:]:
            sibling = pool.chaos
            seeds.add(sibling.seed)
            assert sibling.log == [] and sibling.log is not chaos.log
            for f in fields(ChaosModel):
                if f.name not in ("seed", "log"):
                    assert (getattr(sibling, f.name)
                            == getattr(chaos, f.name)), f.name
        assert len(seeds) == 3

    def test_rerouted_answers_match_the_chaos_free_run(self):
        """A job that failed over to another pool returns the same
        answer CRC a chaos-free single-pool run produces for it."""
        trace = make_trace(TraceSpec(n_requests=300, seed=8))
        clean_res, _ = serve(0, n_devices=4, seed=8, trace=trace)
        clean_crc = {r.job_id: r.value_crc for r in clean_res
                     if r.answered}
        storm_res, rep = serve_fleet(
            0, n_devices=3, fault_rate=0.1, seed=8, trace=trace,
            pool_chaos=storm_chaos(8),
            fleet_config=FleetConfig(n_pools=3, replicas=2))
        # Device-served statuses only: a DEGRADED answer comes from the
        # host reference path, whose CRC legitimately differs from the
        # accelerator's (true of the solo scheduler as well).
        moved = [r for r in storm_res
                 if r.reroutes > 0 and r.device_id >= 0
                 and r.answered]
        assert moved, "storm produced no device-answered re-routes"
        for r in moved:
            assert r.value_crc == clean_crc[r.job_id], (
                f"job {r.job_id} answer changed across pools")


class TestFleetConfigValidation:
    @pytest.mark.parametrize("kwargs,needle", [
        (dict(n_pools=0), "n_pools"),
        (dict(replicas=0), "replicas"),
        (dict(reroute_cycles=0.0), "reroute_cycles"),
        (dict(hot_fraction=1.5), "hot_fraction"),
        (dict(probe_retry_cycles=-1.0), "probe_retry_cycles"),
        (dict(max_probes_per_outage=0), "max_probes_per_outage"),
    ])
    def test_bad_knobs_name_the_field(self, kwargs, needle):
        with pytest.raises(ConfigError, match=needle):
            FleetConfig(**kwargs)

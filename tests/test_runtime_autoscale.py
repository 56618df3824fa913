"""Elastic pool capacity: the autoscaler and shaped workload traces.

The contracts under test:

* **Inert when off** — ``autoscale=None`` (the default) produces a
  report with ``autoscale is None`` and no elasticity lines, and the
  plain-Poisson trace shape reproduces the historical draw sequence
  (the fingerprint corpus pins the full field identity; here we pin
  the mechanism).
* **Deterministic when on** — one seed + trace + knob set reproduces
  the identical scale history and a byte-identical canonical report.
* **Useful when on** — on a bursty trace, scaling within ``[2, 8]``
  beats a frozen two-device pool on queue peak at equal correctness.
* **Cheap when primed** — a scale-up programs and compiles nothing:
  the added device binds the pool's images, counted by ``prime_hits``;
  a workload that could not be programmed is never primed.
* **Safe when shrinking** — drain-before-remove, checked by the
  ``check_no_service_on_draining_device`` trace invariant.
"""

import hashlib
import json

import pytest

from repro.errors import ConfigError
from repro.observe import Tracer, check_trace
from repro.runtime import (
    AutoscaleConfig,
    TraceSpec,
    dump_trace,
    make_trace,
    serve,
    serve_fleet,
)
from repro.runtime.fleet import FleetConfig
from repro.runtime.metrics import report_json


#: A config that reacts fast enough for short test traces.
FAST = dict(cooldown_cycles=8_000.0, eval_interval_cycles=2_000.0,
            provision_cycles=1_000.0)


def bursty_trace(n=80, seed=3):
    return make_trace(TraceSpec(n_requests=n, seed=seed, scale=0.04,
                                shape="bursty+zipf"))


class TestAutoscaleConfig:
    def test_defaults_validate(self):
        cfg = AutoscaleConfig()
        assert cfg.min_devices == 1
        assert cfg.max_devices == 8

    @pytest.mark.parametrize("kwargs", [
        dict(min_devices=0),
        dict(min_devices=4, max_devices=2),
        dict(cooldown_cycles=-1.0),
        dict(eval_interval_cycles=0.0),
        dict(provision_cycles=-5.0),
        dict(queue_high=0.0),
        dict(queue_low=5.0, queue_high=4.0),
        dict(failure_rate_high=0.0),
        dict(failure_rate_high=1.5),
    ])
    def test_bad_knobs_raise_config_error(self, kwargs):
        with pytest.raises(ConfigError):
            AutoscaleConfig(**kwargs)

    def test_parse_min_max(self):
        cfg = AutoscaleConfig.parse("2:8")
        assert (cfg.min_devices, cfg.max_devices) == (2, 8)
        assert cfg.cooldown_cycles == AutoscaleConfig().cooldown_cycles

    def test_parse_with_cooldown(self):
        cfg = AutoscaleConfig.parse("1:6:5000")
        assert cfg.cooldown_cycles == 5000.0

    @pytest.mark.parametrize("spec,token", [
        ("", "empty"),
        ("4", "fields"),
        ("1:2:3:4", "fields"),
        ("x:8", "'x'"),
        ("2:y", "'y'"),
        ("2:8:z", "'z'"),
        ("8:2", "min_devices"),
    ])
    def test_parse_bad_specs_name_the_token(self, spec, token):
        with pytest.raises(ConfigError) as exc:
            AutoscaleConfig.parse(spec)
        assert token in str(exc.value)


class TestAutoscaleOff:
    def test_default_report_has_no_autoscale_section(self):
        _, report = serve(n_requests=20, n_devices=2, seed=3,
                          scale=0.04, execution="model")
        assert report.autoscale is None
        assert "autoscale" not in report.render()
        decoded = json.loads(report_json(report))
        assert decoded["autoscale"] is None


class TestAutoscaleServe:
    def test_determinism_byte_identical_reports(self):
        cfg = AutoscaleConfig(min_devices=1, max_devices=6, **FAST)
        runs = []
        for _ in range(2):
            _, report = serve(n_requests=0, n_devices=2, seed=3,
                              scale=0.04, execution="model",
                              trace=bursty_trace(), autoscale=cfg)
            runs.append(report_json(report))
        assert runs[0] == runs[1]
        decoded = json.loads(runs[0])
        assert decoded["autoscale"]["scale_ups"] > 0

    def test_min_floor_grows_pool_at_start(self):
        cfg = AutoscaleConfig(min_devices=4, max_devices=6)
        _, report = serve(n_requests=10, n_devices=1, seed=3,
                          scale=0.04, execution="model", autoscale=cfg)
        scale = report.autoscale
        assert scale.devices_added >= 3
        assert scale.devices_final >= 4
        assert len(report.devices) >= 4

    def test_start_above_max_is_a_config_error(self):
        cfg = AutoscaleConfig(min_devices=1, max_devices=2)
        with pytest.raises(ConfigError):
            serve(n_requests=5, n_devices=4, seed=0, scale=0.04,
                  execution="model", autoscale=cfg)

    def test_bursty_queue_peak_beats_frozen_pool(self):
        # The acceptance criterion: elasticity absorbs the burst.
        trace = bursty_trace(n=200)
        _, frozen = serve(n_requests=0, n_devices=2, seed=3,
                          scale=0.04, execution="model", trace=trace)
        cfg = AutoscaleConfig(min_devices=2, max_devices=8,
                              cooldown_cycles=2_000.0,
                              eval_interval_cycles=500.0,
                              provision_cycles=500.0, queue_high=2.0)
        _, elastic = serve(n_requests=0, n_devices=2, seed=3,
                           scale=0.04, execution="model", trace=trace,
                           autoscale=cfg)
        assert frozen.failed == elastic.failed == 0
        assert elastic.autoscale.scale_ups > 0
        assert elastic.queue_peak < frozen.queue_peak

    def test_capacity_integral_and_peak_are_consistent(self):
        cfg = AutoscaleConfig(min_devices=1, max_devices=6, **FAST)
        _, report = serve(n_requests=0, n_devices=2, seed=3,
                          scale=0.04, execution="model",
                          trace=bursty_trace(), autoscale=cfg)
        scale = report.autoscale
        assert scale.devices_peak <= cfg.max_devices
        assert scale.devices_final >= cfg.min_devices
        # The integral is bounded by peak capacity over the makespan.
        assert 0.0 < scale.device_cycles_provisioned \
            <= scale.devices_peak * report.makespan_cycles + 1e-6
        assert scale.devices_added == scale.scale_ups \
            + max(0, cfg.min_devices - 2)

    def test_render_shows_elasticity_lines(self):
        cfg = AutoscaleConfig(min_devices=1, max_devices=6, **FAST)
        _, report = serve(n_requests=0, n_devices=2, seed=3,
                          scale=0.04, execution="model",
                          trace=bursty_trace(), autoscale=cfg)
        text = report.render()
        assert "autoscale       : [1, 6]" in text
        assert "provisioned     :" in text

    def test_drain_invariant_holds_under_scaling(self):
        tracer = Tracer()
        cfg = AutoscaleConfig(min_devices=1, max_devices=6, **FAST)
        _, report = serve(n_requests=0, n_devices=2, seed=3,
                          scale=0.04, execution="model", trace=bursty_trace(),
                          tracer=tracer, autoscale=cfg)
        assert report.autoscale.scale_downs > 0, "no drain exercised"
        assert check_trace(tracer) == []


class TestStorePrimedScaleUp:
    def test_warm_store_scale_up_compiles_nothing(self, tmp_path):
        from repro.store import ArtifactStore

        trace = bursty_trace(n=100)
        # Cold pass at full width warms the store with every workload
        # the trace touches.
        warm_store = ArtifactStore(tmp_path / "cache")
        serve(n_requests=0, n_devices=8, seed=3, scale=0.04,
              trace=trace, artifact_store=warm_store)
        assert warm_store.report().conversions_compiled > 0

        # Elastic pass against the warm store: the scale-ups must be
        # pure store hits — zero compilations anywhere in the run, and
        # the priming loop's hits are counted on the report.
        store = ArtifactStore(tmp_path / "cache")
        cfg = AutoscaleConfig(min_devices=2, max_devices=8, **FAST)
        _, report = serve(n_requests=0, n_devices=2, seed=3,
                          scale=0.04, trace=trace, artifact_store=store,
                          autoscale=cfg)
        assert report.autoscale.scale_ups > 0
        assert store.report().conversions_compiled == 0
        assert report.autoscale.prime_hits > 0

    def test_unknown_dataset_job_is_never_primed(self, tmp_path):
        """A job whose dataset does not exist fails on its own; the
        workload is never recorded, so no scale-up tries to prime it
        and it adds nothing to ``prime_hits``."""
        from dataclasses import replace

        from repro.runtime import (
            DevicePool,
            JobStatus,
            Scheduler,
            SchedulerConfig,
        )
        from repro.store import ArtifactStore

        class RecordingScheduler(Scheduler):
            """Records the workloads each priming pass binds."""

            primed = []

            def _prime_device(self, device, now):
                self.primed.append(list(self.pool.workloads_seen))
                super()._prime_device(device, now)

        trace = bursty_trace(n=120)
        trace[0] = replace(trace[0], dataset="no_such_dataset")
        pool = DevicePool(1, seed=3,
                          artifact_store=ArtifactStore(tmp_path / "cache"))
        sched = RecordingScheduler(
            pool, SchedulerConfig(),
            autoscale=AutoscaleConfig(min_devices=1, max_devices=6))
        results, report = sched.run(trace)
        status = {r.job_id: r.status for r in results}
        assert status[0] is JobStatus.FAILED
        assert len(results) == len(trace)
        assert report.autoscale.scale_ups > 0
        assert all(key[0] != "no_such_dataset"
                   for key in pool.workloads_seen)
        assert report.autoscale.prime_hits == sum(
            3 if kernel == "pcg" else 1
            for seen in sched.primed for _ds, _sc, kernel in seen)
        assert report.autoscale.prime_hits > 0


class TestFleetAutoscale:
    def test_fleet_aggregates_pool_autoscalers(self):
        cfg = AutoscaleConfig(min_devices=1, max_devices=5, **FAST)
        _, report = serve_fleet(
            n_requests=0, n_devices=2, seed=3, scale=0.04,
            trace=bursty_trace(n=120), execution="model",
            fleet_config=FleetConfig(n_pools=2, replicas=1),
            autoscale=cfg)
        agg = report.autoscale
        assert agg is not None
        per_pool = [p.report.autoscale for p in report.pool_stats]
        assert all(s is not None for s in per_pool)
        assert agg.evals == sum(s.evals for s in per_pool)
        assert agg.devices_added == sum(s.devices_added
                                        for s in per_pool)
        assert agg.devices_peak == sum(s.devices_peak
                                       for s in per_pool)

    def test_fleet_off_keeps_autoscale_none(self):
        _, report = serve_fleet(
            n_requests=30, n_devices=2, seed=3, scale=0.04,
            execution="model",
            fleet_config=FleetConfig(n_pools=2, replicas=1))
        assert report.autoscale is None
        assert all(p.report.autoscale is None
                   for p in report.pool_stats)

    def test_fleet_report_json_deterministic(self):
        cfg = AutoscaleConfig(min_devices=1, max_devices=5, **FAST)
        payloads = []
        for _ in range(2):
            _, report = serve_fleet(
                n_requests=0, n_devices=2, seed=3, scale=0.04,
                trace=bursty_trace(n=120), execution="model",
                fleet_config=FleetConfig(n_pools=2, replicas=1),
                autoscale=cfg)
            payloads.append(report_json(report))
        assert payloads[0] == payloads[1]


class TestTraceShapes:
    def test_default_spec_is_exponential(self):
        assert TraceSpec(n_requests=5).shape == "exponential"

    @pytest.mark.parametrize("shape", [
        "bogus", "bursty+bogus", "bursty+bursty", "exponential+zipf",
    ])
    def test_bad_shapes_raise_config_error(self, shape):
        with pytest.raises(ConfigError):
            TraceSpec(n_requests=5, shape=shape)

    @pytest.mark.parametrize("kwargs", [
        dict(burst_factor=0.5),
        dict(burst_mean_cycles=0.0),
        dict(quiet_mean_cycles=-1.0),
        dict(diurnal_period_cycles=0.0),
        dict(diurnal_amplitude=1.0),
        dict(zipf_exponent=0.0),
    ])
    def test_bad_shape_knobs_raise_config_error(self, kwargs):
        with pytest.raises(ConfigError):
            TraceSpec(n_requests=5, shape="bursty+diurnal+zipf",
                      **kwargs)

    def test_shaped_traces_are_deterministic(self):
        a = make_trace(TraceSpec(n_requests=40, seed=9,
                                 shape="bursty+diurnal+zipf"))
        b = make_trace(TraceSpec(n_requests=40, seed=9,
                                 shape="bursty+diurnal+zipf"))
        assert a == b

    def test_zipf_skews_workload_popularity(self):
        from collections import Counter

        spec = TraceSpec(n_requests=400, seed=3, shape="zipf",
                         zipf_exponent=1.5)
        counts = Counter((j.dataset, j.kernel)
                         for j in make_trace(spec))
        ranked = [counts.get(w, 0) for w in spec.workloads]
        # Rank-1 dominates; the head outweighs the tail.
        assert ranked[0] == max(ranked)
        assert ranked[0] > 2 * ranked[-1]

    def test_bursty_inflates_interarrival_variance(self):
        import statistics

        def cv(jobs):
            gaps = [b.arrival_cycle - a.arrival_cycle
                    for a, b in zip(jobs, jobs[1:])]
            return statistics.pstdev(gaps) / statistics.mean(gaps)

        plain = make_trace(TraceSpec(n_requests=300, seed=3))
        burst = make_trace(TraceSpec(n_requests=300, seed=3,
                                     shape="bursty",
                                     burst_factor=10.0))
        assert cv(burst) > cv(plain)

    def test_exponential_shape_is_the_verbatim_legacy_draw(self,
                                                           tmp_path):
        """Trace bytes recorded while the plain shape still had its own
        draw loop: the shaped generator with every shape off must keep
        reproducing them, and the fully shaped draw must not move."""
        pinned = {
            (60, 7, "exponential"): "2970f9ec71c9f10a2e6bdb43b56c9bdd"
                                    "ae53e4cd37cb262ab042263ef1ed0dd1",
            (500, 1, "exponential"): "385de34c0fd65cf3c4abe1cf655ccdf7"
                                     "08cd80e138f130e94a92932e916500cd",
            (2000, 301, "exponential"): "e3af0ca912c8f58e82be072a155e2253"
                                        "ad4149ff713150fdad41661fc1e237d5",
            (400, 3, "bursty+diurnal+zipf"): (
                "2508ce9d9fc3602e97e0ffec4ac85ead"
                "59ae832565ef2afaf81592cc9994bcc7"),
        }
        path = tmp_path / "trace.json"
        for (n, seed, shape), digest in pinned.items():
            dump_trace(make_trace(TraceSpec(n_requests=n, seed=seed,
                                            shape=shape)), str(path))
            got = hashlib.sha256(path.read_bytes()).hexdigest()
            assert got == digest, (n, seed, shape)

"""Scheduler hot path: a wake costs what is in service, not history.

The contracts under test:

* **Live-device index** — ``DevicePool.live`` is exactly the
  non-retired slots of ``pool.devices``, in id order, after every
  device add and every retirement (solo and in a fleet under pool
  chaos), and no per-wake scan asks a retired device whether it is
  available.
* **One armed trace arrival** — the heap holds at most one ARRIVAL of
  the trace at a time, however long the trace.
* **Freed job states** — the scheduler keeps no state for a job that
  has a result.

The storm-report golden pins that none of this moves a report.
"""

import pytest

from repro.runtime import Device, DevicePool, EventKind, Scheduler
from tests.test_storm_report_golden import regen


def storm(seed, n_jobs, pools=1):
    """Serve the storm-report golden's storm policy (the host-time
    benchmark's: chaos, hedges, batches, autoscale 2:8)."""
    return regen.serve_case("storm", seed, n_jobs, pools=pools)


def watch(monkeypatch, name, check):
    """Call ``check(scheduler)`` after every ``Scheduler.<name>``."""
    original = getattr(Scheduler, name)

    def wrapper(self, *args):
        out = original(self, *args)
        check(self)
        return out

    monkeypatch.setattr(Scheduler, name, wrapper)


def audit_live_index(monkeypatch):
    """Check the live-device index after every add and retirement;
    returns the list of audit outcomes."""
    audits = []

    def audit(sched):
        pool = sched.pool
        audits.append(
            pool.live == [d for d in pool.devices if not d.retired])

    watch(monkeypatch, "_provision_device", audit)
    watch(monkeypatch, "_retire", audit)
    return audits


class TestLiveDeviceIndex:
    def test_no_scan_asks_a_retired_device(self, monkeypatch):
        asked = []
        original = Device.available

        def available(self, now):
            if self.retired:
                asked.append(self.device_id)
            return original(self, now)

        monkeypatch.setattr(Device, "available", available)
        _, report = storm(seed=1, n_jobs=20_000)
        assert report.autoscale.devices_retired >= 100
        assert asked == []

    def test_index_tracks_adds_and_retirements(self, monkeypatch):
        audits = audit_live_index(monkeypatch)
        _, report = storm(seed=2, n_jobs=2_000)
        auto = report.autoscale
        assert len(audits) == auto.devices_added + auto.devices_retired
        assert auto.devices_retired > 0
        assert all(audits)

    def test_index_tracks_a_fleet_under_pool_chaos(self, monkeypatch):
        audits = audit_live_index(monkeypatch)
        _, report = storm(seed=3, n_jobs=2_000, pools=2)
        assert report.outages > 0
        assert report.autoscale.devices_retired > 0
        assert audits and all(audits)

    def test_refusing_counts_retired_slots(self):
        pool = DevicePool(3, execution="model")
        pool.devices[1].draining = True
        pool.retire(pool.devices[1])
        assert pool.live == [pool.devices[0], pool.devices[2]]
        assert pool.refusing(0.0) == 1
        assert pool.untried_targets({0}) == 1
        for d in pool.live:
            d.up = False
        assert pool.refusing(0.0) == len(pool)


class TestArmedArrival:
    @pytest.mark.parametrize("seed", [0, 4])
    def test_heap_holds_one_trace_arrival(self, monkeypatch, seed):
        armed, pushed = [], []

        def count(sched):
            armed.append(sum(1 for e in sched.events._heap
                             if e.kind == EventKind.ARRIVAL))

        watch(monkeypatch, "start", count)
        watch(monkeypatch, "advance", count)
        watch(monkeypatch, "finish",
              lambda sched: pushed.append(sched.events.pushed))
        results, _ = storm(seed=seed, n_jobs=2_000)
        assert armed[0] == 1
        assert all(n <= 1 for n in armed)
        assert len(results) == 2_000
        assert pushed[0] >= 2_000


class TestFreedJobStates:
    def test_no_state_outlives_its_result(self, monkeypatch):
        leaked, held, bounds = [], [], []

        def audit(sched):
            leaked.extend(jid for jid in sched._states
                          if jid in sched._results)
            held.append(len(sched._states))
            # Only queued and in-flight jobs hold state.
            cfg = sched.config
            in_flight = cfg.max_batch * sched.autoscale_config.max_devices
            bounds.append(cfg.queue_depth + cfg.high_priority_reserve
                          + in_flight)

        watch(monkeypatch, "advance", audit)
        watch(monkeypatch, "finish", audit)
        storm(seed=5, n_jobs=2_000)
        assert leaked == []
        assert held[-1] == 0
        assert 0 < max(held) <= bounds[0]

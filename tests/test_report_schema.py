"""Report-schema golden snapshot: drift is caught like trace drift.

``repro serve --report-json`` and the fleet equivalent promise a
*canonical* encoding — sorted keys, fixed separators, trailing
newline — so byte-equality is field-equality and CI can diff reports
across runs.  That promise is only useful if the schema itself is
pinned: a silently added, removed or renamed field would invalidate
every stored report downstream.  This suite compares the live
dataclasses against ``tests/data/report_schema_golden.json``
(regenerate deliberately with ``regen_report_schema.py``), mirroring
how ``test_trace_schema`` pins the trace envelope.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.runtime import serve, serve_fleet
from repro.runtime.fleet import FleetConfig
from repro.runtime.metrics import report_json

GOLDEN = pathlib.Path(__file__).parent / "data" / \
    "report_schema_golden.json"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def pool_report(golden):
    _, report = serve(execution="model", **golden["snapshot_case"])
    return report


@pytest.fixture(scope="module")
def fleet_report(golden):
    _, report = serve_fleet(execution="model",
                            fleet_config=FleetConfig(n_pools=2),
                            **golden["snapshot_case"])
    return report


class TestKeyOrder:
    """Canonical JSON emits sorted dataclass fields; the golden file
    pins exactly which fields exist.  A mismatch means the report
    schema changed — regenerate the golden *deliberately* and note the
    change in API.md."""

    def test_poolreport_keys_pinned(self, golden, pool_report):
        payload = json.loads(report_json(pool_report))
        assert list(payload) == golden["poolreport_keys"]

    def test_devicestats_keys_pinned(self, golden, pool_report):
        payload = json.loads(report_json(pool_report))
        for device in payload["devices"]:
            assert list(device) == golden["devicestats_keys"]

    def test_fleetreport_keys_pinned(self, golden, fleet_report):
        payload = json.loads(report_json(fleet_report))
        assert list(payload) == golden["fleetreport_keys"]

    def test_poolstats_keys_pinned(self, golden, fleet_report):
        payload = json.loads(report_json(fleet_report))
        for stats in payload["pool_stats"]:
            assert list(stats) == golden["poolstats_keys"]
        # Nested per-pool reports carry the full PoolReport schema.
        for stats in payload["pool_stats"]:
            assert list(stats["report"]) == golden["poolreport_keys"]


class TestCanonicalEncoding:
    def test_report_json_is_canonical(self, pool_report):
        payload = report_json(pool_report)
        assert payload == json.dumps(
            json.loads(payload), sort_keys=True,
            separators=(",", ":")) + "\n"

    def test_fleet_report_json_is_canonical(self, fleet_report):
        payload = report_json(fleet_report)
        assert payload == json.dumps(
            json.loads(payload), sort_keys=True,
            separators=(",", ":")) + "\n"


class TestSnapshot:
    def test_fleet_snapshot_field_identical(self, golden, fleet_report):
        """Full value-level golden: the pinned model-execution fleet
        run must reproduce every field exactly (the same contract the
        PoolReport fingerprint corpus pins for solo pools)."""
        assert (json.loads(report_json(fleet_report))
                == golden["fleet_snapshot"])

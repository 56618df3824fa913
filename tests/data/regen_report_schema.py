"""Regenerate the report-schema golden snapshot.

Run from the repo root::

    PYTHONPATH=src python tests/data/regen_report_schema.py

Writes ``tests/data/report_schema_golden.json``:

* the canonical-JSON key order of :class:`PoolReport`,
  :class:`DeviceStats`, :class:`FleetReport` and :class:`PoolStats`
  (sorted dataclass field names — exactly what ``report_json``
  emits), and
* one full model-execution :class:`FleetReport` snapshot.

Schema drift — a field added, removed or renamed — fails the golden
test the same way trace-schema drift fails ``test_trace_schema``.
Regenerating this file is the explicit act of *declaring* a schema
change; do it only alongside a version note in API.md.
"""

import json
import pathlib
from dataclasses import asdict

from repro.runtime import serve, serve_fleet
from repro.runtime.fleet import FleetConfig

SNAPSHOT_CASE = {"n_requests": 12, "n_devices": 2, "seed": 9,
                 "scale": 0.04}


def main():
    _, pool_report = serve(execution="model", **SNAPSHOT_CASE)
    _, fleet_report = serve_fleet(
        execution="model", fleet_config=FleetConfig(n_pools=2),
        **SNAPSHOT_CASE)

    pool = asdict(pool_report)
    fleet = asdict(fleet_report)
    payload = {
        "poolreport_keys": sorted(pool),
        "devicestats_keys": sorted(pool["devices"][0]),
        "fleetreport_keys": sorted(fleet),
        "poolstats_keys": sorted(fleet["pool_stats"][0]),
        "snapshot_case": SNAPSHOT_CASE,
        "fleet_snapshot": fleet,
    }
    out = pathlib.Path(__file__).with_name("report_schema_golden.json")
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()

"""Storm-report golden: lifecycle-path and autoscaled serving, pinned.

``tests/data/storm_report_golden.json`` holds, for each serving case on
the scheduler's lifecycle path (chaos, hedging) or under autoscaling,
the sha256 of the canonical report bytes, the event-engine counters and
a digest of every job's result (see ``tests/data/regen_storm_reports.py``
for the cases).

The fingerprint corpus pins only chaos-free 20-job runs, which settle
eagerly; this golden is what holds the lifecycle path, the autoscaler
and the fleet to the reports they produced when it was written.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

DATA_DIR = pathlib.Path(__file__).parent / "data"


def _regen_module():
    spec = importlib.util.spec_from_file_location(
        "regen_storm_reports", DATA_DIR / "regen_storm_reports.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


regen = _regen_module()
CASES = dict(regen.cases())


@pytest.fixture(scope="module")
def golden():
    return json.loads(regen.GOLDEN_PATH.read_text())


def test_golden_covers_exactly_the_cases(golden):
    assert sorted(golden) == sorted(CASES)


def test_golden_file_is_canonical(golden):
    assert regen.GOLDEN_PATH.read_text() == regen.dumps_golden(golden)


@pytest.mark.parametrize("cid", sorted(CASES))
def test_storm_report_matches_golden(golden, cid):
    entry = regen.run_case(**CASES[cid])
    moved = sorted(k for k in set(entry) | set(golden[cid])
                   if entry.get(k) != golden[cid].get(k))
    assert not moved, (
        f"{cid} diverged from tests/data/storm_report_golden.json in "
        f"{', '.join(moved)}: {entry} != {golden[cid]}")

"""Simulate-mode serving golden: real answers, pinned.

``tests/data/simulate_report_golden.json`` holds, for each serving case
in ``simulate`` execution, the sha256 of the canonical report bytes, a
digest of every job's result (``value_crc`` included), the store's
compile counters and the autoscaler's priming count — storeless, cold
against a fresh store and warm against it (see
``tests/data/regen_simulate_reports.py`` for the cases).

These are the runs in which the devices of a pool share programmed
state: faulty devices, batched dispatch, pcg jobs beside spmv and symgs
jobs on one dataset, store-primed scale-ups and a fleet.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

DATA_DIR = pathlib.Path(__file__).parent / "data"


def _regen_module():
    spec = importlib.util.spec_from_file_location(
        "regen_simulate_reports", DATA_DIR / "regen_simulate_reports.py")
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
def test_simulate_report_matches_golden(golden, cid):
    entry = regen.run_case(**CASES[cid])
    moved = sorted(k for k in set(entry) | set(golden[cid])
                   if entry.get(k) != golden[cid].get(k))
    assert not moved, (
        f"{cid} diverged from tests/data/simulate_report_golden.json in "
        f"{', '.join(moved)}: {entry} != {golden[cid]}")


def test_warm_starts_compile_nothing(golden):
    for cid, entry in golden.items():
        if "warm.conversions_compiled" in entry:
            assert entry["warm.conversions_compiled"] == 0, cid
            assert entry["warm.templates_captured"] == 0, cid

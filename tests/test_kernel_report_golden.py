"""Kernel-report golden: every public kernel's report, pinned.

``tests/data/kernel_report_golden.json`` holds, for each public
``Alrescha.run_*`` kernel on both execution paths (compiled plan and
per-block interpreter), every :class:`~repro.core.report.SimReport`
field and the CRC32 of the output bytes, across matrix sizes, hardware
variants, a seeded fault model, a cross-check fallback and a traced
run (see ``tests/data/regen_kernel_reports.py`` for the cases).

The plan-vs-interpreter tests compare two live paths with each other;
this golden compares both with the values they produced when it was
written, so a rewrite that changes both paths together still fails.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

DATA_DIR = pathlib.Path(__file__).parent / "data"


def _regen_module():
    spec = importlib.util.spec_from_file_location(
        "regen_kernel_reports", DATA_DIR / "regen_kernel_reports.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


regen = _regen_module()


@pytest.fixture(scope="module")
def golden():
    return json.loads(regen.GOLDEN_PATH.read_text())


def _diff(entry, expected):
    """Names of the differing fields, report fields first."""
    keys = sorted(set(entry) | set(expected))
    fields = [k for k in keys if k != "report"
              and entry.get(k) != expected.get(k)]
    rep, exp = entry.get("report", {}), expected.get("report", {})
    fields += [f"report.{k}" for k in sorted(set(rep) | set(exp))
               if rep.get(k) != exp.get(k)]
    return fields


def test_golden_covers_exactly_the_cases(golden):
    assert sorted(golden) == sorted(cid for cid, *_ in regen.cases())


def test_golden_file_is_canonical(golden):
    assert regen.GOLDEN_PATH.read_text() == regen.dumps_golden(golden)


def test_plan_fault_cases_equal_their_interpreter_twins(golden):
    """Both engines price a faulty pass through one rule, so every plan
    fault entry equals its interpreter twin field for field."""
    plan_faults = [cid for cid in golden
                   if "/plan/" in cid and cid.endswith("/faults")]
    assert len(plan_faults) == len(regen.KERNELS)
    assert regen.fault_twin_drift(golden) == []


def test_energy_is_the_price_of_counters_and_cycles(golden):
    """Every report's energy is the default energy model's price of its
    final counters and cycles — the cross-check fallback's folded
    report included."""
    assert regen.energy_drift(golden) == []


def test_activity_is_a_function_of_the_programmed_blocks(golden):
    """Every case that programs its base case's blocks reports the base
    twin's ``alu_op``, ``re_op`` and ``pe_op`` — under faults, unverified
    bitflips and tracing too — and a cross-check fallback, which ran
    the pass twice, twice them."""
    assert regen.activity_drift(golden) == []


def test_report_fields_equal_their_counters(golden):
    """``cache_busy_cycles`` and ``exposed_reconfig_cycles`` equal their
    counters (``cache_busy_cycles``, ``reconfig_exposed_cycles``) in
    every report — a cross-check fallback, which ran its pass twice,
    charges both runs to field and counter alike."""
    assert regen.field_counter_drift(golden) == []


@pytest.mark.parametrize("kernel", sorted(regen.KERNELS))
def test_kernel_reports_match_golden(golden, kernel):
    mismatched = {}
    for cid, name, matrix, settings in regen.cases():
        if name != kernel:
            continue
        entry = regen.run_case(name, matrix, settings)
        if entry != golden[cid]:
            mismatched[cid] = _diff(entry, golden[cid])
    assert not mismatched, (
        f"{len(mismatched)} {kernel} case(s) diverged from "
        f"tests/data/kernel_report_golden.json: "
        + "; ".join(f"{cid}: {', '.join(fields)}"
                    for cid, fields in sorted(mismatched.items())[:8]))

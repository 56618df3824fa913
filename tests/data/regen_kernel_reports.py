"""Regenerate the kernel-report golden.

Run from the repo root::

    PYTHONPATH=src python tests/data/regen_kernel_reports.py

Writes ``tests/data/kernel_report_golden.json``: for every public
``Alrescha.run_*`` kernel, on both execution paths (compiled plan and
per-block interpreter), one entry per case holding every
:class:`~repro.core.report.SimReport` field (counters as a dict) and
the CRC32 of the output bytes.  Cases cover matrix sizes 5, 13 and 70
plus ``stencil27`` at scale 0.05, each hardware knob flipped on its own
(ω 4, a 256 B cache, exposed reconfiguration, no SymGS reordering) and
all of them flipped at once, plus one seeded fault-model case, one
fault case that trips the plan cross-check fallback (streaming kernels
only) and one traced case per kernel.  Fault entries add a digest of
the injection log; traced entries add the sha256 of the exported
Chrome trace.

The golden pins kernel reports across commits, so it is the
differential test for any rewrite of the plan or interpreter layers:
both paths must keep producing these exact reports.  The script refuses
to write a golden in which a plan fault case differs from its
interpreter twin (``plan_degraded`` aside), in which a report's
``energy_j`` is not the energy model's price of its own counters and
cycles, in which a case's activity counts are not its ``base``
twin's, or in which ``cache_busy_cycles`` or
``exposed_reconfig_cycles`` differs from its counter.  Regenerating it
declares a cost-model change; do so only with the change that caused
it.  The file holds one case per line so a diff names the cases that
moved.
"""

import functools
import hashlib
import json
import math
import pathlib
import zlib
from dataclasses import asdict

import numpy as np
import scipy.sparse as sp

from repro.core import Alrescha, AlreschaConfig, KernelType
from repro.datasets import load_dataset
from repro.observe import Tracer, dumps_chrome_trace
from repro.sim.energy import EnergyModel
from repro.sim.faults import FaultModel

GOLDEN_PATH = pathlib.Path(__file__).with_name("kernel_report_golden.json")

#: Kernel name -> (programmed kernel, batch width or None, matrix family).
KERNELS = {
    "spmv": (KernelType.SPMV, None, "spd"),
    "spmv_batch_k2": (KernelType.SPMV, 2, "spd"),
    "spmv_batch_k4": (KernelType.SPMV, 4, "spd"),
    "symgs_sweep": (KernelType.SYMGS, None, "spd"),
    "symgs_batch_k2": (KernelType.SYMGS, 2, "spd"),
    "symgs_batch_k4": (KernelType.SYMGS, 4, "spd"),
    "sptrsv": (KernelType.SYMGS, None, "spd"),
    "bfs_pass": (KernelType.BFS, None, "graph"),
    "bfs_pass_parents": (KernelType.BFS, None, "graph"),
    "sssp_pass": (KernelType.SSSP, None, "graph"),
    "pr_pass": (KernelType.PAGERANK, None, "graph"),
}

#: Kernels whose plans sample-check their output (``crosscheck_rows``).
CROSSCHECKED = ("spmv", "spmv_batch_k2", "spmv_batch_k4", "bfs_pass",
                "sssp_pass", "pr_pass")

MATRICES = ("n5", "n13", "n70", "stencil27")

BASE = {"omega": 8, "cache_bytes": 1024, "hide": True, "reorder": True}

#: Hardware variants: the base, each knob flipped alone, all flipped.
VARIANTS = {
    "base": {},
    "omega4": {"omega": 4},
    "cache256": {"cache_bytes": 256},
    "exposed": {"hide": False},
    "noreorder": {"reorder": False},
    "flipped": {"omega": 4, "cache_bytes": 256, "hide": False,
                "reorder": False},
}

#: Seeded fault model of the fault cases (``RATE:SEED``).
FAULT_SPEC = "0.05:3"
#: Fault model of the cross-check cases: unverified, so silent
#: bitflips reach the plan's sampled cross-check.
CROSSCHECK_SPEC = "0.2:5:bitflip"

#: Variants that program the base case's blocks (same ω and matrix).
SAME_BLOCKS = ("cache256", "exposed", "noreorder", "faults", "crosscheck",
               "traced")
#: The activity counters: a function of the programmed blocks alone.
ACTIVITY = ("alu_op", "re_op", "pe_op")

#: Report fields that mirror a counter: field name -> counter name.
FIELD_COUNTERS = {"cache_busy_cycles": "cache_busy_cycles",
                  "exposed_reconfig_cycles": "reconfig_exposed_cycles"}


def cases():
    """Every case as ``(case id, kernel name, matrix, settings)``."""
    out = []
    for kernel, (ktype, _k, _family) in KERNELS.items():
        symgs = ktype is KernelType.SYMGS
        for use_plan in (True, False):
            path = "plan" if use_plan else "interp"
            for matrix in MATRICES:
                for variant, flips in VARIANTS.items():
                    if "reorder" in flips and not symgs:
                        continue
                    settings = dict(BASE, **flips, use_plan=use_plan)
                    out.append((f"{kernel}/{path}/{matrix}/{variant}",
                                kernel, matrix, settings))
            out.append((f"{kernel}/{path}/stencil27/faults", kernel,
                        "stencil27", dict(BASE, use_plan=use_plan,
                                          faults=FAULT_SPEC)))
            if kernel in CROSSCHECKED:
                out.append((f"{kernel}/{path}/stencil27/crosscheck",
                            kernel, "stencil27",
                            dict(BASE, use_plan=use_plan,
                                 faults=CROSSCHECK_SPEC,
                                 crosscheck=True)))
            out.append((f"{kernel}/{path}/stencil27/traced", kernel,
                        "stencil27", dict(BASE, use_plan=use_plan,
                                          traced=True)))
    return out


def _spd(n, seed):
    rng = np.random.default_rng(seed)
    a = np.zeros((n, n))
    nnz = max(1, int(0.3 * n * n))
    i = rng.integers(0, n, size=nnz)
    j = rng.integers(0, n, size=nnz)
    a[i, j] = rng.normal(size=nnz)
    a = (a + a.T) / 2
    np.fill_diagonal(a, 0.0)
    a += np.diag(np.abs(a).sum(axis=1) + 1.0)
    return sp.csr_matrix(a)


def _graph(n, seed):
    """A ring (so no vertex is isolated) plus random weighted edges."""
    rng = np.random.default_rng(seed)
    a = (rng.random((n, n)) < 0.15).astype(float)
    a[np.arange(n), (np.arange(n) + 1) % n] = 1.0
    np.fill_diagonal(a, 0.0)
    g = sp.csr_matrix(a)
    g.data = rng.uniform(0.5, 5.0, size=g.nnz)
    return g


@functools.lru_cache(maxsize=None)
def matrix_for(name, family):
    if name == "stencil27":
        m = sp.csr_matrix(load_dataset("stencil27", scale=0.05).matrix)
        if family == "graph":
            m = abs(m).tolil()
            m.setdiag(0.0)
            m = m.tocsr()
            m.eliminate_zeros()
        return m
    n = int(name[1:])
    return _spd(n, seed=n) if family == "spd" else _graph(n, seed=n + 1)


def _operands(kernel, matrix):
    n = matrix.shape[0]
    rng = np.random.default_rng(n)
    _ktype, k, _family = KERNELS[kernel]
    shape = (n,) if k is None else (n, k)
    dist = np.full(n, np.inf)
    dist[0] = 0.0
    dist[n // 2] = 1.0
    if kernel.startswith("spmv"):
        return (rng.normal(size=shape),)
    if kernel.startswith("symgs"):
        return rng.normal(size=shape), rng.normal(size=shape)
    if kernel == "sptrsv":
        return (rng.normal(size=n),)
    if kernel == "bfs_pass_parents":
        parent = np.full(n, -1, dtype=np.int64)
        parent[0], parent[n // 2] = 0, n // 2
        return dist, parent
    if kernel == "pr_pass":
        outdeg = np.asarray((matrix != 0).sum(axis=0), dtype=float).ravel()
        return np.full(n, 1.0 / n), outdeg
    return (dist,)


def _run(kernel, acc, operands):
    method = {
        "spmv": acc.run_spmv, "spmv_batch_k2": acc.run_spmv_batch,
        "spmv_batch_k4": acc.run_spmv_batch,
        "symgs_sweep": acc.run_symgs_sweep,
        "symgs_batch_k2": acc.run_symgs_batch,
        "symgs_batch_k4": acc.run_symgs_batch,
        "sptrsv": acc.run_sptrsv, "bfs_pass": acc.run_bfs_pass,
        "bfs_pass_parents": acc.run_bfs_pass_parents,
        "sssp_pass": acc.run_sssp_pass, "pr_pass": acc.run_pr_pass,
    }[kernel]
    *outputs, report = method(*operands)
    return outputs, report


def report_fields(report):
    fields = asdict(report)
    fields["counters"] = report.counters.as_dict()
    return fields


def run_case(kernel, matrix_name, settings):
    """Run one case and return its golden entry."""
    ktype, _k, family = KERNELS[kernel]
    matrix = matrix_for(matrix_name, family)
    tracer = Tracer() if settings.get("traced") else None
    fault_model = (FaultModel.parse(settings["faults"])
                   if settings.get("faults") else None)
    crosscheck = settings.get("crosscheck", False)
    config = AlreschaConfig(
        omega=settings["omega"], cache_bytes=settings["cache_bytes"],
        hide_reconfig_under_drain=settings["hide"],
        use_plan=settings["use_plan"], tracer=tracer,
        fault_model=fault_model,
        verify_checksums=not crosscheck,
        crosscheck_rows=1.0 if crosscheck else 0.0)
    acc = Alrescha.from_matrix(ktype, matrix, config=config,
                               reorder=settings["reorder"])
    outputs, report = _run(kernel, acc, _operands(kernel, matrix))
    payload = b"".join(np.ascontiguousarray(o).tobytes() for o in outputs)
    entry = {
        "report": report_fields(report),
        "output_crc32": zlib.crc32(payload),
        "output_shapes": [list(np.shape(o)) for o in outputs],
    }
    if fault_model is not None:
        log = json.dumps([asdict(e) for e in fault_model.log],
                         sort_keys=True)
        entry["fault_log_sha256"] = hashlib.sha256(
            log.encode()).hexdigest()
        entry["plan_degraded"] = acc.plan_degraded
    if tracer is not None:
        entry["chrome_trace_sha256"] = hashlib.sha256(
            dumps_chrome_trace(tracer).encode()).hexdigest()
    # Normalise through JSON so tuples/ints compare as the file does.
    return json.loads(json.dumps(entry))


def dumps_golden(entries):
    """One case per line, keys sorted: stable bytes, readable diffs."""
    lines = [f"{json.dumps(cid)}: {json.dumps(entries[cid], sort_keys=True)}"
             for cid in sorted(entries)]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def fault_twin_drift(entries):
    """Ids of the plan fault cases whose entry differs from their
    interpreter twin's.  Both engines charge a run's faults through one
    rule, so only ``plan_degraded`` may differ."""
    def comparable(entry):
        return {k: v for k, v in entry.items() if k != "plan_degraded"}

    return [cid for cid in sorted(entries)
            if "/plan/" in cid and cid.endswith("/faults")
            and comparable(entries[cid])
            != comparable(entries[cid.replace("/plan/", "/interp/")])]


def energy_drift(entries):
    """Ids of the cases whose ``energy_j`` is not the energy model's
    price of their own counters and cycles (to 1e-12 relative): every
    report — a cross-check fallback's folded one included — is priced
    from its final counters and cycles."""
    model = EnergyModel()
    drift = []
    for cid in sorted(entries):
        report = entries[cid]["report"]
        expect = model.energy_j(report["counters"],
                                report["cycles"] / report["frequency_hz"])
        if not math.isclose(report["energy_j"], expect, rel_tol=1e-12):
            drift.append(cid)
    return drift


def activity_drift(entries):
    """Ids of the cases on a :data:`SAME_BLOCKS` variant whose
    ``alu_op``, ``re_op`` or ``pe_op`` differ from their engine's
    ``base`` twin's.  Activity is counted from the programmed blocks,
    never from operand values or a corrupted delivery; a cross-check
    fallback (``plan_degraded``) ran its pass twice and counts twice."""
    def activity(entry, times=1):
        counters = entry["report"]["counters"]
        return [times * counters.get(name, 0.0) for name in ACTIVITY]

    drift = []
    for cid in sorted(entries):
        kernel, path, matrix, variant = cid.split("/")
        if variant not in SAME_BLOCKS:
            continue
        twin = entries[f"{kernel}/{path}/{matrix}/base"]
        times = 2 if entries[cid].get("plan_degraded") else 1
        if activity(entries[cid]) != activity(twin, times):
            drift.append(cid)
    return drift


def field_counter_drift(entries):
    """Ids of the cases whose ``cache_busy_cycles`` or
    ``exposed_reconfig_cycles`` field differs from its counter twin
    (:data:`FIELD_COUNTERS`): each field reports the same quantity as
    its counter, a cross-check fallback's folded report included."""
    drift = []
    for cid in sorted(entries):
        report = entries[cid]["report"]
        counters = report["counters"]
        if any(report[field] != counters.get(counter, 0.0)
               for field, counter in FIELD_COUNTERS.items()):
            drift.append(cid)
    return drift


def main():
    entries = {cid: run_case(kernel, matrix, settings)
               for cid, kernel, matrix, settings in cases()}
    drift = fault_twin_drift(entries)
    if drift:
        raise SystemExit(
            f"refusing to write {GOLDEN_PATH}: plan fault case(s) differ "
            f"from their interpreter twin: {', '.join(drift)}")
    drift = energy_drift(entries)
    if drift:
        raise SystemExit(
            f"refusing to write {GOLDEN_PATH}: energy_j is not the price "
            f"of the report's counters and cycles: {', '.join(drift)}")
    drift = activity_drift(entries)
    if drift:
        raise SystemExit(
            f"refusing to write {GOLDEN_PATH}: activity counts differ "
            f"from the base twin's: {', '.join(drift)}")
    drift = field_counter_drift(entries)
    if drift:
        raise SystemExit(
            f"refusing to write {GOLDEN_PATH}: a report field differs "
            f"from its counter: {', '.join(drift)}")
    GOLDEN_PATH.write_text(dumps_golden(entries))
    print(f"wrote {GOLDEN_PATH} ({len(entries)} cases)")


if __name__ == "__main__":
    main()

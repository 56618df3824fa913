"""Regenerate the simulate-mode serving golden.

Run from the repo root::

    PYTHONPATH=src python tests/data/regen_simulate_reports.py

Writes ``tests/data/simulate_report_golden.json``: one entry per
serving case in ``simulate`` execution, where every attempt runs the
real accelerator and every answer CRC is real.  The fingerprint corpus
runs in ``model`` mode and the storm golden holds one 200-job simulate
case, so this golden is what pins the programming phase a pool shares
between its devices: faulty devices, batching, pcg jobs, priming on
scale-up and a fleet, each storeless and through an artifact store.

A case serves its trace once per *start*:

* ``storeless`` — no artifact store;
* ``cold`` — against a fresh, empty store directory;
* ``warm`` — against the directory the cold start just filled, through
  a fresh :class:`~repro.store.ArtifactStore`.

Each start pins, under ``<start>.``:

* ``report_sha256`` — the sha256 of the canonical ``report_json``
  bytes;
* ``results_sha256`` — the per-job digest of the storm golden
  (status, timing, placement, batching, hedging and ``value_crc``);
* ``conversions_compiled`` and ``templates_captured`` — the store's
  compile counters (store starts only);
* ``prime_hits`` — the autoscaler's priming count (autoscaled cases).

Regenerating the file declares a behaviour change; do so only with the
change that caused it.  The file holds one case per line so a diff
names the cases that moved.
"""

import hashlib
import importlib.util
import pathlib
import tempfile

from repro.runtime import (
    AutoscaleConfig,
    FleetConfig,
    PoolChaosModel,
    TraceSpec,
    make_trace,
    serve,
    serve_fleet,
)
from repro.runtime.metrics import report_json
from repro.store import ArtifactStore

GOLDEN_PATH = pathlib.Path(__file__).with_name("simulate_report_golden.json")


def _sibling(name):
    spec = importlib.util.spec_from_file_location(
        name, pathlib.Path(__file__).with_name(f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_storm = _sibling("regen_storm_reports")
results_digest = _storm.results_digest
dumps_golden = _storm.dumps_golden

#: The default trace workloads plus pcg on stencil27, whose SpMV and
#: SymGS programs are the ones the stencil27 spmv/symgs jobs use.
PCG_WORKLOADS = (
    ("stencil27", "spmv"),
    ("stencil27", "symgs"),
    ("stencil27", "pcg"),
    ("af_shell", "spmv"),
)

#: Autoscaler timing that reacts within a short trace.
FAST = dict(cooldown_cycles=8_000.0, eval_interval_cycles=2_000.0,
            provision_cycles=1_000.0)

#: Case id -> serve settings.  Every case runs at scale 0.04 on
#: ``bursty+zipf`` arrivals with fault rate 0.05.
CASES = {
    "faulty4/solo": dict(seed=1, n_jobs=60, n_devices=4, max_batch=1,
                         starts=("storeless", "cold", "warm")),
    "faulty4/batch4": dict(seed=1, n_jobs=60, n_devices=4, max_batch=4,
                           starts=("storeless", "cold", "warm")),
    "pcg_mix": dict(seed=2, n_jobs=40, n_devices=4, max_batch=4,
                    workloads=PCG_WORKLOADS,
                    starts=("storeless", "cold")),
    "autoscale_pcg": dict(seed=3, n_jobs=60, n_devices=1, max_batch=1,
                          workloads=PCG_WORKLOADS, autoscale=(1, 6),
                          starts=("storeless", "cold", "warm")),
    "fleet_p2": dict(seed=4, n_jobs=60, n_devices=2, max_batch=1,
                     pools=2, starts=("storeless", "cold", "warm")),
}


def cases():
    """``(case id, runner kwargs)`` for every pinned case."""
    return list(CASES.items())


def make_case_trace(seed, n_jobs, workloads=None):
    spec = dict(n_requests=n_jobs, seed=seed, scale=0.04,
                shape="bursty+zipf",
                deadline_range=(200_000.0, 400_000.0))
    if workloads is not None:
        spec["workloads"] = workloads
    return make_trace(TraceSpec(**spec))


def serve_case(seed, n_jobs, n_devices, max_batch, workloads=None,
               autoscale=None, pools=1, store=None):
    """Serve one start of a case: ``(results, report)``, a fleet report
    when ``pools > 1``."""
    kwargs = dict(trace=make_case_trace(seed, n_jobs, workloads),
                  n_devices=n_devices, fault_rate=0.05, seed=seed,
                  max_batch=max_batch, artifact_store=store)
    if autoscale is not None:
        kwargs["autoscale"] = AutoscaleConfig(
            min_devices=autoscale[0], max_devices=autoscale[1], **FAST)
    if pools == 1:
        return serve(n_jobs, **kwargs)
    return serve_fleet(
        n_jobs, fleet_config=FleetConfig(n_pools=pools, replicas=2),
        pool_chaos=PoolChaosModel(rate=0.5, seed=seed), **kwargs)


def run_case(starts, pools=1, **kwargs):
    entry = {}
    with tempfile.TemporaryDirectory() as root:
        for start in starts:
            store = None if start == "storeless" else ArtifactStore(root)
            results, report = serve_case(pools=pools, store=store,
                                         **kwargs)
            body = report_json(report)
            entry[f"{start}.report_sha256"] = hashlib.sha256(
                body.encode()).hexdigest()
            entry[f"{start}.results_sha256"] = results_digest(results)
            if store is not None:
                counts = store.report()
                entry[f"{start}.conversions_compiled"] = \
                    counts.conversions_compiled
                entry[f"{start}.templates_captured"] = \
                    counts.templates_captured
            if report.autoscale is not None:
                entry[f"{start}.prime_hits"] = report.autoscale.prime_hits
    return entry


def main():
    entries = {cid: run_case(**kwargs) for cid, kwargs in cases()}
    GOLDEN_PATH.write_text(dumps_golden(entries))
    print(f"wrote {GOLDEN_PATH} ({len(entries)} cases)")


if __name__ == "__main__":
    main()

"""Regenerate the storm-report golden.

Run from the repo root::

    PYTHONPATH=src python tests/data/regen_storm_reports.py

Writes ``tests/data/storm_report_golden.json``: one entry per serving
case on the scheduler's *lifecycle* path and under autoscaling — the
runs the chaos-free fingerprint corpus never reaches.  Each entry pins

* ``report_sha256`` — the sha256 of the canonical ``report_json``
  bytes;
* ``events_processed`` and ``events_stale`` — the event-engine counters
  (summed over the pools of a fleet);
* ``results_sha256`` — the sha256 over every job's ``(job_id, status,
  finish_cycle, latency_cycles, attempts, device_id, batch_size,
  hedged, value_crc)``, in job-id order.

Cases, all on ``bursty+zipf`` arrivals at scale 0.05:

* model mode, seeds 0-4, 2,000 jobs, five policies: the host-time
  benchmark's storm policy (chaos 0.1, hedge 2.0, batch 4, autoscale
  2:8), chaos only, hedge only, batch plus autoscale, autoscale only;
* one 20,000-job storm run (over a hundred scale events);
* 2- and 3-pool fleets under pool chaos, each with and without device
  chaos and autoscale;
* one 200-job storm run in simulate mode, so the answer CRCs are real.

The golden pins serving reports across commits, so it is the
differential test for any rewrite of the scheduler, pool or autoscaler:
every case must keep producing these exact bytes.  Regenerating it
declares a behaviour change; do so only with the change that caused
it.  The file holds one case per line so a diff names the cases that
moved.
"""

import hashlib
import json
import pathlib

from repro.runtime import (
    AutoscaleConfig,
    ChaosModel,
    FleetConfig,
    PoolChaosModel,
    SchedulerConfig,
    TraceSpec,
    make_trace,
    serve,
    serve_fleet,
)
from repro.runtime.metrics import report_json

GOLDEN_PATH = pathlib.Path(__file__).with_name("storm_report_golden.json")

#: Arrivals of every case: the host-time benchmark's storm trace shape.
TRACE = dict(scale=0.05, mean_interarrival_cycles=800.0,
             deadline_range=(200_000.0, 400_000.0), shape="bursty+zipf")

#: Policy name -> (chaos, hedge_after, max_batch, autoscale bounds).
POLICIES = {
    "storm": (True, 2.0, 4, (2, 8)),
    "chaos": (True, None, 1, None),
    "hedge": (False, 2.0, 1, None),
    "batch_autoscale": (False, None, 4, (2, 8)),
    "autoscale": (False, None, 1, (2, 8)),
}

SEEDS = (0, 1, 2, 3, 4)

#: Fleet variant -> (device chaos and autoscale on, pool count).
FLEETS = {
    "p2": (False, 2),
    "p2_chaos_autoscale": (True, 2),
    "p3": (False, 3),
    "p3_chaos_autoscale": (True, 3),
}


def cases():
    """``(case id, runner kwargs)`` for every pinned case."""
    out = []
    for policy in POLICIES:
        for seed in SEEDS:
            out.append((f"model/{policy}/seed{seed}",
                        dict(policy=policy, seed=seed, n_jobs=2_000)))
    out.append(("model/storm/seed1/20k",
                dict(policy="storm", seed=1, n_jobs=20_000)))
    for name, (elastic, pools) in FLEETS.items():
        out.append((f"fleet/{name}/seed2",
                    dict(policy="storm" if elastic else "fleet",
                         seed=2, n_jobs=2_000, pools=pools)))
    out.append(("simulate/storm/seed0",
                dict(policy="storm", seed=0, n_jobs=200,
                     execution="simulate")))
    return out


def _policy_kwargs(policy, seed):
    if policy == "fleet":
        return dict(scheduler_config=SchedulerConfig(max_batch=4,
                                                     hedge_after=2.0))
    chaos, hedge, batch, bounds = POLICIES[policy]
    return dict(
        scheduler_config=SchedulerConfig(max_batch=batch,
                                         hedge_after=hedge),
        chaos=ChaosModel(rate=0.1, seed=seed) if chaos else None,
        autoscale=(AutoscaleConfig(min_devices=bounds[0],
                                   max_devices=bounds[1])
                   if bounds else None))


def results_digest(results):
    rows = [[r.job_id, r.status.value, r.finish_cycle, r.latency_cycles,
             r.attempts, r.device_id, r.batch_size, r.hedged, r.value_crc]
            for r in sorted(results, key=lambda r: r.job_id)]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def serve_case(policy, seed, n_jobs, pools=1, execution="model",
               tracer=None):
    """Serve one case: ``(results, report)``, a fleet report when
    ``pools > 1``."""
    trace = make_trace(TraceSpec(n_requests=n_jobs, seed=seed, **TRACE))
    kwargs = dict(trace=trace, n_devices=4, fault_rate=0.02, seed=seed,
                  execution=execution, tracer=tracer,
                  **_policy_kwargs(policy, seed))
    if pools == 1:
        return serve(n_jobs, **kwargs)
    return serve_fleet(
        n_jobs, fleet_config=FleetConfig(n_pools=pools, replicas=2),
        pool_chaos=PoolChaosModel(rate=0.5, seed=seed), **kwargs)


def run_case(policy, seed, n_jobs, pools=1, execution="model"):
    results, report = serve_case(policy, seed, n_jobs, pools, execution)
    body = report_json(report)
    if pools == 1:
        reports = [report]
    else:
        reports = [p.report for p in report.pool_stats]
    return {
        "report_sha256": hashlib.sha256(body.encode()).hexdigest(),
        "events_processed": sum(r.events_processed for r in reports),
        "events_stale": sum(r.events_stale for r in reports),
        "results_sha256": results_digest(results),
    }


def dumps_golden(entries):
    """One case per line, keys sorted: stable bytes, readable diffs."""
    lines = [f"{json.dumps(cid)}: {json.dumps(entries[cid], sort_keys=True)}"
             for cid in sorted(entries)]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def main():
    entries = {cid: run_case(**kwargs) for cid, kwargs in cases()}
    GOLDEN_PATH.write_text(dumps_golden(entries))
    print(f"wrote {GOLDEN_PATH} ({len(entries)} cases)")


if __name__ == "__main__":
    main()

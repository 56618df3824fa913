"""Command-line interface: ``python -m repro <command>``.

Commands
--------
* ``list-datasets [--kind scientific|graph]`` — the registered suites.
* ``info NAME [--scale S]`` — structural profile of one dataset.
* ``run KERNEL --dataset NAME [--scale S]`` — execute one kernel on the
  simulated accelerator and print its report (kernels: spmv, symgs,
  pcg, bfs, sssp, pagerank, cc, hpcg).
* ``survey NAME [--scale S]`` — Figure 12 meta-data survey.
* ``experiment FIG [--scale S]`` — regenerate one paper figure
  (fig3, fig6, fig15, fig16, fig17, fig18, fig19).
* ``serve --requests N --devices D --fault-rate R --seed S`` — run a
  seeded workload trace through the multi-device serving runtime and
  print its :class:`~repro.runtime.PoolReport`.  ``--chaos RATE[:SEED[:KINDS]]``
  adds seeded device crashes/hangs, ``--hedge MULT`` enables hedged
  dispatch, ``--report-json FILE`` writes the canonical report, and
  ``--check`` replays the run's trace through the serving invariants.
  ``--pools N --replicas R`` serves the trace over a replicated
  multi-pool fleet (content-keyed routing, pool-outage failover) and
  prints a :class:`~repro.runtime.fleet.FleetReport` instead;
  ``--pool-chaos RATE[:SEED]`` adds seeded whole-pool outages.
  ``--autoscale MIN:MAX[:COOLDOWN]`` makes pool capacity elastic,
  ``--shape bursty+zipf`` shapes the generated arrivals/popularity,
  and ``--record FILE`` captures the served trace for later
  ``--trace-file`` replay.
* ``trace KERNEL [--out FILE] [--check]`` — record a cycle-attributed
  span trace of one kernel run, print the per-phase attribution table,
  optionally export Chrome/Perfetto JSON and run the invariant checks.
  ``run`` and ``serve`` also accept ``--trace FILE`` to export a trace
  of their normal execution.
* ``serve --store DIR`` attaches a content-addressed artifact store:
  compiled plans, device images and captured templates persist under
  DIR, so a second run against the same store performs zero
  programming-phase compilations (the printed ``store:`` line proves
  it) while producing byte-identical reports.
* ``cache {ls,gc,verify} --store DIR`` — manage an artifact store:
  list stored artifacts, delete them (``--all`` or down to
  ``--max-bytes``), or deep-verify every artifact (envelope checksums,
  full decode, and — where source metadata is recorded —
  recompile-and-byte-diff).  ``verify`` exits 1 naming each offending
  key.

Exit codes: 0 success; 1 validation failure (``validate``), trace
invariant violation (``trace --check``, ``serve --check``), or
``cache verify`` finding a damaged/divergent artifact; 2 invalid
input (dataset/format/config/store errors); 3 unrecovered injected
fault; 4 ``serve`` finished with at least one ``FAILED`` job.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

import numpy as np


def _dataset(name: str, scale: float):
    from repro.datasets import load_dataset
    return load_dataset(name, scale=scale)


def cmd_list_datasets(args) -> int:
    from repro.datasets import list_datasets, load_dataset
    for name in list_datasets(args.kind):
        ds = load_dataset(name, scale=0.05)
        print(f"{name:20s} {ds.kind:10s} {ds.description}")
    return 0


def cmd_info(args) -> int:
    from repro.baselines import MatrixProfile
    ds = _dataset(args.name, args.scale)
    profile = MatrixProfile(ds.matrix if ds.kind == "scientific"
                            else ds.matrix.T.tocsr())
    print(f"{ds.name}: {ds.description}")
    print(f"  kind             : {ds.kind}")
    print(f"  n                : {ds.n}")
    print(f"  nnz              : {ds.nnz} ({ds.nnz / ds.n:.1f}/row)")
    print(f"  8x8 block density: {profile.block_density:.3f}")
    print(f"  column locality  : {profile.column_locality:.3f}")
    print(f"  row imbalance    : {profile.row_imbalance:.2f}")
    if ds.kind == "scientific":
        seq, levels = profile.gpu_seq
        print(f"  GS levels        : {levels}")
        print(f"  GPU seq fraction : {seq:.3f}")
        print(f"  Alrescha seq frac: {profile.alrescha_seq_fraction:.3f}")
    return 0


def _print_report(report) -> None:
    print(f"  cycles          : {report.cycles:,.0f}")
    print(f"  time @ 2.5 GHz  : {report.seconds * 1e6:.3f} us")
    print(f"  BW utilization  : {report.bandwidth_utilization:.2%}")
    print(f"  seq fraction    : {report.sequential_fraction:.2%}")
    print(f"  energy          : {report.energy_j * 1e6:.3f} uJ")


def _run_config(args):
    """``(config, tracer)`` for ``run`` from ``--inject-faults``/``--trace``.

    Returns ``(None, None)`` when both are off so every kernel keeps
    its historical default configuration (bit-identical clean path);
    the tracer never changes outputs either way.
    """
    tracer = None
    if getattr(args, "trace", None):
        from repro.observe import Tracer
        tracer = Tracer()
    if not args.inject_faults and tracer is None:
        return None, None
    from repro.core import AlreschaConfig
    from repro.sim.faults import FaultModel
    fault_model = (FaultModel.parse(args.inject_faults)
                   if args.inject_faults else None)
    return AlreschaConfig(fault_model=fault_model, tracer=tracer), tracer


def _write_trace(tracer, path) -> None:
    """Export a recorded trace as Chrome/Perfetto JSON (no-op untraced)."""
    if tracer is None or path is None:
        return
    from repro.observe import write_chrome_trace
    nbytes = write_chrome_trace(tracer, path)
    print(f"trace written: {path} ({len(tracer)} spans, {nbytes} bytes)")


def _check_invariants(tracer) -> int:
    """Run the trace invariant suite: print the first violations and
    return exit code 1, or print ``ok`` and return 0."""
    from repro.observe import check_trace
    violations = check_trace(tracer)
    if violations:
        for v in violations[:10]:
            print(f"violation: {v}", file=sys.stderr)
        print(f"trace invariants: {len(violations)} violation(s)",
              file=sys.stderr)
        return 1
    print("trace invariants: ok")
    return 0


def _print_fault_counters(report) -> None:
    injected = report.counters.get("faults_injected")
    if not injected:
        return
    print(f"  faults injected : {injected:,.0f} "
          f"({report.counters.get('faults_detected'):,.0f} detected, "
          f"{report.counters.get('faults_corrected'):,.0f} corrected)")
    print(f"  retry cycles    : {report.counters.get('retry_cycles'):,.0f}")


def cmd_run(args) -> int:
    from repro.core import Alrescha, KernelType
    from repro.graph import (connected_components, run_bfs, run_pagerank,
                             run_sssp)
    from repro.solvers import AcceleratorBackend, pcg, run_hpcg

    config, tracer = _run_config(args)
    if args.kernel == "hpcg":
        dim = max(4, int(round(16 * args.scale ** (1 / 3))))
        result = run_hpcg(dim, dim, dim, iterations=args.iterations,
                          config=config)
        print(f"HPCG {dim}^3: {result.gflops:.3f} GFLOP/s simulated "
              f"({result.iterations} iterations, "
              f"BW util {result.bandwidth_utilization:.2%})")
        _write_trace(tracer, args.trace)
        return 0

    ds = _dataset(args.dataset, args.scale)
    rng = np.random.default_rng(args.seed)
    if args.kernel in ("spmv", "symgs", "pcg") and ds.kind != "scientific":
        print(f"warning: {args.kernel} on a graph dataset treats the "
              f"adjacency as the matrix operand", file=sys.stderr)

    if args.kernel == "spmv":
        acc = Alrescha.from_matrix(KernelType.SPMV, ds.matrix,
                                   config=config)
        _y, report = acc.run_spmv(rng.normal(size=ds.n))
        print(f"SpMV on {ds.name} (n={ds.n}, nnz={ds.nnz}):")
        _print_report(report)
        _print_fault_counters(report)
    elif args.kernel == "symgs":
        acc = Alrescha.from_matrix(KernelType.SYMGS, ds.matrix,
                                   config=config)
        _x, report = acc.run_symgs_sweep(rng.normal(size=ds.n),
                                         np.zeros(ds.n))
        print(f"SymGS sweep on {ds.name}:")
        _print_report(report)
        _print_fault_counters(report)
    elif args.kernel == "pcg":
        backend = AcceleratorBackend(ds.matrix, config=config)
        # With injection on, arm the solver-side recovery too.
        checkpoint = 5 if args.inject_faults else 0
        result = pcg(backend, rng.normal(size=ds.n), tol=1e-8,
                     max_iter=args.iterations,
                     checkpoint_interval=checkpoint, tracer=tracer)
        extra = (f", {result.restarts} restarts"
                 if args.inject_faults else "")
        print(f"PCG on {ds.name}: converged={result.converged} in "
              f"{result.iterations} iterations "
              f"(residual {result.final_residual:.2e}, "
              f"{backend.kernel_switches} kernel switches{extra})")
        _print_report(result.report)
        _print_fault_counters(result.report)
    elif args.kernel in ("bfs", "sssp"):
        runner = run_bfs if args.kernel == "bfs" else run_sssp
        adj = ds.matrix
        if args.kernel == "sssp" and not ds.weighted:
            adj = adj.copy()
            adj.data = 1.0 + (np.arange(adj.nnz) % 7).astype(float)
        result = runner(adj, args.source, config=config)
        reached = int(np.isfinite(result.values).sum())
        print(f"{args.kernel.upper()} on {ds.name} from {args.source}: "
              f"reached {reached}/{ds.n} in {result.iterations} passes")
        _print_report(result.report)
        _print_fault_counters(result.report)
    elif args.kernel == "pagerank":
        result = run_pagerank(ds.matrix, tol=1e-9, config=config)
        top = np.argsort(result.values)[::-1][:5]
        print(f"PageRank on {ds.name}: {result.iterations} iterations, "
              f"top-5 = {list(map(int, top))}")
        _print_report(result.report)
        _print_fault_counters(result.report)
    elif args.kernel == "cc":
        result = connected_components(ds.matrix, config=config)
        print(f"Connected components on {ds.name}: "
              f"{result.n_components} components "
              f"in {result.iterations} BFS passes")
        _print_report(result.report)
        _print_fault_counters(result.report)
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(f"unknown kernel {args.kernel}")
    _write_trace(tracer, args.trace)
    return 0


def cmd_survey(args) -> int:
    from repro.formats import format_survey
    ds = _dataset(args.name, args.scale)
    survey = format_survey(ds.matrix)
    print(f"meta-data bits per non-zero — {ds.name} "
          f"(n={ds.n}, nnz={ds.nnz}):")
    for fmt, bits in survey.items():
        print(f"  {fmt:20s} {bits:8.2f}")
    return 0


def cmd_validate(args) -> int:
    from repro.analysis import validate
    report = validate(scale=args.scale)
    print(report.summary())
    return 0 if report.passed else 1


def cmd_compile(args) -> int:
    """Host-side compilation (Figure 7): Algorithm 1 + serialisation."""
    from repro.core import KernelType
    from repro.host import compile_kernel

    ds = _dataset(args.dataset, args.scale)
    kernel = KernelType(args.kernel)
    matrix = ds.matrix if ds.kind == "scientific" else ds.matrix.T.tocsr()
    compiled = compile_kernel(kernel, matrix, omega=8)
    prog_path, img_path = compiled.save(args.output)
    print(f"compiled {args.kernel} on {ds.name} (n={ds.n}, "
          f"nnz={ds.nnz}):")
    print(f"  {prog_path}  {len(compiled.program):8d} B (program)")
    print(f"  {img_path}  {len(compiled.image):8d} B (device image)")
    return 0


def cmd_serve(args) -> int:
    """Serve a seeded trace over the device pool.

    Exit 4 when any job FAILED; exit 1 when ``--check`` found trace
    invariant violations.
    """
    from repro.runtime import (AutoscaleConfig, SchedulerConfig,
                               TraceSpec, dump_trace, load_trace,
                               make_trace, serve)
    from repro.runtime.metrics import report_json
    from repro.sim.chaos import ChaosModel

    tracer = None
    if args.trace or args.check:
        from repro.observe import Tracer
        tracer = Tracer()
    if args.trace_file:
        workload = load_trace(args.trace_file)
    else:
        workload = make_trace(TraceSpec(n_requests=args.requests,
                                        seed=args.seed,
                                        scale=args.scale,
                                        shape=args.shape))
    n_requests = len(workload)
    if args.record:
        nbytes = dump_trace(workload, args.record)
        print(f"trace recorded: {args.record} ({len(workload)} jobs, "
              f"{nbytes} bytes)")
    autoscale = (AutoscaleConfig.parse(args.autoscale)
                 if args.autoscale else None)
    chaos = ChaosModel.parse(args.chaos) if args.chaos else None
    store = None
    if args.store:
        from repro.store import ArtifactStore
        store = ArtifactStore(args.store, capacity=args.store_capacity)
    sched = SchedulerConfig(queue_depth=args.queue_depth,
                            max_batch=args.batch,
                            hedge_after=args.hedge)
    fleet_mode = (args.pools > 1 or args.replicas > 1
                  or args.pool_chaos is not None)
    if fleet_mode:
        from repro.runtime.fleet import FleetConfig, serve_fleet
        from repro.sim.chaos import PoolChaosModel
        pool_chaos = (PoolChaosModel.parse(args.pool_chaos)
                      if args.pool_chaos else None)
        results, report = serve_fleet(
            n_requests=n_requests, n_devices=args.devices,
            fault_rate=args.fault_rate, seed=args.seed,
            scale=args.scale, trace=workload, scheduler_config=sched,
            tracer=tracer, chaos=chaos, pool_chaos=pool_chaos,
            fleet_config=FleetConfig(n_pools=args.pools,
                                     replicas=args.replicas),
            artifact_store=store, autoscale=autoscale)
    else:
        # pools=1, replicas=1, no pool chaos: the exact solo path the
        # fingerprint corpus pins — no fleet layer in the loop at all.
        results, report = serve(
            n_requests=n_requests, n_devices=args.devices,
            fault_rate=args.fault_rate, seed=args.seed,
            scale=args.scale, trace=workload, scheduler_config=sched,
            tracer=tracer, chaos=chaos, artifact_store=store,
            autoscale=autoscale)
    batched = f", batch {args.batch}" if args.batch > 1 else ""
    stormy = f", chaos {args.chaos}" if args.chaos else ""
    hedged = f", hedge x{args.hedge:g}" if args.hedge else ""
    shaped = (f", shape {args.shape}"
              if args.shape != "exponential" else "")
    elastic = f", autoscale {args.autoscale}" if args.autoscale else ""
    fleety = (f", {args.pools} pool(s) x{args.replicas} replicas"
              if fleet_mode else "")
    pooly = (f", pool-chaos {args.pool_chaos}"
             if args.pool_chaos else "")
    source = (f"{n_requests} replayed requests from {args.trace_file}"
              if args.trace_file else f"{n_requests} requests")
    print(f"served {source} over {args.devices} "
          f"device(s), fault rate {args.fault_rate:g}, "
          f"seed {args.seed}{batched}{shaped}{elastic}{stormy}{hedged}"
          f"{fleety}{pooly}:")
    print(report.render())
    if store is not None:
        print(store.report().summary())
    _write_trace(tracer, args.trace)
    if args.report_json:
        payload = report_json(report)
        with open(args.report_json, "w") as fh:
            fh.write(payload)
        print(f"report written: {args.report_json} "
              f"({len(payload)} bytes)")
    if report.failed:
        failures = [r for r in results if r.status.value == "failed"]
        for r in failures[:5]:
            print(f"job {r.job_id} FAILED: {r.error}", file=sys.stderr)
        return 4
    return _check_invariants(tracer) if args.check else 0


def cmd_cache(args) -> int:
    from repro.errors import StoreError
    from repro.store import ArtifactStore

    store = ArtifactStore(args.store)
    if args.cache_cmd == "ls":
        keys = store.keys()
        total = 0
        for key in keys:
            try:
                info = store.entry_info(key)
            except StoreError as exc:
                print(f"{key}  <unreadable: {exc}>")
                continue
            total += info["bytes"]
            src = info["source"] or {}
            origin = "-"
            if src:
                origin = f"{src.get('dataset')}@{src.get('scale')}"
                if src.get("transform"):
                    origin += f":{src['transform']}"
            tpl = ",".join(info["templates"]) or "-"
            print(f"{key}  {info['bytes']:>9} B  "
                  f"n={info['n']} nnz={info['nnz']}  "
                  f"src={origin}  templates={tpl}")
        print(f"{len(keys)} artifact(s), {total} bytes in {store.root}")
        return 0
    if args.cache_cmd == "gc":
        if not args.all and args.max_bytes is None:
            from repro.errors import ConfigError
            raise ConfigError("cache gc needs --all or --max-bytes N")
        removed, freed = store.gc(max_bytes=args.max_bytes,
                                  remove_all=args.all)
        for key in removed:
            print(f"removed {key}")
        print(f"gc: removed {len(removed)} artifact(s), "
              f"freed {freed} bytes")
        return 0
    # verify
    keys = list(args.keys) or None
    checked = keys if keys is not None else store.keys()
    problems = store.verify(keys)
    if problems:
        for key, problem in problems:
            print(f"FAIL {key}: {problem}", file=sys.stderr)
        print(f"cache verify: {len(problems)} problem(s) in "
              f"{len(checked)} artifact(s)", file=sys.stderr)
        return 1
    print(f"cache verify: {len(checked)} artifact(s) ok")
    return 0


def cmd_trace(args) -> int:
    """Record one traced kernel run; print the attribution table.

    ``--out`` exports Chrome/Perfetto JSON; ``--check`` runs the trace
    invariant suite and exits 1 if any violation is found (so the
    ablation ``--no-hide-reconfig`` fails the reconfig-containment
    check visibly).
    """
    from repro.core import Alrescha, AlreschaConfig, KernelType
    from repro.observe import Tracer, attribution_table, write_chrome_trace
    from repro.solvers import AcceleratorBackend, pcg

    tracer = Tracer()
    config = AlreschaConfig(
        tracer=tracer,
        hide_reconfig_under_drain=not args.no_hide_reconfig)
    ds = _dataset(args.dataset, args.scale)
    rng = np.random.default_rng(args.seed)
    if args.kernel == "spmv":
        acc = Alrescha.from_matrix(KernelType.SPMV, ds.matrix,
                                   config=config)
        _y, report = acc.run_spmv(rng.normal(size=ds.n))
    elif args.kernel == "symgs":
        acc = Alrescha.from_matrix(KernelType.SYMGS, ds.matrix,
                                   config=config)
        _x, report = acc.run_symgs_sweep(rng.normal(size=ds.n),
                                         np.zeros(ds.n))
    else:  # pcg
        backend = AcceleratorBackend(ds.matrix, config=config)
        result = pcg(backend, rng.normal(size=ds.n), tol=1e-8,
                     max_iter=args.iterations, tracer=tracer)
        report = result.report
    print(f"{args.kernel} on {ds.name} (n={ds.n}): "
          f"{len(tracer)} spans, {report.cycles:,.0f} cycles")
    print(attribution_table(tracer))
    if args.out:
        nbytes = write_chrome_trace(tracer, args.out)
        print(f"trace written: {args.out} ({nbytes} bytes)")
    return _check_invariants(tracer) if args.check else 0


def cmd_experiment(args) -> int:
    from repro import analysis

    runners = {
        "fig3": lambda: analysis.fig3_pcg_breakdown(scale=args.scale),
        "fig6": lambda: analysis.fig6_hpcg_fraction(scale=args.scale),
        "fig15": lambda: analysis.fig15_pcg_speedup(scale=args.scale),
        "fig16": lambda: analysis.fig16_sequential_fraction(
            scale=args.scale),
        "fig17": lambda: analysis.fig17_graph_speedup(scale=args.scale),
        "fig18": lambda: analysis.fig18_spmv_speedup(scale=args.scale),
        "fig19": lambda: analysis.fig19_energy(scale=args.scale),
    }
    result = runners[args.figure]()

    def show(prefix, obj):
        if isinstance(obj, dict):
            scalar = {k: v for k, v in obj.items()
                      if isinstance(v, (int, float))}
            nested = {k: v for k, v in obj.items() if isinstance(v, dict)}
            for k, v in scalar.items():
                print(f"{prefix}{k:30s} {float(v):10.3f}")
            for k, v in nested.items():
                print(f"{prefix}{k}:")
                show(prefix + "  ", v)

    show("", result)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ALRESCHA reproduction command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list-datasets", help="list registered datasets")
    p.add_argument("--kind", choices=["scientific", "graph"], default=None)
    p.set_defaults(func=cmd_list_datasets)

    p = sub.add_parser("info", help="structural profile of a dataset")
    p.add_argument("name")
    p.add_argument("--scale", type=float, default=0.1)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("run", help="run a kernel on the accelerator")
    p.add_argument("kernel", choices=["spmv", "symgs", "pcg", "bfs",
                                      "sssp", "pagerank", "cc", "hpcg"])
    p.add_argument("--dataset", default="stencil27")
    p.add_argument("--scale", type=float, default=0.1)
    p.add_argument("--source", type=int, default=0)
    p.add_argument("--iterations", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--inject-faults", metavar="RATE[:SEED[:KINDS]]", default=None,
        help="inject transfer faults at the given per-block probability "
             "(deterministic under the optional seed), e.g. 0.01:42",
    )
    p.add_argument(
        "--trace", metavar="FILE", default=None,
        help="export a cycle-attributed Chrome/Perfetto trace to FILE",
    )
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("survey", help="Figure 12 format survey")
    p.add_argument("name")
    p.add_argument("--scale", type=float, default=0.1)
    p.set_defaults(func=cmd_survey)

    p = sub.add_parser(
        "validate",
        help="cross-check the accelerator against the golden kernels",
    )
    p.add_argument("--scale", type=float, default=0.05)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser(
        "compile",
        help="compile a kernel to program binary + device image files",
    )
    p.add_argument("kernel", choices=["spmv", "symgs", "bfs", "sssp",
                                      "pagerank"])
    p.add_argument("--dataset", default="stencil27")
    p.add_argument("--scale", type=float, default=0.1)
    p.add_argument("--output", "-o", default="kernel")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser(
        "serve",
        help="run a workload trace through the multi-device runtime",
    )
    p.add_argument("--requests", type=int, default=100)
    p.add_argument("--devices", type=int, default=4)
    p.add_argument("--fault-rate", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=float, default=0.05)
    p.add_argument("--queue-depth", type=int, default=32)
    p.add_argument(
        "--batch", type=int, default=1, metavar="K",
        help="coalesce up to K compatible queued requests into one "
             "multi-RHS dispatch that streams the matrix payload once "
             "(1 disables coalescing)",
    )
    p.add_argument(
        "--trace", metavar="FILE", default=None,
        help="export a cycle-attributed Chrome/Perfetto trace to FILE",
    )
    p.add_argument(
        "--trace-file", metavar="FILE", default=None,
        help="replay a canonical-JSON workload trace (written by "
             "repro.runtime.dump_trace) instead of generating one; "
             "overrides --requests",
    )
    p.add_argument(
        "--record", metavar="FILE", default=None,
        help="capture the served workload trace to FILE in the "
             "versioned canonical-JSON format, so a later "
             "--trace-file FILE replays exactly the same jobs",
    )
    p.add_argument(
        "--shape", default="exponential", metavar="SHAPE",
        help="arrival/popularity shape of the generated trace: "
             "'exponential' (the plain default), or '+'-composable "
             "'bursty', 'diurnal', 'zipf' (e.g. bursty+zipf); ignored "
             "when replaying --trace-file",
    )
    p.add_argument(
        "--autoscale", metavar="MIN:MAX[:COOLDOWN]", default=None,
        help="elastic per-pool capacity: --devices is the starting "
             "size, scaled within [MIN, MAX] by queue-depth and "
             "device-health signals with drain-before-remove "
             "semantics (COOLDOWN cycles of hysteresis between "
             "actions)",
    )
    p.add_argument(
        "--pools", type=int, default=1, metavar="N",
        help="serve over N replicated device pools (default 1: the "
             "plain single-pool scheduler, no fleet layer)")
    p.add_argument(
        "--replicas", type=int, default=1, metavar="R",
        help="replica-set width for hot content keys (capped at "
             "--pools; default 1)")
    p.add_argument(
        "--pool-chaos", metavar="RATE[:SEED]", default=None,
        help="inject seeded whole-pool outages; an outage voids the "
             "pool's in-flight work and re-routes its jobs to "
             "surviving replicas, readmission is probe-verified")
    p.add_argument(
        "--chaos", metavar="RATE[:SEED[:KINDS]]", default=None,
        help="inject seeded device-lifecycle chaos (crashes and hangs) "
             "at the given intensity in [0, 1], e.g. 0.2:7; jobs are "
             "salvaged, crashed devices quarantined then probed",
    )
    p.add_argument(
        "--hedge", type=float, default=None, metavar="MULT",
        help="hedged dispatch: once an attempt has run MULT x its "
             "nominal estimate, launch a speculative duplicate on a "
             "second healthy device (first verified answer wins)",
    )
    p.add_argument(
        "--report-json", metavar="FILE", default=None,
        help="write the PoolReport as canonical JSON to FILE "
             "(byte-stable across identical runs)",
    )
    p.add_argument(
        "--check", action="store_true",
        help="record a trace and run the serving invariant checks "
             "(exit 1 on violation)",
    )
    p.add_argument(
        "--store", metavar="DIR", default=None,
        help="content-addressed artifact store directory: compiled "
             "plans, device images and templates persist here, so a "
             "re-run against a primed store does zero programming-phase "
             "compilations (see the printed 'store:' summary line)",
    )
    p.add_argument(
        "--store-capacity", type=int, default=16, metavar="N",
        help="in-process LRU capacity of the artifact store (entries)",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "cache",
        help="inspect and maintain a content-addressed artifact store",
    )
    cache_sub = p.add_subparsers(dest="cache_cmd", required=True,
                                 metavar="ACTION")
    c = cache_sub.add_parser("ls", help="list stored artifacts")
    c.add_argument("--store", metavar="DIR", required=True,
                   help="artifact store directory")
    c.set_defaults(func=cmd_cache)
    c = cache_sub.add_parser("gc", help="delete stored artifacts")
    c.add_argument("--store", metavar="DIR", required=True,
                   help="artifact store directory")
    c.add_argument("--max-bytes", type=int, default=None, metavar="N",
                   help="evict oldest artifacts until the store holds "
                        "at most N bytes")
    c.add_argument("--all", action="store_true",
                   help="remove every artifact")
    c.set_defaults(func=cmd_cache)
    c = cache_sub.add_parser(
        "verify",
        help="deep-verify stored artifacts (checksums, full decode, and "
             "recompile-and-byte-diff where source metadata allows); "
             "exit 1 naming each damaged or divergent key",
    )
    c.add_argument("--store", metavar="DIR", required=True,
                   help="artifact store directory")
    c.add_argument("keys", nargs="*", metavar="KEY",
                   help="specific content keys (default: every artifact)")
    c.set_defaults(func=cmd_cache)

    p = sub.add_parser(
        "trace",
        help="record a cycle-attributed span trace of one kernel run",
    )
    p.add_argument("kernel", choices=["spmv", "symgs", "pcg"])
    p.add_argument("--dataset", default="stencil27")
    p.add_argument("--scale", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iterations", type=int, default=10,
                   help="PCG iteration cap (pcg only)")
    p.add_argument("--out", "-o", metavar="FILE", default=None,
                   help="write Chrome/Perfetto JSON to FILE")
    p.add_argument("--no-hide-reconfig", action="store_true",
                   help="ablation: expose reconfiguration latency "
                        "instead of hiding it under the drain")
    p.add_argument("--check", action="store_true",
                   help="run the trace invariant checks (exit 1 on "
                        "violation)")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("experiment", help="regenerate one paper figure")
    p.add_argument("figure", choices=["fig3", "fig6", "fig15", "fig16",
                                      "fig17", "fig18", "fig19"])
    p.add_argument("--scale", type=float, default=0.1)
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.errors import (ConfigError, CorruptionError, DatasetError,
                              FaultError, FormatError, StoreError)

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FaultError, CorruptionError) as exc:
        # An injected fault exhausted its recovery budget: surfaced as a
        # typed error, distinct exit code so studies can count failures.
        print(f"fault: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    except (DatasetError, FormatError, ConfigError, StoreError) as exc:
        # User-facing input problems: one line on stderr, no traceback.
        msg = f"error: {exc}"
        if isinstance(exc, DatasetError) and "unknown dataset" in msg \
                and "known:" not in msg:
            from repro.datasets import list_datasets
            msg += "; known datasets: " + ", ".join(sorted(list_datasets()))
        print(msg, file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

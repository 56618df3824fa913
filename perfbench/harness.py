"""The four benchmark workloads, their output checks and their metrics.

Each workload has a set-up and a closed loop of iterations: a
store-backed cold/warm start pair, then a round (store-start has no
round: its start pairs are what it measures).  The benchmark calls only
the program's public functions (``make_trace``, ``serve``,
``report_json``, ``load_dataset``, ``clear_dataset_cache``, ``pcg``,
``AcceleratorBackend``, ``ReferenceBackend``, ``ArtifactStore``) and
hands it only the inputs it generated from the seed.

Two kinds of number come out and are never mixed: host seconds (how
fast the simulator runs, measured here) and the model's simulated
outputs (``sim.*``, exact, printed for the given seed).
"""

from __future__ import annotations

import gc
import json
import math
import resource
import shutil
import statistics
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

import repro.datasets as datasets
import repro.runtime as runtime
import repro.runtime.metrics as runtime_metrics
import repro.solvers as solvers
from repro.analysis.experiments import SCIENTIFIC_SUITE
from repro.core import AlreschaConfig
from repro.runtime import (
    AutoscaleConfig,
    ChaosModel,
    JobStatus,
    SchedulerConfig,
    TraceSpec,
)
from repro.store import ArtifactStore

import tracing

#: The benchmark's definition: workload names and each metric's unit.
SPEC = json.loads((Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

#: Model outputs each workload prints (0 where the workload has none).
SIM_KEYS = tuple(k for k in PER_LAYER if k.startswith("sim."))

#: Counters the traced run reads from a serve round's ``PoolReport``
#: (0 on pcg-solve, which serves nothing).
SERVE_COUNTERS = (
    "scheduler.queue_peak", "scheduler.retries", "scheduler.batches",
    "scheduler.hedges_launched", "scheduler.hedges_won",
    "scheduler.crashes", "autoscale.scale_ups", "autoscale.scale_downs",
    "autoscale.device_cycles_provisioned")


@dataclass
class Op:
    """Outcome of one timed call: a set-up, a start or a round."""

    kind: str
    seconds: float
    #: Trace jobs served (a PCG solve counts as one job).
    jobs: int
    attempted: int
    failed: int
    #: False when a check found a wrong output (not merely a missing one).
    correct: bool = True


class Workload:
    """Shared workload machinery: timing, tracing hooks, failure counts,
    and the store-backed start."""

    name = ""
    #: Jobs one start serves (a backend build counts as one).
    start_jobs = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.store_root = workdir / "store"
        self.recorder: Optional[tracing.Recorder] = None
        self.sim: Dict[str, float] = dict.fromkeys(SIM_KEYS, 0)
        #: Report-derived counters of the latest traced unit.
        self.counters: Dict[str, float] = dict.fromkeys(SERVE_COUNTERS, 0)
        self.store_reports: list = []
        self.log: List[str] = []
        self.ops: List[Op] = []

    # -- timing ---------------------------------------------------------
    @contextmanager
    def timed(self, kind: str):
        """Time the body; under tracing it is one operation's root span."""
        box = {"seconds": 0.0}
        rec = self.recorder
        idx = rec.begin_op(kind) if rec is not None else None
        t0 = time.perf_counter()
        try:
            yield box
        finally:
            box["seconds"] = time.perf_counter() - t0
            if rec is not None:
                rec.end_op(idx)

    def fail(self, what: str) -> None:
        """Record a failed check or a raised call (stderr at the end)."""
        self.log.append(what)

    def guarded(self, kind: str, attempted: int, jobs: int, call):
        """Run ``call`` (which returns an :class:`Op`); a raise fails all
        of its ``attempted`` operations and the run goes on."""
        try:
            return call()
        except Exception:  # the benchmark must survive a failing call
            self.fail(f"{kind} raised:\n{traceback.format_exc()}")
            return Op(kind, math.nan, jobs, attempted, attempted)

    # -- starts ---------------------------------------------------------
    def start(self, cold: bool) -> Op:
        """One start through a fresh :class:`ArtifactStore`: on an empty
        directory (cold) or on the one the cold start primed (warm).  The
        dataset cache is cleared first, as in a fresh process."""
        kind = "cold" if cold else "warm"

        def call() -> Op:
            if cold:
                shutil.rmtree(self.store_root, ignore_errors=True)
            datasets.clear_dataset_cache()
            with self.timed(kind) as t:
                store = ArtifactStore(self.store_root)
                out = self.boot(store)
            correct, ok = self.check_boot(kind, out)
            ok = self.check_store(kind, store) and ok
            return Op(kind, t["seconds"], self.start_jobs, 1,
                      0 if ok else 1, correct)

        return self.guarded(kind, 1, self.start_jobs, call)

    def check_store(self, kind: str, store: ArtifactStore) -> bool:
        """A cold start compiles; a warm one compiles and captures nothing."""
        report = store.report()
        self.store_reports.append(report)
        if kind == "cold":
            ok = report.conversions_compiled > 0
        else:
            ok = (report.conversions_compiled == 0
                  and report.templates_captured == 0)
        if not ok:
            self.fail(f"{self.name}: {kind} start store check failed: "
                      f"{report.summary()}")
        return ok

    # -- workload interface ----------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def after_setup(self) -> None:
        """Untimed work after each set-up (inputs for the checks)."""

    def boot(self, store: ArtifactStore):
        """The timed body of a start, built on ``store``."""
        raise NotImplementedError

    def check_boot(self, kind: str, out) -> Tuple[bool, bool]:
        """``(correct, ok)`` of a start's output: ``ok`` is false also
        when the output is merely incomplete."""
        return True, True

    def round(self, index: int) -> List[Op]:
        return []

    def timed_setup(self) -> float:
        with self.timed("setup") as t:
            self.setup()
        self.after_setup()
        return t["seconds"]

    def iteration(self, index: int) -> List[Op]:
        """One pass of the closed loop: the start pair, then round
        ``index``; the round's ops come last."""
        return [self.start(cold=True), self.start(cold=False)] + self.round(
            index)

    def unit(self) -> List[Op]:
        """The fixed work a traced run repeats: one set-up and the
        first iteration."""
        return [Op("setup", self.timed_setup(), 0, 0, 0)] + self.iteration(0)


# ----------------------------------------------------------------------
# Serving workloads
# ----------------------------------------------------------------------
def count_failed(trace: Sequence, results: Iterable) -> int:
    """Trace jobs with no result, or whose result is ``FAILED``.

    Counted from the generated trace, not from the program's report, so
    a job the scheduler loses entirely still counts.
    """
    status = {r.job_id: r.status for r in results}
    return sum(1 for job in trace
               if status.get(job.job_id, JobStatus.FAILED)
               is JobStatus.FAILED)


def result_signature(results, report_bytes: str):
    """What two runs of one trace must agree on: report bytes, and each
    job's status and answer CRC."""
    return report_bytes, [(r.job_id, r.status, r.value_crc)
                          for r in results]


class ServeWorkload(Workload):
    """One pool of 4 devices serving a seeded trace.

    A round serves the whole trace; every round serves the same trace,
    so each must return byte-identical report JSON.  A start brings a
    pool up by serving one job of each distinct workload in the trace,
    and must reproduce a storeless bring-up byte for byte.
    """

    def __init__(self, name: str, seed: int, workdir: Path,
                 n_jobs: int, trace_kwargs: dict, policy) -> None:
        super().__init__(seed, workdir)
        self.name = name
        self.n_jobs = n_jobs
        self.trace_kwargs = trace_kwargs
        #: Builds the serve() policy arguments afresh for every call:
        #: chaos models carry draw state.
        self.policy = policy
        self.trace: list = []
        self._reference = None
        self.start_reference = None

    def serve(self, trace, **extra):
        results, report = runtime.serve(
            len(trace), trace=trace, n_devices=4, seed=self.seed,
            **self.policy(self.seed), **extra)
        return results, report, runtime_metrics.report_json(report)

    def setup(self) -> None:
        self.trace = runtime.make_trace(TraceSpec(
            n_requests=self.n_jobs, seed=self.seed, **self.trace_kwargs))

    def start_trace_of(self, trace: list) -> list:
        """The jobs a start serves: one of each distinct workload."""
        firsts: Dict[tuple, object] = {}
        for job in trace:
            firsts.setdefault((job.dataset, job.kernel), job)
        return list(firsts.values())

    def after_setup(self) -> None:
        if self.start_reference is not None:
            return  # every set-up builds the same trace
        self.start_trace = self.start_trace_of(self.trace)
        self.start_jobs = len(self.start_trace)
        results, report, rj = self.serve(self.start_trace)
        self.start_reference = result_signature(results, rj)
        # Round 0, where there is one, replaces these with its own.
        self.sim.update(serve_sim(report))
        self.counters = serve_counters(report)

    def boot(self, store: ArtifactStore):
        return self.serve(self.start_trace, artifact_store=store)

    def check_boot(self, kind: str, out) -> Tuple[bool, bool]:
        results, _report, rj = out
        correct = result_signature(results, rj) == self.start_reference
        if not correct:
            self.fail(f"{self.name}: {kind} start report or answers differ "
                      f"from the storeless start's")
        lost = count_failed(self.start_trace, results)
        if lost:
            self.fail(f"{self.name}: {kind} start: {lost} jobs failed or "
                      f"have no result")
        return correct, correct and not lost

    def round(self, index: int) -> List[Op]:
        n = len(self.trace)

        def call() -> Op:
            with self.timed("round") as t:
                results, report, rj = self.serve(self.trace)
            failed = count_failed(self.trace, results)
            correct = True
            ids = [r.job_id for r in results]
            if len(set(ids)) != len(ids) or not set(ids) <= {
                    j.job_id for j in self.trace}:
                self.fail(f"{self.name}: results hold unknown or "
                          f"duplicate job ids")
                correct = False
            statuses = (report.ok + report.timeout + report.degraded
                        + report.rejected + report.failed)
            if statuses != n:
                self.fail(f"{self.name}: status counts sum to {statuses} "
                          f"for a {n}-job trace; {n - len(results)} jobs "
                          f"have no result")
            if self._reference is None:
                self._reference = rj
                self.sim.update(serve_sim(report))
                self.counters = serve_counters(report)
            elif rj != self._reference:
                self.fail(f"{self.name}: a round's report differs from "
                          f"round 0's on the same trace")
                correct = False
            return Op("round", t["seconds"], n, n,
                      failed if correct else n, correct)

        return [self.guarded("round", n, n, call)]


def serve_sim(report) -> Dict[str, float]:
    return {"sim.makespan_cycles": report.makespan_cycles,
            "sim.latency_p50_cycles": report.latency_p50_cycles,
            "sim.latency_p99_cycles": report.latency_p99_cycles,
            "sim.ok": report.ok, "sim.rejected": report.rejected,
            "sim.timeout": report.timeout,
            "sim.degraded": report.degraded}


def serve_counters(report) -> Dict[str, float]:
    auto = report.autoscale
    return dict(zip(SERVE_COUNTERS, (
        report.queue_peak, report.retries, report.batches,
        report.hedges_launched, report.hedges_won, report.crashes,
        *((auto.scale_ups, auto.scale_downs, auto.device_cycles_provisioned)
          if auto else (0, 0, 0.0)))))


#: Large-trace arrivals of the load benchmarks: about 0.85 utilisation
#: of 4 devices, deadlines loose enough to measure throughput.
LOAD_TRACE = dict(scale=0.05, mean_interarrival_cycles=300.0,
                  deadline_range=(200_000.0, 400_000.0))


def eager_policy(_seed: int) -> dict:
    return dict(fault_rate=0.02, execution="model")


def storm_policy(seed: int) -> dict:
    return dict(fault_rate=0.02, execution="model",
                scheduler_config=SchedulerConfig(max_batch=4,
                                                 hedge_after=2.0),
                chaos=ChaosModel(rate=0.1, seed=seed),
                autoscale=AutoscaleConfig(min_devices=2, max_devices=8))


#: Bursts arrive at 6x the quiet rate and overflow the admission queue;
#: the mean rate (2.25x the quiet rate) is served by the 2:8 pool.
STORM_TRACE = dict(scale=0.05, mean_interarrival_cycles=800.0,
                   deadline_range=(200_000.0, 400_000.0),
                   shape="bursty+zipf")


# ----------------------------------------------------------------------
# PCG solves
# ----------------------------------------------------------------------
#: pcg-solve's system and solver settings.
PCG_DATASET = "stencil27"
PCG_TOL = 1e-12
PCG_MAX_ITER = 100


class PcgWorkload(Workload):
    """A closed loop of PCG solves on :class:`AcceleratorBackend`.

    Each round solves one right-hand side drawn from the seed and the
    round index.  A start builds the backend against the store.
    """

    name = "pcg-solve"

    def __init__(self, seed: int, workdir: Path, scale: float = 1.0) -> None:
        super().__init__(seed, workdir)
        self.scale = scale

    def setup(self) -> None:
        datasets.clear_dataset_cache()
        self.matrix = datasets.load_dataset(PCG_DATASET,
                                            scale=self.scale).matrix
        self.backend = solvers.AcceleratorBackend(self.matrix)

    def after_setup(self) -> None:
        self.reference = solvers.ReferenceBackend(self.matrix)

    def boot(self, store: ArtifactStore):
        matrix = datasets.load_dataset(PCG_DATASET, scale=self.scale).matrix
        return solvers.AcceleratorBackend(
            matrix, config=AlreschaConfig(artifact_store=store),
            source={"dataset": PCG_DATASET, "scale": self.scale})

    def rhs(self, index: int) -> np.ndarray:
        rng = np.random.default_rng([self.seed, index])
        return rng.normal(size=self.matrix.shape[0])

    def round(self, index: int) -> List[Op]:
        def call() -> Op:
            b = self.rhs(index)
            self.backend.reset_reports()
            with self.timed("round") as t:
                result = solvers.pcg(self.backend, b, tol=PCG_TOL,
                                     max_iter=PCG_MAX_ITER)
            ok = self.check_solve(index, b, result)
            if index == 0:
                self.sim.update({
                    "sim.solve_cycles": float(result.report.cycles),
                    "sim.solve_energy_j": float(result.report.energy_j)})
            return Op("round", t["seconds"], 1, 1, 0 if ok else 1, ok)

        return [self.guarded("round", 1, 1, call)]

    def check_solve(self, index: int, b: np.ndarray, result) -> bool:
        x = result.x
        residual = float(np.linalg.norm(b - self.matrix @ x)
                         / np.linalg.norm(b))
        ref = solvers.pcg(self.reference, b, tol=PCG_TOL,
                          max_iter=PCG_MAX_ITER).x
        gap = float(np.max(np.abs(x - ref)))
        problems = []
        if not (result.converged and result.iterations <= PCG_MAX_ITER):
            problems.append(f"not converged in {PCG_MAX_ITER} iterations")
        if not residual <= PCG_TOL:
            problems.append(f"|b-Ax|/|b| = {residual:.3e} > {PCG_TOL}")
        if not gap <= 1e-10 * max(1.0, float(np.max(np.abs(ref)))):
            problems.append(f"max |x - x_ref| = {gap:.3e}")
        for problem in problems:
            self.fail(f"pcg-solve: round {index}: {problem}")
        return not problems


# ----------------------------------------------------------------------
# Store starts
# ----------------------------------------------------------------------
class StoreStartWorkload(ServeWorkload):
    """Cold then warm simulate-mode ``serve()`` of the whole trace.

    4 devices over the Figure 14 scientific datasets x {spmv, symgs}.
    The set-up builds the trace; a storeless serve of it, made once and
    untimed, is the reference both stored starts must reproduce byte for
    byte.  There is no round: the starts are what this workload times.
    """

    def __init__(self, seed: int, workdir: Path,
                 suite: Sequence[str] = tuple(SCIENTIFIC_SUITE),
                 scale: float = 0.5, n_jobs: int = 80) -> None:
        super().__init__(
            "store-start", seed, workdir, n_jobs,
            dict(scale=scale,
                 workloads=tuple((d, k) for d in suite
                                 for k in ("spmv", "symgs")),
                 mean_interarrival_cycles=20_000.0,
                 deadline_range=(2_000_000.0, 4_000_000.0)),
            lambda _seed: {})

    def start_trace_of(self, trace: list) -> list:
        return trace

    def round(self, index: int) -> List[Op]:
        return []


# ----------------------------------------------------------------------
# Registry and measurement
# ----------------------------------------------------------------------
def make_workload(name: str, seed: int, workdir: Path,
                  small: bool = False) -> Workload:
    """Build a workload at benchmark size, or tiny for self-tests."""
    if name == "serve-eager":
        return ServeWorkload(name, seed, workdir, 2_000 if small else 50_000,
                             LOAD_TRACE, eager_policy)
    if name == "serve-storm":
        return ServeWorkload(name, seed, workdir, 2_000 if small else 20_000,
                             STORM_TRACE, storm_policy)
    if name == "pcg-solve":
        return PcgWorkload(seed, workdir, scale=0.05 if small else 1.0)
    if name == "store-start":
        if small:
            return StoreStartWorkload(seed, workdir,
                                      suite=("stencil27", "af_shell"),
                                      scale=0.05, n_jobs=8)
        return StoreStartWorkload(seed, workdir)
    raise ValueError(f"unknown workload {name!r}; known: {WORKLOADS}")


@dataclass
class Sample:
    """One metric's value with the number of samples behind it."""

    value: float
    samples: int
    unit: str
    #: The value as measured, before scaling to the reference host speed.
    raw: float


#: Median :class:`Probe` time of a run on the reference host, the 2-vCPU
#: 2.1 GHz Xeon virtual machine the committed results come from, when it
#: runs fast.  End-to-end times are scaled by this over the run's own
#: median probe time, and rates by its inverse.
PROBE_REFERENCE_S = 0.010


class Probe:
    """A fixed piece of array work, timed between a run's operations.

    Sparse matrix-vector products, gathers and segmented sums on fixed
    inputs: memory-bound work like plan execution and conversion.  Its
    median time over a run measures how fast the host ran during that
    run.  It calls no program code, and runs with the cyclic garbage
    collector off, so the program's live objects do not change the work
    it times.
    """

    REPS = 200

    def __init__(self) -> None:
        import scipy.sparse as sp
        rng = np.random.default_rng(0)
        n, nnz = 3000, 36_000
        self.matrix = sp.csr_matrix(
            (rng.normal(size=nnz), (rng.integers(0, n, size=nnz),
                                    rng.integers(0, n, size=nnz))),
            shape=(n, n))
        self.x = rng.normal(size=n)
        self.index = rng.integers(0, n, size=4 * n)
        self.segments = np.arange(0, self.index.size, 64)
        self.times: List[float] = []

    def run(self) -> None:
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            x = self.x
            for _ in range(self.REPS):
                y = self.matrix @ x
                z = np.add.reduceat(y[self.index], self.segments)
                x = x + 1e-3 * z.sum() / (1.0 + np.dot(y, y))
            self.times.append(time.perf_counter() - t0)
        finally:
            if collecting:
                gc.enable()


#: An untraced run times at least this many set-ups, for at least this
#: many seconds (``setup_s`` is their median): a set-up that takes under
#: a millisecond gets enough samples to be steady.
SETUP_REPS, SETUP_SECONDS = 5, 1.0


def measure(wl: Workload, seconds: float) -> Dict[str, Sample]:
    """Untraced run: the set-ups, then iterations for ``seconds``.

    Starts and rounds alternate through the whole window, so every
    metric's median samples the same stretch of host time.  A
    :class:`Probe` runs before the set-ups, before each iteration and at
    the end; times are scaled to the reference host speed by
    ``PROBE_REFERENCE_S / median probe time``, rates inversely, which
    takes out most of the host's speed drift between runs.
    """
    probe = wl.probe = Probe()
    probe.run()
    setups: List[float] = []
    deadline = time.perf_counter() + SETUP_SECONDS
    while len(setups) < SETUP_REPS or time.perf_counter() < deadline:
        setups.append(wl.timed_setup())
    deadline = time.perf_counter() + seconds
    wl.ops = []
    rounds: List[List[Op]] = []
    while not rounds or time.perf_counter() < deadline:
        probe.run()
        ops = wl.iteration(len(rounds))
        wl.ops += ops
        rounds.append([op for op in ops if op.kind == "round"] or ops)
    probe.run()
    speed = PROBE_REFERENCE_S / statistics.median(probe.times)
    round_s = [sum(op.seconds for op in r) for r in rounds]
    rates = [sum(op.jobs for op in r) / s for r, s in zip(rounds, round_s)]
    cold = [op.seconds for op in wl.ops if op.kind == "cold"]
    warm = [op.seconds for op in wl.ops if op.kind == "warm"]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {"setup_s": (setups, speed), "peak_rss_mb": ([rss_mb], 1.0),
              "jobs_per_s": (rates, 1.0 / speed),
              "solve_s_p50": (round_s, speed),
              "cold_start_s_p50": (cold, speed),
              "warm_start_s_p50": (warm, speed)}
    return {name: Sample(_median(v) * factor, len(v), END_TO_END[name],
                         _median(v))
            for name, (v, factor) in values.items()}


def _median(values: List[float]) -> float:
    """Median of the finite values (a raised call has no time)."""
    finite = [v for v in values if math.isfinite(v)]
    return statistics.median(finite) if finite else math.nan


def measure_traced(wl: Workload, seconds: float, spans_path: Path
                   ) -> Dict[str, float]:
    """Traced run: the unit untraced, then traced, until ``seconds``.

    Reports the per-layer metrics of the repetition whose traced wall
    time is the (lower) median, so its self times and
    ``trace.unattributed_s`` add up to its ``trace.wall_s``;
    ``trace.overhead_s`` is the median over repetitions of traced minus
    untraced wall time.
    """
    deadline = time.perf_counter() + seconds
    reps = []
    wl.ops = []
    while not reps or time.perf_counter() < deadline:
        plain = wl.unit()
        untraced = sum(op.seconds for op in plain)
        rec = tracing.Recorder()
        handle = tracing.install(rec)
        wl.recorder = rec
        wl.store_reports = []
        try:
            wl.ops += plain + wl.unit()
        finally:
            wl.recorder = None
            handle.remove()
        reps.append((rec.wall_s(), untraced, rec, list(wl.store_reports),
                     dict(wl.counters)))
    walls = [r[0] for r in reps]
    _wall, _untraced, rec, stores, counters = reps[
        walls.index(statistics.median_low(walls))]
    rec.save(spans_path)
    out = tracing.layer_metrics(rec)
    out["trace.overhead_s"] = statistics.median(
        wall - untraced for wall, untraced, *_rest in reps)
    out.update(counters)
    out.update(store_counters(stores))
    out.update(wl.sim)
    return out


def store_counters(reports) -> Dict[str, float]:
    """Summed :class:`StoreReport` counters of the unit's starts."""
    def total(field: str) -> int:
        return sum(getattr(r, field) for r in reports)

    compiled = total("conversions_compiled")
    loaded = total("conversions_loaded")
    hits = total("memory_hits")
    lookups = compiled + loaded + hits
    return {"store.compiled": compiled, "store.loaded": loaded,
            "store.mem_hits": hits, "store.evicted": total("evictions"),
            "store.captured": total("templates_captured"),
            "store.bytes_written": total("bytes_written"),
            "store.bytes_read": total("bytes_read"),
            "store.hit_ratio": (loaded + hits) / lookups if lookups
            else 0.0}

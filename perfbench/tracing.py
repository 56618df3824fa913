"""Host-time spans around the simulator's layer entry points.

A :class:`Recorder` keeps one span per wrapped call -- name, start, end,
parent span and operation id -- in flat in-memory arrays, and writes
them out once, when the run ends.  :func:`install` replaces each layer's
public entry points *at the names their callers look up* (the module
attribute a ``from x import f`` call site reads, the class attribute for
methods) with a recording wrapper, and returns a handle that restores
the originals.  The program itself is never edited.

Self time is a span's duration minus the part its direct children
cover.  The benchmark's own operation spans (a set-up, a start, a
round) are the roots; their self time is host time spent in no layer,
reported as ``trace.unattributed_s``.  The layers' self times plus that
remainder add up to the traced wall time, the summed root spans.
"""

from __future__ import annotations

import importlib
import time
import weakref
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: ``(self-time metric, module, class or None, attribute)`` per wrapped
#: entry point.  ``None`` wraps the module attribute itself.
ENTRY_POINTS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("jobs.make_trace_s", "repro.runtime", None, "make_trace"),
    ("datasets.load_s", "repro.datasets", None, "load_dataset"),
    ("convert.s", "repro.core.accelerator", None, "convert"),
    ("convert.s", "repro.store.store", None, "convert"),
    ("encode.s", "repro.store.store", None, "encode_program"),
    ("encode.s", "repro.store.store", None, "encode_image"),
    ("decode.s", "repro.store.store", None, "decode_program"),
    ("decode.s", "repro.store.store", None, "decode_image"),
    ("program.s", "repro.core.accelerator", "Alrescha", "program"),
    ("plan.compile_s", "repro.core.accelerator", None, "compile_pass"),
    ("plan.execute_s", "repro.core.accelerator", "Alrescha", "run_spmv"),
    ("plan.execute_s", "repro.core.accelerator", "Alrescha",
     "run_spmv_batch"),
    ("plan.execute_s", "repro.core.accelerator", "Alrescha",
     "run_symgs_sweep"),
    ("plan.execute_s", "repro.core.accelerator", "Alrescha",
     "run_symgs_batch"),
    ("solvers.self_s", "repro.solvers", None, "pcg"),
    ("solvers.spmv_s", "repro.solvers.backends", "AcceleratorBackend",
     "spmv"),
    ("solvers.precondition_s", "repro.solvers.backends",
     "AcceleratorBackend", "precondition"),
    ("solvers.vector_s", "repro.solvers.backends", "AcceleratorBackend",
     "vector_op"),
    ("solvers.vector_s", "repro.solvers.pcg", None, "dot"),
    ("solvers.vector_s", "repro.solvers.pcg", None, "norm2"),
    ("solvers.vector_s", "repro.solvers.pcg", None, "waxpby"),
    ("store.lookup_s", "repro.store.store", "ArtifactStore", "conversion"),
    ("store.lookup_s", "repro.store.store", "ArtifactStore",
     "load_template"),
    ("store.save_s", "repro.store.store", "ArtifactStore",
     "save_template"),
    ("pool.attempt_s", "repro.runtime.pool", "Device", "attempt"),
    ("pool.attempt_s", "repro.runtime.pool", "Device", "attempt_batch"),
    ("pool.pricing_s", "repro.runtime.pool", "DevicePool",
     "nominal_cycles"),
    ("pool.pricing_s", "repro.runtime.pool", "DevicePool",
     "nominal_dram_bytes"),
    ("pool.pricing_s", "repro.runtime.pool", "DevicePool",
     "nominal_batch_cycles"),
    ("scheduler.self_s", "repro.runtime.scheduler", "Scheduler", "run"),
    ("scheduler.self_s", "repro.runtime.scheduler", "Scheduler", "start"),
    ("scheduler.self_s", "repro.runtime.scheduler", "Scheduler",
     "advance"),
    ("scheduler.self_s", "repro.runtime.scheduler", "Scheduler", "finish"),
    ("events.s", "repro.runtime.events", "EventQueue", "push"),
    ("events.s", "repro.runtime.events", "EventQueue", "pop"),
    ("events.s", "repro.runtime.events", "EventQueue", "mark_stale"),
    ("metrics.report_s", "repro.runtime.scheduler", None, "build_report"),
    ("metrics.report_s", "repro.runtime.metrics", None, "report_json"),
)

#: Self-time metrics, each fed by one or more entry points.
SELF_TIME_METRICS = tuple(dict.fromkeys(e[0] for e in ENTRY_POINTS))


def span_name(owner: Optional[str], attr: str) -> str:
    """The span name of an entry point: ``Class.method`` or ``function``."""
    return attr if owner is None else f"{owner}.{attr}"


class Recorder:
    """In-memory span log plus the counters measured at the same calls.

    Recording is on only inside an operation (between :meth:`begin_op`
    and :meth:`end_op`), so the benchmark's output checks, which call
    some of the same entry points, leave no spans.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Dict[str, float] = {}
        self.enabled = False
        self._stack = [-1]
        self._op = -1
        #: Datasets already returned, by id: a cache hit returns the
        #: same object, a generated dataset is a new one.
        self._datasets: Dict[int, weakref.ref] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key: str, value: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, kind: str) -> int:
        """Open the root span of one benchmark operation and record."""
        self._op += 1
        idx = self.open(self.name_id("op." + kind))
        self.enabled = True
        return idx

    def end_op(self, idx: int) -> None:
        self.enabled = False
        self.close(idx)

    def note_dataset(self, dataset) -> None:
        key = id(dataset)
        ref = self._datasets.get(key)
        if ref is not None and ref() is dataset:
            return
        self.add("datasets.generated")
        self._datasets[key] = weakref.ref(
            dataset, lambda _r, key=key: self._datasets.pop(key, None))

    def _arrays(self):
        return (np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def wall_s(self) -> float:
        """Traced wall time: the summed duration of the root spans."""
        _, parent, start, end = self._arrays()
        roots = parent < 0
        return float((end[roots] - start[roots]).sum())

    def by_name(self) -> Dict[str, Tuple[float, float, int]]:
        """``{span name: (self seconds, inclusive seconds, calls)}``."""
        if not len(self.start):
            return {}
        names, parent, start, end = self._arrays()
        dur = end - start
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested],
                              minlength=len(dur))
        width = len(self.names)
        own = np.bincount(names, weights=dur - covered, minlength=width)
        total = np.bincount(names, weights=dur, minlength=width)
        calls = np.bincount(names, minlength=width)
        return {name: (float(own[i]), float(total[i]), int(calls[i]))
                for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        """Write every span and the name table as one ``.npz`` file."""
        names, parent, start, end = self._arrays()
        np.savez(path, names=np.array(self.names), name=names,
                 parent=parent, op=np.frombuffer(self.op, dtype=np.int32),
                 start=start, end=end)


def _add_len_result(key: str):
    return lambda rec, args, out: rec.add(key, len(out))


def _add_len_arg(key: str):
    return lambda rec, args, out: rec.add(key, len(args[0]))


def _count_attempt(rec: Recorder, args, out) -> None:
    # The golden pricing device (id -1) is catalogue lookup, not service.
    if args[0].device_id >= 0:
        rec.add("pool.attempts")
        if not out.ok:
            rec.add("pool.failed_attempts")


#: Counters measured from a wrapped call's arguments and result.
HOOKS: Dict[str, Callable] = {
    "encode_program": _add_len_result("encode.bytes"),
    "encode_image": _add_len_result("encode.bytes"),
    "decode_program": _add_len_arg("decode.bytes"),
    "decode_image": _add_len_arg("decode.bytes"),
    "pcg": lambda rec, args, out: rec.add("solvers.iterations",
                                          out.iterations),
    "load_dataset": lambda rec, args, out: rec.note_dataset(out),
    "Device.attempt": _count_attempt,
    "Device.attempt_batch": _count_attempt,
}
for _attr in ("run_spmv", "run_spmv_batch", "run_symgs_sweep",
              "run_symgs_batch"):
    HOOKS[f"Alrescha.{_attr}"] = (
        lambda rec, args, out: rec.add("plan.sim_cycles", out[1].cycles))


def _wrap(rec: Recorder, span: str, fn: Callable) -> Callable:
    name_id = rec.name_id(span)
    hook = HOOKS.get(span)

    def wrapper(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        idx = rec.open(name_id)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if hook is not None:
            hook(rec, args, out)
        return out

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", span)
    return wrapper


class Installed:
    """The wrapped entry points; :meth:`remove` restores the originals."""

    def __init__(self) -> None:
        self._patched: List[Tuple[object, str, object]] = []

    def patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def install(rec: Recorder) -> Installed:
    """Wrap every entry point of :data:`ENTRY_POINTS` for ``rec``.

    A missing module, class or attribute raises, so a renamed entry
    point fails the traced run instead of silently dropping its layer.
    """
    handle = Installed()
    try:
        for _metric, module_path, owner_name, attr in ENTRY_POINTS:
            module = importlib.import_module(module_path)
            owner = (module if owner_name is None
                     else getattr(module, owner_name))
            if attr not in vars(owner):
                raise AttributeError(
                    f"entry point {module_path}:"
                    f"{span_name(owner_name, attr)} not found")
            handle.patch(owner, attr,
                         _wrap(rec, span_name(owner_name, attr),
                               vars(owner)[attr]))
    except BaseException:
        handle.remove()
        raise
    return handle


def layer_metrics(rec: Recorder) -> Dict[str, float]:
    """Per-layer host times and counts of one traced unit of work."""
    spans = rec.by_name()
    metric_of = {span_name(owner, attr): metric
                 for metric, _m, owner, attr in ENTRY_POINTS}
    out: Dict[str, float] = dict.fromkeys(SELF_TIME_METRICS, 0.0)
    unattributed = 0.0
    for name, (own, _total, _calls) in spans.items():
        if name.startswith("op."):
            unattributed += own
        else:
            out[metric_of[name]] += own

    def calls(*names: str) -> int:
        return sum(spans.get(n, (0.0, 0.0, 0))[2] for n in names)

    counts = rec.counts
    pops = calls("EventQueue.pop")
    stale = calls("EventQueue.mark_stale")
    sim_mcycles = counts.get("plan.sim_cycles", 0.0) / 1e6
    pcg_s = spans.get("pcg", (0.0, 0.0, 0))[1]
    iterations = counts.get("solvers.iterations", 0.0)
    out.update({
        "datasets.generated": counts.get("datasets.generated", 0.0),
        "convert.calls": calls("convert"),
        "encode.bytes": counts.get("encode.bytes", 0.0),
        "decode.bytes": counts.get("decode.bytes", 0.0),
        "program.calls": calls("Alrescha.program"),
        "plan.compile_calls": calls("compile_pass"),
        "plan.execute_calls": calls(
            "Alrescha.run_spmv", "Alrescha.run_spmv_batch",
            "Alrescha.run_symgs_sweep", "Alrescha.run_symgs_batch"),
        "plan.host_s_per_sim_mcycle": (
            out["plan.execute_s"] / sim_mcycles if sim_mcycles else 0.0),
        "solvers.iterations": iterations,
        "solvers.iters_per_s": iterations / pcg_s if pcg_s else 0.0,
        "pool.attempts": counts.get("pool.attempts", 0.0),
        "pool.failed_attempts": counts.get("pool.failed_attempts", 0.0),
        "scheduler.events": pops,
        "scheduler.events_stale": stale,
        "scheduler.useful_event_ratio": (pops - stale) / pops if pops
        else 0.0,
        "scheduler.us_per_event": (
            (out["scheduler.self_s"] + out["events.s"]) * 1e6 / pops
            if pops else 0.0),
        "trace.wall_s": rec.wall_s(),
        "trace.unattributed_s": unattributed,
    })
    return out

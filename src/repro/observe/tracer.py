"""Cycle-attributed span tracing for the simulated stack.

The simulator never ticks a wall clock: every layer *computes* cycle
costs analytically (the accelerator from block structure, the scheduler
from service times).  A :class:`Tracer` therefore records *completed*
spans with explicit begin/end cycles on named tracks, instead of the
start/stop stopwatch API a wall-clock profiler would use.  Tracks are
independent timelines:

``engine``
    The compute engine of one accelerator (or of the accelerators an
    :class:`~repro.solvers.backends.AcceleratorBackend` time-shares).
    Passes lay out end to end from the track cursor; inside a pass,
    data-path windows, pipeline fills, reduction-tree drains and
    reconfiguration spans nest the way §4.4 and Figure 10 describe.
``channel``
    Memory-channel *occupancy*: consecutive payload transfers coalesce
    into one ``stream`` span, fault recovery appears as ``retry`` spans.
    This track is compressed (busy cycles only), so it reconciles with
    DRAM byte counters rather than aligning with engine wall time.
``solver``
    Outer iterations of the iterative solvers, clocked by the backend's
    accumulated report cycles.
``device<N>`` / ``reference`` / ``scheduler``
    Runtime-level job spans on the serving pool's simulated clock.

Everything is opt-in behind a nullable hook: components take
``tracer=None`` and the clean path costs exactly one ``is None`` branch
— outputs, reports and counters are bit-identical with tracing on or
off (property-tested).

Span begin/end values are plain floats of simulated cycles; recording
order is deterministic for a fixed seed/config, which is what makes the
exported JSON byte-reproducible across processes and
``PYTHONHASHSEED``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.errors import SimulationError
from repro.sim.stats import CounterSet


@dataclass
class Span:
    """One traced interval (or instant) on a track, in simulated cycles."""

    span_id: int
    name: str
    #: Span class: ``pass``, ``block_row``, ``datapath``, ``stream``,
    #: ``reduce_drain``, ``reconfig``, ``pipeline_fill``, ``wait``,
    #: ``retry``, ``checkpoint``, ``solver``, ``job``, ``device``, ...
    cat: str
    track: str
    begin: float
    end: float
    args: Dict[str, object] = field(default_factory=dict)
    #: Structural parent (the innermost span open on the track when this
    #: one was recorded), purely informational — nesting invariants are
    #: checked from the intervals themselves.
    parent: Optional[int] = None
    #: Zero-duration marker event (exported as a Chrome instant).
    instant: bool = False

    @property
    def dur(self) -> float:
        return self.end - self.begin

    def contains(self, other: "Span", eps: float = 1e-9) -> bool:
        """Whether ``other`` lies inside this span (closed interval)."""
        return (self.begin <= other.begin + eps
                and other.end <= self.end + eps)


class Tracer:
    """Deterministic recorder of cycle-stamped spans.

    All mutation goes through :meth:`add` / :meth:`begin` / :meth:`end`
    / :meth:`extend` / :meth:`instant`; spans accumulate in
    :attr:`spans` in recording order.  The tracer never influences the
    simulation — it holds no clock of its own, only per-track *cursors*
    (the maximum end cycle seen) that instrumentation uses to append
    one pass after another.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._cursors: Dict[str, float] = {}
        self._open: Dict[str, List[int]] = {}
        self._snapshots: Dict[int, CounterSet] = {}
        #: Per-track id of the span :meth:`extend` may keep growing.
        self._extendable: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Cursors
    # ------------------------------------------------------------------
    def cursor(self, track: str) -> float:
        """Largest end cycle recorded on ``track`` so far (0.0 if none)."""
        return self._cursors.get(track, 0.0)

    def _bump(self, track: str, end: float) -> None:
        if end > self._cursors.get(track, 0.0):
            self._cursors[track] = end

    def seal(self, track: str) -> None:
        """Stop :meth:`extend` from coalescing into the last span.

        Called at pass boundaries so one pass's stream span never merges
        into the next pass's.
        """
        self._extendable.pop(track, None)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def add(self, name: str, cat: str, begin: float, end: float,
            track: str = "engine",
            args: Optional[Dict[str, object]] = None,
            instant: bool = False) -> int:
        """Record one completed span; returns its id."""
        if end < begin:
            raise SimulationError(
                f"span {name!r} ends at {end} before it begins at {begin}")
        stack = self._open.get(track)
        parent = stack[-1] if stack else None
        span = Span(len(self.spans), name, cat, track, float(begin),
                    float(end), dict(args or {}), parent, instant)
        self.spans.append(span)
        self._bump(track, span.end)
        self.seal(track)
        return span.span_id

    def instant_event(self, name: str, cat: str, cycle: float,
                      track: str = "engine",
                      args: Optional[Dict[str, object]] = None) -> int:
        """Record a zero-duration marker event."""
        return self.add(name, cat, cycle, cycle, track, args, instant=True)

    def begin(self, name: str, cat: str, begin: float,
              track: str = "engine",
              args: Optional[Dict[str, object]] = None,
              counters: Optional[CounterSet] = None) -> int:
        """Open a span whose end is not yet known.

        ``counters`` snapshots a live :class:`CounterSet`; :meth:`end`
        stores the accumulated delta (via :meth:`CounterSet.diff`) into
        the span's args.  Open spans nest per track (LIFO).
        """
        sid = self.add(name, cat, begin, begin, track, args)
        self._open.setdefault(track, []).append(sid)
        if counters is not None:
            self._snapshots[sid] = counters.copy()
        return sid

    def end(self, span_id: int, end: float,
            counters: Optional[CounterSet] = None) -> Span:
        """Close the innermost open span of its track."""
        span = self.spans[span_id]
        stack = self._open.get(span.track)
        if not stack or stack[-1] != span_id:
            raise SimulationError(
                f"span {span.name!r} is not the innermost open span "
                f"on track {span.track!r}")
        if end < span.begin:
            raise SimulationError(
                f"span {span.name!r} ends at {end} before it begins "
                f"at {span.begin}")
        stack.pop()
        span.end = float(end)
        self._bump(span.track, span.end)
        snapshot = self._snapshots.pop(span_id, None)
        if snapshot is not None and counters is not None:
            delta = counters.diff(snapshot)
            span.args["counters"] = dict(sorted(delta.items()))
        return span

    def extend(self, track: str, name: str, cat: str, cycles: float,
               args: Optional[Dict[str, float]] = None,
               coalesce: bool = True) -> Optional[int]:
        """Append ``cycles`` of occupancy to a lane-cursor span.

        Consecutive calls with the same name/cat grow one span (numeric
        args accumulate), which is how thousands of per-block transfers
        collapse into a handful of channel spans.  ``coalesce=False``
        records a standalone span (a retry, say) that also breaks the
        current chain.
        """
        if cycles < 0:
            raise SimulationError(f"cannot extend a span by {cycles} cycles")
        if cycles == 0.0:
            return None
        last_id = self._extendable.get(track)
        if coalesce and last_id is not None:
            last = self.spans[last_id]
            if last.name == name and last.cat == cat:
                last.end += cycles
                self._bump(track, last.end)
                for key, value in (args or {}).items():
                    last.args[key] = float(last.args.get(key, 0.0)) + value
                return last_id
        begin = self.cursor(track)
        sid = self.add(name, cat, begin, begin + cycles, track, args)
        if coalesce:
            self._extendable[track] = sid
        return sid

    def stretch(self, span_id: int, extra: float) -> None:
        """Lengthen a recorded span in place — e.g. a replayed pass span
        absorbing per-run fault-recovery cycles its template could not
        know about."""
        if extra < 0:
            raise SimulationError(f"cannot stretch a span by {extra}")
        span = self.spans[span_id]
        span.end += extra
        self._bump(span.track, span.end)

    def replay(self, spans: Iterable[Span],
               offsets: Dict[str, float]) -> None:
        """Re-record captured spans shifted by a per-track offset.

        The compiled plan layer captures one pass's spans at compile
        time (timing depends only on block structure, never operand
        values) and replays them per run — the span analogue of cloning
        the captured :class:`~repro.core.report.SimReport`.
        """
        for span in spans:
            off = offsets.get(span.track, 0.0)
            self.add(span.name, span.cat, span.begin + off, span.end + off,
                     span.track, dict(span.args), instant=span.instant)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def tracks(self) -> List[str]:
        """All track names, sorted (deterministic export order)."""
        return sorted({s.track for s in self.spans})

    def by_cat(self, cat: str, track: Optional[str] = None) -> List[Span]:
        return [s for s in self.spans
                if s.cat == cat and (track is None or s.track == track)]

    def __len__(self) -> int:
        return len(self.spans)


class PassTraceBuilder:
    """Lays one accelerator pass onto the tracer's engine timeline.

    The interpreter drives it inline (one ``is not None`` guard per
    site); the layout mirrors the pass cost model exactly, so the pass
    span's duration equals the report's cycle count and the per-phase
    windows sum back to the report's breakdown:

    * data-path *windows* (``datapath``) cover each segment's engine
      occupancy — for SymGS rows the GEMV window is
      ``max(row stream, row GEMV compute)``, the overlap the FIFOs buy;
    * a ``reduce_drain`` span sits in the tail of each retiring window,
      and the ``reconfig`` span for the next data path sits *inside* it
      when hiding is on (§4.4) — or after it, exposed, when the
      ablation disables hiding;
    * ``pipeline_fill`` and trailing ``wait`` spans account the
      remaining model terms, so the engine track is gap-free.
    """

    def __init__(self, tracer: Tracer, kernel: str,
                 track: str = "engine") -> None:
        self.tracer = tracer
        self.track = track
        self.t0 = tracer.cursor(track)
        self.t = self.t0
        tracer.seal("channel")
        self._pass_id = tracer.begin(f"pass:{kernel}", "pass", self.t0,
                                     track)
        self._row_id: Optional[int] = None
        # Current data-path segment (streaming-pass mode).
        self._seg_dp: Optional[str] = None
        self._seg_compute = 0.0
        self._seg_stream = 0.0
        self._seg_blocks = 0
        #: Begin cycle of the last emitted window — the floor below
        #: which a drain span cannot be stretched.
        self._floor = self.t0

    # -- generic pieces -------------------------------------------------
    def configure(self, dp: str) -> None:
        """Initial data-path configuration (table load, no retiring
        path to drain): a marker, not a reconfiguration span."""
        self.tracer.instant_event(f"configure:{dp}", "configure", self.t,
                                  self.track)

    def reconfigure(self, dp: str, prev: str, drain: float,
                    reconfig: float, exposed: float, hidden: bool) -> None:
        """A data-path switch, anchored at the current cursor (the end
        of the retiring window).

        The drain span occupies the retiring window's tail; with hiding
        on, the reconfig span starts at the drain's start and therefore
        lies inside it whenever ``reconfig <= drain`` (the paper's
        claim, asserted by the invariant suite).  Exposed cycles — the
        hiding ablation, or a drain shorter than the rewrite — advance
        the timeline, exactly as the cost model charges them.
        """
        anchor = self.t
        d0 = max(self._floor, anchor - drain)
        self.tracer.add("reduce_drain", "reduce_drain", d0, anchor,
                        self.track, args={"from": prev, "to": dp})
        r0 = d0 if hidden else anchor
        self.tracer.add(f"reconfig:{dp}", "reconfig", r0, r0 + reconfig,
                        self.track,
                        args={"from": prev, "to": dp, "exposed": exposed})
        self.t += exposed

    def fill(self, dp: str, cycles: float) -> None:
        """One-off pipeline fill at a segment start."""
        if cycles > 0.0:
            self.tracer.add(f"fill:{dp}", "pipeline_fill", self.t,
                            self.t + cycles, self.track)
            self.t += cycles

    def window(self, name: str, dur: float,
               args: Optional[Dict[str, object]] = None) -> None:
        """An engine-occupancy window of one data path."""
        self.tracer.add(name, "datapath", self.t, self.t + dur,
                        self.track, args)
        self._floor = self.t
        self.t += dur

    def advance(self, cycles: float) -> None:
        """Move the cursor without a span (already-accounted overhead)."""
        self.t += cycles

    # -- streaming-pass segment mode ------------------------------------
    def switch(self, dp: str, prev: Optional[str], drain: float,
               reconfig: float, exposed: float, hidden: bool,
               fill: float) -> None:
        """Handle a ``prev_dp is not op.dp`` transition in a streaming
        pass: flush the running segment, then drain/reconfig/fill."""
        self.flush_segment()
        if prev is None:
            self.configure(dp)
        else:
            self.reconfigure(dp, prev, drain, reconfig, exposed, hidden)
        self.fill(dp, fill)
        self._seg_dp = dp

    def block(self, compute: float, stream: float) -> None:
        """Accumulate one streamed block into the running segment."""
        self._seg_compute += compute
        self._seg_stream += stream
        self._seg_blocks += 1

    def flush_segment(self) -> None:
        if self._seg_blocks:
            self.window(self._seg_dp, self._seg_compute, args={
                "compute_cycles": self._seg_compute,
                "stream_cycles": self._seg_stream,
                "blocks": self._seg_blocks,
            })
        self._seg_compute = 0.0
        self._seg_stream = 0.0
        self._seg_blocks = 0

    # -- SymGS row mode --------------------------------------------------
    def row_begin(self, block_row: int) -> None:
        self._row_id = self.tracer.begin(f"row{block_row}", "block_row",
                                         self.t, self.track,
                                         args={"row": block_row})

    def row_end(self) -> None:
        if self._row_id is not None:
            self.tracer.end(self._row_id, self.t)
            self._row_id = None

    # -- close -----------------------------------------------------------
    def finish(self, report, gap_name: str = "stream_wait",
               args: Optional[Dict[str, object]] = None) -> int:
        """Close the pass span at ``t0 + report.cycles``.

        The slack between the laid-out windows and the report's total —
        channel-bound waiting, write-back and cache-refill traffic — is
        emitted as one trailing ``wait`` span, so every cycle of the
        pass is attributed.
        """
        self.flush_segment()
        end = max(self.t0 + report.cycles, self.t)
        if end - self.t > 1e-9:
            self.tracer.add(gap_name, "wait", self.t, end, self.track)
        self.t = end
        pass_args: Dict[str, object] = {
            "cycles": report.cycles,
            "sequential_cycles": report.sequential_cycles,
            "exposed_reconfig_cycles": report.exposed_reconfig_cycles,
            "streamed_bytes": report.streamed_bytes,
        }
        for dp, cycles in sorted(report.datapath_cycles.items()):
            pass_args[f"dp_{dp}"] = cycles
        pass_args.update(args or {})
        span = self.tracer.end(self._pass_id, end)
        span.args.update(pass_args)
        return self._pass_id

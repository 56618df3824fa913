"""The per-block interpreter: the accelerator's reference engine.

The interpreter walks the programmed configuration table one ω×ω block
at a time, driving the FCU, the RCU (cache, link stack, switch) and the
streaming-memory model exactly as §4 narrates.  It is

* the **plan-equivalence oracle** — ``AlreschaConfig(use_plan=False)``
  runs every kernel here, as does ``guard_nonfinite=True``;
* the **reference** the pass pricer (:mod:`repro.core.pricing`, which
  prices every untraced plan template from the programmed columns) is
  compared with, and the source of a traced plan's **span templates**
  (:mod:`repro.core.plan` replays it once with neutral operands);
* the target of the plan **cross-check fallback**.

Two loops cover the kernels: :func:`streaming_pass` (SpMV, k-column
SpMV, D-BFS, D-SSSP, D-PR) and :func:`symgs_sweep`.  Both take a panel
of operand columns; a solo run is the width-1 call (``k=None``) and a
batch streams each block once for all ``k`` columns (``k=int``).
Parent-tracking D-BFS keeps its own loop (:func:`bfs_parents_pass`)
because it reduces to two outputs carrying argmin lanes.  The streaming
kinds' :data:`STREAMING_KERNELS` specs also drive the compiled plans'
one streaming body, and every data path's arithmetic is a
:mod:`repro.core.datapaths` function both engines call.  A pass's
activity is its programmed blocks', charged once
(:meth:`_Engine.charge_activity`); the loops account the rest of a
clean pass through :class:`_Engine`, the accounting the pricer shares,
and :func:`charge_faults`, the one fault rule the compiled plans share,
charges a run's channel faults.

Operand names are part of the report: the RCU cache picks a set from
``crc32(space name) ^ line``, so the names of operand chunks and the
order they are read in decide ``cache_misses`` — and hence cycles and
energy.  Column ``j`` of a batch reads operand space ``name + str(j)``;
a solo run reads plain ``name``.  Read order is pinned the same way:
the SymGS loop reads a row's shared diagonal chunk before the columns'
``b``/``x_prev`` chunks in a batch, and between them in a solo sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.core.config import DATAPATHS, DataPathType, OperandPort
from repro.core.datapaths import (
    GEMV_GUARD,
    block_activity,
    dpr_contributions,
    dsymgs_block,
    gemv_block,
    gemv_partials,
    minplus_candidates,
    parent_improve,
)
from repro.core.report import SimReport
from repro.observe.tracer import PassTraceBuilder, Tracer
from repro.sim.faults import FaultEvent, charge_event
from repro.sim.stats import CounterSet

#: Report (and trace pass) name of a batched run, by pass kind.
BATCH_NAMES = {"spmv": "spmm", "symgs": "symgs-batch"}


def _suffixes(k: Optional[int]) -> List[str]:
    """Operand-space suffix of each column: ``""`` solo, ``"0"``... batch."""
    return [""] if k is None else [str(j) for j in range(k)]


def _columns(operands: Sequence[np.ndarray],
             k: Optional[int]) -> List[Tuple[np.ndarray, ...]]:
    """The operands of each column (solo operands are the one column)."""
    if k is None:
        return [tuple(operands)]
    return [tuple(op[:, j] for op in operands) for j in range(k)]


class _Engine:
    """One pass's hardware instances plus its accounting: the switches,
    the activity and the clean report.

    The interpreter's loops drive it block by block
    (:meth:`for_run`); :func:`repro.core.pricing.price_pass` sets the
    same totals from the table's columns, so both price a pass through
    these methods.
    """

    def __init__(self, image, cfg, name: str, tracer=None,
                 fault_model=None, verify: bool = True) -> None:
        self.image = image
        self.cfg = cfg
        self.fcu = cfg.make_fcu()
        self.rcu = cfg.make_rcu()
        self.mem = cfg.make_memory()
        self.timing = cfg.timing()
        self.mem.tracer = tracer
        self.tb = (PassTraceBuilder(tracer, name)
                   if tracer is not None else None)
        self.spb = self.timing.stream_cycles_per_block()
        self.prev_dp: Optional[DataPathType] = None
        self.fills = 0.0
        self.exposed = 0.0
        #: Streaming-pass totals, accumulated by :meth:`stream_block`.
        self.stream_cycles = 0.0
        self.compute_cycles = 0.0
        self.dp_cycles: Dict[str, float] = {}
        #: ``alu_op`` and ``re_op``, from :meth:`charge_activity`.
        self.fcu_ops = CounterSet()
        #: ``(row, event)`` per faulty transfer, for :func:`charge_faults`.
        self.faults: List[Tuple[int, FaultEvent]] = []
        self.fault_model = fault_model
        if fault_model is not None:
            self.verify = verify
            self.restream = restream_cost(cfg)[1]

    @classmethod
    def for_run(cls, acc, name: str) -> "_Engine":
        """The engine of one interpreter run of accelerator ``acc``: its
        tracer and fault model, verifying checksums once its plans are
        degraded."""
        cfg = acc.config
        return cls(acc.image, cfg, name, cfg.tracer, cfg.fault_model,
                   cfg.verify_checksums or acc._plan_degraded)

    def switch(self, dp: DataPathType, pending: Optional[list] = None
               ) -> None:
        """Reconfigure onto ``dp`` unless it is already the live path.

        Charges the exposed reconfiguration and the pipeline fill.  The
        trace transition is laid immediately, or appended to
        ``pending`` as ``(dp, prev, drain, exposed, fill)`` when the
        caller lays it later (SymGS rows anchor switches at windows
        measured only once the row is done).
        """
        prev = self.prev_dp
        if prev is dp:
            return
        rcu = self.rcu
        drain = (self.timing.drain(prev) if prev
                 else rcu.config.reconfig_cycles)
        step_exposed = rcu.reconfigure(dp, drain)
        self.exposed += step_exposed
        fill = self.timing.pipeline_fill(dp)
        self.fills += fill
        if self.tb is not None:
            prev_name = prev.value if prev else None
            if pending is None:
                self.tb.switch(dp.value, prev_name, drain,
                               rcu.config.reconfig_cycles, step_exposed,
                               rcu.config.hide_under_drain, fill)
            else:
                pending.append((dp.value, prev_name, drain, step_exposed,
                                fill))
        self.prev_dp = dp

    def refetch(self, dp: DataPathType) -> float:
        """Charge the §4.1 ablation's penalty on a SymGS row whose
        diagonal block (data path ``dp``) streamed past mid-row, before
        the row's trailing GEMV partials existed: the mid-row D-SymGS
        visit cost two extra data-path toggles.  The re-fetched block's
        transfer is the caller's.  Returns the cycles the row waits."""
        rcu = self.rcu
        extra = (0.0 if rcu.config.hide_under_drain
                 else 2.0 * rcu.config.reconfig_cycles)
        rcu.counters.add("switch_toggle", 2.0)
        rcu.counters.add("config_write", 2.0)
        rcu.counters.add("reconfig_exposed_cycles", extra)
        self.exposed += extra
        fills = self.timing.pipeline_fill(dp) \
            + self.timing.pipeline_fill(DataPathType.GEMV)
        self.fills += fills
        return extra + fills

    def stream(self, op, row: int = 0) -> np.ndarray:
        """Charge one entry's clean block transfer and return the values
        the (possibly faulty) channel delivers; a fault is recorded
        against block row ``row``."""
        self.mem.stream_cycles(self.timing.block_bytes)
        if self.fault_model is None:
            return op.values
        values, _extra, event = self.fault_model.deliver(
            op.values, op.checksum if self.verify else None,
            restream_cycles=self.restream)
        if event is not None:
            self.faults.append((row, event))
        return values

    def stream_block(self, op, width: int) -> np.ndarray:
        """One block of a streaming pass: switch to ``op``'s data path,
        stream its block (:meth:`stream`), charge its stream and
        ``width`` columns of compute; returns the delivered values."""
        self.switch(op.dp)
        values = self.stream(op)
        compute = width * self.timing.compute_cycles_per_block(op.dp)
        self.stream_cycles += self.spb
        self.compute_cycles += compute
        dp = op.dp.value
        self.dp_cycles[dp] = self.dp_cycles.get(dp, 0.0) + compute
        if self.tb is not None:
            self.tb.block(compute, self.spb)
        return values

    def charge_activity(self, entries: np.ndarray, width: int) -> None:
        """Charge ``width`` columns of the activity of the table
        ``entries`` a pass streamed: :func:`block_activity` over their
        programmed blocks (never a delivered copy), each on the data path
        the table gives it.  Passes call it after their loop, so a new
        ``pe_op`` follows the RCU's own counters."""
        image, w = self.image, self.cfg.omega
        table = image.conversion.table
        for code in np.unique(table.dp[entries]).tolist():
            on = entries[table.dp[entries] == code]
            alu, re, pe = block_activity(
                image.conversion.matrix.blocks[image.block_index[on]],
                DATAPATHS[code],
                np.clip(image.n - table.block_row[on] * w, 0, w))
            self.fcu_ops.add("alu_op", width * float(alu.sum()))
            self.fcu_ops.add("re_op", width * float(re.sum()))
            if pe.any():
                self.rcu.counters.add("pe_op", width * float(pe.sum()))

    def report(self, name: str, total_cycles: float, seq_cycles: float,
               extra_bytes: float) -> SimReport:
        """The clean pass's report (``extra_bytes`` crossed the channel
        beside the payload)."""
        image, cfg = self.image, self.cfg
        rcu, mem = self.rcu, self.mem
        counters = self.fcu_ops + rcu.counters
        counters.merge(rcu.cache.counters)
        counters.merge(rcu.link.counters)
        counters.merge(mem.counters)
        counters.add("dram_bytes", extra_bytes)
        seconds = total_cycles / cfg.frequency_hz
        return SimReport(
            kernel=name,
            cycles=total_cycles,
            frequency_hz=cfg.frequency_hz,
            useful_bytes=float(image.conversion.nnz * cfg.element_bytes),
            streamed_bytes=mem.total_bytes + extra_bytes,
            sequential_cycles=seq_cycles,
            cache_busy_cycles=rcu.cache_busy_cycles,
            exposed_reconfig_cycles=self.exposed,
            n_entries=len(image.conversion.table),
            n_switches=image.table_switches,
            counters=counters,
            energy_j=cfg.energy_model.energy_j(counters, seconds),
            datapath_cycles=self.dp_cycles,
            bytes_per_cycle=cfg.bytes_per_cycle,
        )

    def finish(self, name: str, total_cycles: float, seq_cycles: float,
               extra_bytes: float, gap_name: str,
               slack: Sequence[float]) -> SimReport:
        """Report the clean pass (:meth:`report`), close its trace, then
        charge its faults."""
        report = self.report(name, total_cycles, seq_cycles, extra_bytes)
        pass_span = None if self.tb is None else self.tb.finish(
            report, gap_name=gap_name,
            args={"extra_stream_bytes": extra_bytes})
        charge_faults(self.cfg, report, self.faults, slack, pass_span)
        return report

    def streaming_totals(self, writeback_bytes: float
                         ) -> Tuple[float, float, List[float]]:
        """``(cycles, bytes beyond the payload, slack)`` of a
        streaming-class pass from its stream and compute totals: the
        FIFOs let memory run ahead of compute, so the pass costs
        ``max(stream, compute)`` plus the switch terms; write-back and
        cache refills share the channel.  The whole pass is one row of
        the fault charge."""
        compute = self.compute_cycles
        extra_bytes, stream_total = stream_term(
            self.cfg, self.stream_cycles, writeback_bytes,
            self.rcu.cache.counters.get("cache_misses"))
        total = max(stream_total, compute) + self.fills + self.exposed
        return total, extra_bytes, [max(0.0, compute - stream_total)]

    def finish_streaming(self, name: str,
                         writeback_bytes: float) -> SimReport:
        """Report a streaming-class pass (:meth:`streaming_totals`)."""
        total, extra_bytes, slack = self.streaming_totals(writeback_bytes)
        return self.finish(name, total, 0.0, extra_bytes, "stream_wait",
                           slack)

    def symgs_totals(self, chain_cycles: float) -> Tuple[float, float]:
        """``(cycles, cache refill bytes)`` of a SymGS pass whose block
        rows chain ``chain_cycles``: the switch terms, and cache refills
        contending for the memory channel."""
        cfg = self.cfg
        miss_bytes = self.rcu.cache.counters.get("cache_misses") \
            * cfg.cache_line_bytes
        total = chain_cycles + self.fills + self.exposed \
            + miss_bytes / cfg.bytes_per_cycle
        return total, miss_bytes


def restream_cost(cfg) -> Tuple[float, float]:
    """``(bytes, cycles)`` of re-streaming one payload block: the
    burst-padded block at full bandwidth."""
    mem = cfg.make_memory()
    block_bytes = cfg.timing().block_bytes
    return mem.padded_bytes(block_bytes), mem.cost_cycles(block_bytes)


def writeback_bytes(kind: str, n: int, width: int) -> float:
    """Output bytes a streaming pass writes back: fp64 per element and
    column, plus a 4-byte parent tag for parent-tracking D-BFS."""
    return float(n * 12 if kind == "bfs-parents" else n * 8 * width)


def stream_term(cfg, stream_cycles: float, writeback_bytes: float,
                cache_misses: float) -> Tuple[float, float]:
    """``(bytes beyond the payload, stream term)`` of a streaming pass:
    write-back and cache refills share the channel with the payload."""
    extra_bytes = writeback_bytes + cache_misses * cfg.cache_line_bytes
    return extra_bytes, stream_cycles + extra_bytes / cfg.bytes_per_cycle


def refetches_diagonal(reordered: bool, n_gemv):
    """The §4.1 ablation: without reordering, a SymGS row with GEMV
    blocks (``n_gemv``, a count or an array) streams its diagonal twice."""
    return (not reordered) & (n_gemv > 0)


def charge_faults(cfg, report: SimReport,
                  faults: Sequence[Tuple[int, FaultEvent]],
                  slack: Sequence[float],
                  pass_span: Optional[int] = None) -> None:
    """Charge a run's channel faults onto its clean ``report``, under
    configuration ``cfg``: the one fault rule of the interpreter and the
    compiled plans.

    ``faults`` holds ``(row, event)`` per faulty transfer, in transfer
    order.  Extra cycles (retries, re-streams, latency spikes) extend
    their row's stream term — the whole pass for a streaming kind, the
    block row for SymGS — which hides them under ``slack[row]``, the
    row's clean compute beyond its clean stream.  The run is charged
    ``E - sum over rows of min(E_row, slack_row)`` (floored at zero
    against rounding): ``E`` when no row has slack.  Counters, re-stream
    traffic and ``streamed_bytes`` follow the events, ``energy_j`` is
    re-priced, and a traced run's ``pass_span`` is laid out by
    :func:`_trace_faults`.
    """
    if not faults:
        return
    restream_bytes = restream_cost(cfg)[0]
    counters = report.counters
    extra = 0.0
    row_extra: Dict[int, float] = {}
    for row, event in faults:
        extra += event.extra_cycles
        row_extra[row] = row_extra.get(row, 0.0) + event.extra_cycles
        charge_event(counters, event)
        if event.restreams:
            nbytes = restream_bytes * event.restreams
            counters.add("dram_bytes", nbytes)
            counters.add("dram_requests", float(event.restreams))
            report.streamed_bytes += nbytes
    hidden = 0.0
    for row, cycles in row_extra.items():
        hidden += min(cycles, slack[row])
    charged = max(0.0, extra - hidden)
    report.cycles += charged
    report.energy_j = cfg.energy_model.energy_j(
        counters, report.cycles / cfg.frequency_hz)
    if pass_span is not None:
        _trace_faults(cfg.tracer, pass_span, report, charged, faults)


def _trace_faults(tracer: Tracer, pass_span: int, report: SimReport,
                  charged: float, faults) -> None:
    """Lay a faulty pass's charge onto its clean trace: the pass span
    stretches by the charged cycles, which a trailing ``fault_wait``
    fills so the engine track tiles the report, and each fault appends
    a ``retry`` span (an instant if it cost nothing) on ``channel``."""
    span = tracer.spans[pass_span]
    if charged > 0.0:
        end = span.end
        tracer.stretch(pass_span, charged)
        tracer.add("fault_wait", "wait", end, end + charged, span.track)
    span.args.update(cycles=report.cycles,
                     streamed_bytes=report.streamed_bytes)
    for _row, event in faults:
        if event.extra_cycles > 0.0:
            tracer.extend("channel", f"retry:{event.kind}", "retry",
                          event.extra_cycles,
                          {"restreams": float(event.restreams)},
                          coalesce=False)
        else:
            tracer.instant_event(f"fault:{event.kind}", "fault",
                                 tracer.cursor("channel"), "channel")


def _row_span(acc, block_row: int) -> Tuple[int, int]:
    """``(first row, valid rows)`` of a block row (the last may be short)."""
    w = acc.config.omega
    start = block_row * w
    return start, max(0, min(w, acc.n - start))


# ---------------------------------------------------------------------
# Streaming passes: SpMV, k-column SpMV, D-BFS, D-SSSP, D-PR
# ---------------------------------------------------------------------
@dataclass(frozen=True)
class _StreamingKernel:
    """What distinguishes one streaming pass kind from another, in both
    engines."""

    #: RCU operand spaces, in the order each block reads them.
    operands: Tuple[str, ...]
    #: ``(blocks, masks, chunks) -> partials``: the datapaths function,
    #: on a plan's stack or on one block the interpreter delivered.
    stack: Callable
    #: Row reduction: ``np.add`` (sum tree) or ``np.minimum`` (min tree).
    reduce: Callable
    #: Output starts from the first operand and keeps the minimum
    #: (BFS/SSSP compare-and-update) rather than starting from zero.
    seeded: bool
    #: Phase-3 PE operations charged per updated output element.
    pe_ops: float

    @property
    def identity(self) -> float:
        """The row reduction's starting value."""
        return 0.0 if self.reduce is np.add else np.inf


STREAMING_KERNELS = {
    "spmv": _StreamingKernel(
        ("x",), lambda blocks, masks, c: gemv_partials(blocks, c[0]),
        np.add, seeded=False, pe_ops=0.0),
    "bfs": _StreamingKernel(
        ("dist",), lambda blocks, masks, c: minplus_candidates(masks, c[0]),
        np.minimum, seeded=True, pe_ops=1.0),  # compare & update
    "sssp": _StreamingKernel(
        ("dist",),
        lambda blocks, masks, c: minplus_candidates(masks, c[0], blocks),
        np.minimum, seeded=True, pe_ops=1.0),
    "pagerank": _StreamingKernel(
        ("rank", "outdeg"),
        lambda blocks, masks, c: dpr_contributions(masks, c[0], c[1]),
        np.add, seeded=False, pe_ops=2.0),  # damping mul + add
}


def streaming_pass(acc, kind: str, operands: Sequence[np.ndarray],
                   k: Optional[int] = None):
    """One streaming pass over every block; returns ``(output, report)``.

    ``operands`` are ``(n,)`` vectors for a solo run (``k=None``) or
    ``(n, k)`` panels for a batch.  A batch streams each payload block
    once and applies it to all ``k`` columns while resident: the stream
    term is one pass's, compute scales with ``k``, and each column's
    output is written back at 8 bytes per element (results stay fp64 at
    every element width).  Only SpMV is ever batched.
    """
    spec = STREAMING_KERNELS[kind]
    n, w = acc.n, acc.config.omega
    suffixes = _suffixes(k)
    columns = _columns(operands, k)
    width = len(suffixes)
    name = kind if k is None else BATCH_NAMES[kind]
    eng = _Engine.for_run(acc, name)
    fcu, rcu = eng.fcu, eng.rcu
    for sfx, vecs in zip(suffixes, columns):
        for space, vec in zip(spec.operands, vecs):
            rcu.load_operand(space + sfx, vec)
    outputs = [np.array(vecs[0], dtype=np.float64) if spec.seeded
               else np.zeros(n) for vecs in columns]

    for group in acc.image.rows:
        if not group.streaming:
            continue
        accs = [np.full(w, spec.identity) for _ in suffixes]
        start, valid = _row_span(acc, group.block_row)
        for op in group.streaming:
            values = eng.stream_block(op, width)
            mask = values != 0.0
            for col, sfx in enumerate(suffixes):
                chunks = [rcu.read_chunk(space + sfx, op.inx_in, w)
                          for space in spec.operands]
                if op.reversed_cols:  # the r2l read
                    chunks = [np.ascontiguousarray(c[::-1]) for c in chunks]
                partial = spec.stack(values, mask, chunks)
                if op.dp is DataPathType.GEMV:
                    fcu.check_finite(partial, GEMV_GUARD)
                accs[col] = spec.reduce(accs[col], partial)
        for out, row_acc in zip(outputs, accs):
            if spec.pe_ops:
                rcu.counters.add("pe_op", spec.pe_ops * valid)
            new = row_acc[:valid]
            if spec.seeded:
                new = spec.reduce(out[start:start + valid], new)
            out[start:start + valid] = new
        if valid:
            rcu.cache.write("out", start, valid)
            rcu.counters.add("cache_busy_cycles", 1.0)

    eng.charge_activity(np.flatnonzero(~acc.table.dependent), width)
    report = eng.finish_streaming(name, writeback_bytes(kind, n, width))
    output = outputs[0] if k is None else np.stack(outputs, axis=1)
    return output, report


def bfs_parents_pass(acc, kind: str, operands: Sequence[np.ndarray],
                     k: Optional[int] = None):
    """One D-BFS pass that also tracks predecessors (Graph500 style);
    returns ``(new_dist, new_parent, report)``.

    The min tree carries a lane tag beside each value, so the winning
    predecessor of every improved vertex comes out of the same
    reduction at no extra stream cost.
    """
    dist, parent = operands
    n, w = acc.n, acc.config.omega
    eng = _Engine.for_run(acc, kind)
    rcu = eng.rcu
    rcu.load_operand("dist", dist)

    new_dist = dist.copy()
    new_parent = parent.copy()
    for group in acc.image.rows:
        if not group.streaming:
            continue
        start, valid = _row_span(acc, group.block_row)
        best = np.full(w, np.inf)
        best_parent = np.full(w, -1, dtype=np.int64)
        for op in group.streaming:
            values = eng.stream_block(op, 1)
            chunk = rcu.read_chunk("dist", op.inx_in, w)
            cand, lanes = minplus_candidates(values != 0.0, chunk,
                                             with_argmin=True)
            best, best_parent = parent_improve(
                best, best_parent, cand, op.inx_in + lanes, lanes)
        rcu.counters.add("pe_op", STREAMING_KERNELS["bfs"].pe_ops * valid)
        out = slice(start, start + valid)
        new_dist[out], new_parent[out] = parent_improve(
            new_dist[out], new_parent[out], best[:valid], best_parent[:valid])
        if valid:
            rcu.cache.write("out", start, valid)
            rcu.counters.add("cache_busy_cycles", 1.0)

    eng.charge_activity(np.flatnonzero(~acc.table.dependent), 1)
    report = eng.finish_streaming(kind, writeback_bytes(kind, n, 1))
    return new_dist, new_parent, report


# ---------------------------------------------------------------------
# SymGS: GEMV partials, then the row's D-SymGS, block row by block row
# ---------------------------------------------------------------------
def symgs_sweep(acc, kind: str, operands: Sequence[np.ndarray],
                k: Optional[int] = None):
    """Forward SymGS sweep(s) via the GEMV + D-SymGS decomposition;
    returns ``(x, report)``.

    ``b`` and ``x_prev`` are ``(n,)`` vectors for one sweep
    (``k=None``) or ``(n, k)`` panels for ``k`` independent sweeps over
    one payload stream: each block — GEMV entries, then the row's
    diagonal — streams once and is applied to every column while
    resident, so a row's stream term is one sweep's while GEMV and
    D-SymGS compute scale with ``k``.  Each column advances its own
    ``x_curr`` recurrence.  GEMV partials cross the RCU link stack
    tagged with their column and the row's D-SymGS pops them all, so
    each column sums its partials in the same LIFO order as a solo
    sweep and per-column results are bit-identical to it.
    """
    b, x_prev = operands
    w = acc.config.omega
    diag = acc.conversion.matrix.diagonal
    if diag is None:
        raise SimulationError("programmed matrix lacks SymGS layout")
    suffixes = _suffixes(k)
    width = len(suffixes)
    name = kind if k is None else BATCH_NAMES[kind]
    eng = _Engine.for_run(acc, name)
    fcu, rcu, mem, timing, tb = eng.fcu, eng.rcu, eng.mem, eng.timing, \
        eng.tb
    for sfx, (b_col, x_col) in zip(suffixes, _columns(operands, k)):
        rcu.load_operand("x_prev" + sfx, x_col)
        rcu.load_operand("x_curr" + sfx, x_col)
        rcu.load_operand("b" + sfx, b_col)
    rcu.load_operand("diag", diag)

    chain_cycles = 0.0
    seq_cycles = 0.0
    dp_cycles = eng.dp_cycles
    slack: List[float] = []
    for row, group in enumerate(acc.image.rows):
        row_stream = 0.0
        row_gemv_compute = 0.0
        # Data-path switches of this row, recorded as they are charged
        # and laid onto the trace only once the row's windows are
        # measured (the GEMV window's width — and hence the drain
        # anchor — depends on the whole row's stream).
        trans_gemv: List[tuple] = []
        trans_diag: List[tuple] = []
        ablation_penalty = 0.0
        for op in group.streaming:
            eng.switch(op.dp, trans_gemv)
            values = eng.stream(op, row)
            row_stream += eng.spb
            block_compute = width * timing.compute_cycles_per_block(op.dp)
            row_gemv_compute += block_compute
            dp_cycles["gemv"] = dp_cycles.get("gemv", 0.0) + block_compute
            space = ("x_curr" if op.port is OperandPort.PORT1
                     else "x_prev")
            for col, sfx in enumerate(suffixes):
                chunk = rcu.read_chunk(space + sfx, op.inx_in, w)
                rcu.link.push((col, gemv_block(fcu, values, chunk,
                                               op.reversed_cols)))
        dsymgs_compute = 0.0
        if group.diagonal is not None:
            op = group.diagonal
            eng.switch(op.dp, trans_diag)
            values = eng.stream(op, row)
            row_stream += eng.spb
            if refetches_diagonal(acc.conversion.reordered,
                                  len(group.streaming)):
                # Ablation: without §4.1's reordering the diagonal
                # block streamed past mid-row, before this row's
                # trailing GEMV partials existed; it is re-fetched now
                # (once per batch, like the payload itself).
                mem.stream_cycles(timing.block_bytes)
                row_stream += eng.spb
                ablation_penalty = eng.refetch(op.dp)
            start, valid = _row_span(acc, op.block_row)
            accs = [np.zeros(w, dtype=np.float64) for _ in suffixes]
            while not rcu.link.empty:
                col, partial = rcu.link.pop()
                accs[col] += partial
            # A batch reads the shared diagonal chunk once up front; a
            # solo sweep reads it between b and x_prev.
            d_chunk = None if k is None else rcu.read_chunk("diag", start, w)
            for col, sfx in enumerate(suffixes):
                b_chunk = rcu.read_chunk("b" + sfx, start, w)
                if d_chunk is None:
                    d_chunk = rcu.read_chunk("diag", start, w)
                x_old = rcu.read_chunk("x_prev" + sfx, start, w)
                x_new = dsymgs_block(fcu, values, d_chunk, b_chunk, x_old,
                                     accs[col], valid)
                rcu.write_chunk("x_curr" + sfx, start, x_new[:valid])
            dsymgs_compute = width * timing.compute_cycles_per_block(op.dp)
            dp_cycles["d-symgs"] = dp_cycles.get("d-symgs", 0.0) \
                + dsymgs_compute
        chain_cycles += max(row_stream, row_gemv_compute) + dsymgs_compute
        slack.append(max(0.0, row_gemv_compute - row_stream))
        seq_cycles += dsymgs_compute
        if tb is not None:
            _trace_symgs_row(tb, rcu, group, trans_gemv, trans_diag,
                             row_stream, row_gemv_compute, dsymgs_compute,
                             ablation_penalty)

    diagonals = acc.image.row_diagonals
    eng.charge_activity(np.concatenate((
        np.flatnonzero(~acc.table.dependent), diagonals[diagonals >= 0])),
        width)
    total, miss_bytes = eng.symgs_totals(chain_cycles)
    results = [rcu.operand("x_curr" + sfx) for sfx in suffixes]
    x = results[0].copy() if k is None else np.stack(results, axis=1)
    report = eng.finish(name, total, seq_cycles, miss_bytes, "cache_refill",
                        slack)
    return x, report


def _trace_symgs_row(tb: PassTraceBuilder, rcu, group, trans_gemv,
                     trans_diag, row_stream: float, row_gemv_compute: float,
                     dsymgs_compute: float, ablation_penalty: float) -> None:
    """Lay one measured SymGS block-row onto the engine timeline.

    The GEMV window is ``max(row stream, row GEMV compute)`` — the FIFO
    overlap of the row's stream with its partial-sum GEMVs — and the
    D-SymGS window follows it, exactly the per-row term of the pass
    cost model.  Switch spans recorded during the row anchor at the
    window boundaries: the drain of the retiring path occupies the
    window's tail with the reconfig span inside it (or after it,
    exposed, under the hiding ablation).
    """
    reconfig = rcu.config.reconfig_cycles
    hidden = rcu.config.hide_under_drain

    def lay(transitions):
        for dpv, prevv, drain, step_exposed, fill in transitions:
            if prevv is None:
                tb.configure(dpv)
            else:
                tb.reconfigure(dpv, prevv, drain, reconfig, step_exposed,
                               hidden)
            tb.fill(dpv, fill)

    tb.row_begin(group.block_row)
    lay(trans_gemv)
    gemv_window = max(row_stream, row_gemv_compute)
    if group.streaming:
        tb.window("gemv", gemv_window, args={
            "row": group.block_row,
            "compute_cycles": row_gemv_compute,
            "stream_cycles": row_stream,
        })
    elif gemv_window > 0.0:
        # A row with only a diagonal block still waits for its stream;
        # no GEMV ran, so no window is drawn.
        tb.advance(gemv_window)
    lay(trans_diag)
    if ablation_penalty > 0.0:
        tb.advance(ablation_penalty)
    if group.diagonal is not None:
        tb.window("d-symgs", dsymgs_compute, args={"row": group.block_row})
    tb.row_end()


#: Pass kind → (interpreter loop, operand count).  The one table the
#: plan layer captures templates from and the accelerator falls back to.
ORACLES: Dict[str, Tuple[Callable, int]] = {
    "spmv": (streaming_pass, 1),
    "bfs": (streaming_pass, 1),
    "sssp": (streaming_pass, 1),
    "pagerank": (streaming_pass, 2),
    "bfs-parents": (bfs_parents_pass, 2),
    "symgs": (symgs_sweep, 2),
}


def run(acc, kind: str, operands: Sequence[np.ndarray],
        k: Optional[int] = None):
    """Run pass ``kind`` of accelerator ``acc`` on the interpreter.

    ``operands`` are the pass's checked operands — ``(n,)`` vectors, or
    ``(n, k)`` panels for a width-``k`` batch.  Returns the kernel's
    outputs followed by its :class:`~repro.core.report.SimReport`.
    """
    loop, _arity = ORACLES[kind]
    return loop(acc, kind, operands, k)

"""The per-block interpreter: the accelerator's reference engine.

The interpreter walks the programmed configuration table one ω×ω block
at a time, driving the FCU, the RCU (cache, link stack, switch) and the
streaming-memory model exactly as §4 narrates.  It is

* the **plan-equivalence oracle** — ``AlreschaConfig(use_plan=False)``
  runs every kernel here;
* the source of every compiled plan's **report and span templates**
  (:mod:`repro.core.plan` replays it once with neutral operands);
* the target of the plan **cross-check fallback**.

Two loops cover the kernels: :func:`streaming_pass` (SpMV, k-column
SpMV, D-BFS, D-SSSP, D-PR) and :func:`symgs_sweep`.  Both take a panel
of operand columns; a solo run is the width-1 call (``k=None``) and a
batch streams each block once for all ``k`` columns (``k=int``).
Parent-tracking D-BFS keeps its own loop (:func:`bfs_parents_pass`)
because it reduces to two outputs carrying argmin lanes.

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
from repro.core.config import DataPathType, OperandPort
from repro.core.datapaths import (
    dbfs_block,
    dpr_block,
    dsssp_block,
    dsymgs_block,
    gemv_block,
)
from repro.core.report import SimReport
from repro.observe.tracer import PassTraceBuilder

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
    """One pass's hardware instances plus its switch accounting."""

    def __init__(self, acc, name: str) -> None:
        cfg = acc.config
        self.acc = acc
        self.fcu = cfg.make_fcu()
        self.rcu = cfg.make_rcu()
        self.mem = cfg.make_memory()
        self.timing = cfg.timing()
        tracer = acc.tracer
        self.mem.tracer = tracer
        self.tb = (PassTraceBuilder(tracer, name)
                   if tracer is not None else None)
        self.spb = self.timing.stream_cycles_per_block()
        self.prev_dp: Optional[DataPathType] = None
        self.fills = 0.0
        self.exposed = 0.0

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

    def stream(self, op) -> Tuple[np.ndarray, float]:
        """Stream one entry's payload block, consulting the fault model.

        Returns ``(delivered values, extra cycles)``.  With no fault
        model attached — or while a plan captures its report template —
        this is exactly the pre-resilience ``stream_cycles`` call.
        """
        acc, cfg = self.acc, self.acc.config
        nbytes = cfg.omega * cfg.omega * cfg.element_bytes
        if self.mem.fault_model is None or acc._suppress_faults:
            self.mem.stream_cycles(nbytes)
            return op.values, 0.0
        checksum = op.checksum if (cfg.verify_checksums
                                   or acc._force_verify) else None
        return self.mem.stream_payload_block(op.values, nbytes, checksum)

    def report(self, name: str, total_cycles: float, seq_cycles: float,
               dp_cycles: Dict[str, float],
               extra_stream_bytes: float) -> SimReport:
        acc, cfg = self.acc, self.acc.config
        fcu, rcu, mem = self.fcu, self.rcu, self.mem
        counters = fcu.counters + rcu.counters
        counters.merge(rcu.cache.counters)
        counters.merge(rcu.link.counters)
        counters.merge(mem.counters)
        counters.add("dram_bytes", extra_stream_bytes)
        seconds = total_cycles / cfg.frequency_hz
        return SimReport(
            kernel=name,
            cycles=total_cycles,
            frequency_hz=cfg.frequency_hz,
            useful_bytes=float(acc.conversion.nnz * cfg.element_bytes),
            streamed_bytes=mem.total_bytes + extra_stream_bytes,
            sequential_cycles=seq_cycles,
            cache_busy_cycles=rcu.cache_busy_cycles,
            exposed_reconfig_cycles=self.exposed,
            n_entries=len(acc.table),
            n_switches=acc.image.table_switches,
            counters=counters,
            energy_j=cfg.energy_model.energy_j(counters, seconds),
            datapath_cycles=dp_cycles,
            bytes_per_cycle=cfg.bytes_per_cycle,
        )

    def finish_streaming(self, name: str, stream_cycles: float,
                         compute_cycles: float, dp_cycles: Dict[str, float],
                         writeback_bytes: float) -> SimReport:
        """Report a streaming-class pass: the FIFOs let memory run ahead
        of compute, so the pass costs ``max(stream, compute)`` plus the
        switch terms; write-back and cache refills share the channel."""
        cfg = self.acc.config
        miss_bytes = self.rcu.cache.counters.get("cache_misses") \
            * cfg.cache_line_bytes
        stream_total = stream_cycles \
            + (writeback_bytes + miss_bytes) / cfg.bytes_per_cycle
        total = max(stream_total, compute_cycles) + self.fills + self.exposed
        report = self.report(name, total, 0.0, dp_cycles,
                             writeback_bytes + miss_bytes)
        if self.tb is not None:
            self.tb.finish(report, gap_name="stream_wait", args={
                "extra_stream_bytes": writeback_bytes + miss_bytes})
        return report


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
    """What distinguishes one streaming pass kind from another."""

    #: RCU operand spaces, in the order each block reads them.
    operands: Tuple[str, ...]
    #: ``(fcu, rcu, op, values, chunks) -> partial`` for one block.
    block: Callable
    #: Row reduction: ``np.add`` (sum tree) or ``np.minimum`` (min tree).
    reduce: Callable
    #: Output starts from the first operand and keeps the minimum
    #: (BFS/SSSP compare-and-update) rather than starting from zero.
    seeded: bool
    #: Phase-3 PE operations charged per updated output element.
    pe_ops: float


STREAMING_KERNELS = {
    "spmv": _StreamingKernel(
        ("x",), lambda fcu, rcu, op, values, c: gemv_block(
            fcu, values, c[0], op.reversed_cols),
        np.add, seeded=False, pe_ops=0.0),
    "bfs": _StreamingKernel(
        ("dist",), lambda fcu, rcu, op, values, c: dbfs_block(
            fcu, values, c[0]),
        np.minimum, seeded=True, pe_ops=1.0),  # compare & update
    "sssp": _StreamingKernel(
        ("dist",), lambda fcu, rcu, op, values, c: dsssp_block(
            fcu, values, c[0]),
        np.minimum, seeded=True, pe_ops=1.0),
    "pagerank": _StreamingKernel(
        ("rank", "outdeg"), lambda fcu, rcu, op, values, c: dpr_block(
            fcu, rcu, values, c[0], c[1]),
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
    eng = _Engine(acc, name)
    fcu, rcu, tb = eng.fcu, eng.rcu, eng.tb
    for sfx, vecs in zip(suffixes, columns):
        for space, vec in zip(spec.operands, vecs):
            rcu.load_operand(space + sfx, vec)
    outputs = [np.array(vecs[0], dtype=np.float64) if spec.seeded
               else np.zeros(n) for vecs in columns]
    identity = 0.0 if spec.reduce is np.add else np.inf

    stream_cycles = 0.0
    compute_cycles = 0.0
    dp_cycles: Dict[str, float] = {}
    for group in acc.image.rows:
        if not group.streaming:
            continue
        accs = [np.full(w, identity) for _ in suffixes]
        start, valid = _row_span(acc, group.block_row)
        for op in group.streaming:
            eng.switch(op.dp)
            values, fault_extra = eng.stream(op)
            stream_cycles += eng.spb + fault_extra
            block_compute = width * eng.timing.compute_cycles_per_block(op.dp)
            compute_cycles += block_compute
            dp_cycles[op.dp.value] = dp_cycles.get(op.dp.value, 0.0) \
                + block_compute
            if tb is not None:
                tb.block(block_compute, eng.spb + fault_extra)
            for col, sfx in enumerate(suffixes):
                chunks = [rcu.read_chunk(space + sfx, op.inx_in, w)
                          for space in spec.operands]
                accs[col] = spec.reduce(
                    accs[col], spec.block(fcu, rcu, op, values, chunks))
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

    report = eng.finish_streaming(name, stream_cycles, compute_cycles,
                                  dp_cycles, float(n * 8 * width))
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
    eng = _Engine(acc, kind)
    fcu, rcu, tb = eng.fcu, eng.rcu, eng.tb
    rcu.load_operand("dist", dist)

    new_dist = dist.copy()
    new_parent = parent.copy()
    stream_cycles = 0.0
    compute_cycles = 0.0
    for group in acc.image.rows:
        if not group.streaming:
            continue
        start, valid = _row_span(acc, group.block_row)
        best = np.full(w, np.inf)
        best_parent = np.full(w, -1, dtype=np.int64)
        for op in group.streaming:
            eng.switch(op.dp)
            values, fault_extra = eng.stream(op)
            stream_cycles += eng.spb + fault_extra
            cpb = eng.timing.compute_cycles_per_block(op.dp)
            compute_cycles += cpb
            if tb is not None:
                tb.block(cpb, eng.spb + fault_extra)
            chunk = rcu.read_chunk("dist", op.inx_in, w)
            cand, lanes = dbfs_block(fcu, values, chunk, with_argmin=True)
            improved = cand < best
            best = np.where(improved, cand, best)
            global_src = op.inx_in + lanes
            best_parent = np.where(improved & (lanes >= 0),
                                   global_src, best_parent)
        take = best[:valid] < new_dist[start:start + valid]
        rcu.counters.add("pe_op", float(valid))  # compare & update
        new_dist[start:start + valid] = np.where(
            take, best[:valid], new_dist[start:start + valid])
        new_parent[start:start + valid] = np.where(
            take, best_parent[:valid], new_parent[start:start + valid])
        if valid:
            rcu.cache.write("out", start, valid)
            rcu.counters.add("cache_busy_cycles", 1.0)

    report = eng.finish_streaming(kind, stream_cycles, compute_cycles,
                                  {"d-bfs": compute_cycles},
                                  float(n * 12))  # distance + parent tag
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
    cfg = acc.config
    diag = acc.conversion.matrix.diagonal
    if diag is None:
        raise SimulationError("programmed matrix lacks SymGS layout")
    suffixes = _suffixes(k)
    width = len(suffixes)
    name = kind if k is None else BATCH_NAMES[kind]
    eng = _Engine(acc, name)
    fcu, rcu, mem, timing, tb = eng.fcu, eng.rcu, eng.mem, eng.timing, \
        eng.tb
    for sfx, (b_col, x_col) in zip(suffixes, _columns(operands, k)):
        rcu.load_operand("x_prev" + sfx, x_col)
        rcu.load_operand("x_curr" + sfx, x_col)
        rcu.load_operand("b" + sfx, b_col)
    rcu.load_operand("diag", diag)

    chain_cycles = 0.0
    seq_cycles = 0.0
    dp_cycles: Dict[str, float] = {}
    for group in acc.image.rows:
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
            values, fault_extra = eng.stream(op)
            row_stream += eng.spb + fault_extra
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
            values, fault_extra = eng.stream(op)
            row_stream += eng.spb + fault_extra
            if not acc.conversion.reordered and group.streaming:
                # Ablation: without §4.1's reordering the diagonal
                # block streamed past mid-row, before this row's
                # trailing GEMV partials existed; it is re-fetched now
                # (once per batch, like the payload itself), and the
                # mid-row D-SymGS visit cost two extra data-path
                # toggles.
                mem.stream_cycles(w * w * cfg.element_bytes)
                row_stream += eng.spb
                extra = (0.0 if rcu.config.hide_under_drain
                         else 2.0 * rcu.config.reconfig_cycles)
                rcu.counters.add("switch_toggle", 2.0)
                rcu.counters.add("config_write", 2.0)
                rcu.counters.add("reconfig_exposed_cycles", extra)
                eng.exposed += extra
                ablation_fills = timing.pipeline_fill(op.dp) \
                    + timing.pipeline_fill(DataPathType.GEMV)
                eng.fills += ablation_fills
                ablation_penalty = extra + ablation_fills
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
                x_new = dsymgs_block(fcu, rcu, values, d_chunk, b_chunk,
                                     x_old, accs[col], valid)
                rcu.write_chunk("x_curr" + sfx, start, x_new[:valid])
            dsymgs_compute = width * timing.compute_cycles_per_block(op.dp)
            dp_cycles["d-symgs"] = dp_cycles.get("d-symgs", 0.0) \
                + dsymgs_compute
        chain_cycles += max(row_stream, row_gemv_compute) + dsymgs_compute
        seq_cycles += dsymgs_compute
        if tb is not None:
            _trace_symgs_row(tb, rcu, group, trans_gemv, trans_diag,
                             row_stream, row_gemv_compute, dsymgs_compute,
                             ablation_penalty)

    # Cache refills contend for the memory channel.
    miss_bytes = rcu.cache.counters.get("cache_misses") \
        * cfg.cache_line_bytes
    total = chain_cycles + eng.fills + eng.exposed \
        + miss_bytes / cfg.bytes_per_cycle
    results = [rcu.operand("x_curr" + sfx) for sfx in suffixes]
    x = results[0].copy() if k is None else np.stack(results, axis=1)
    report = eng.report(name, total, seq_cycles, dp_cycles, miss_bytes)
    if tb is not None:
        tb.finish(report, gap_name="cache_refill",
                  args={"extra_stream_bytes": miss_bytes})
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

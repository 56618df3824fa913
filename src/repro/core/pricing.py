"""Pricing a pass from its programmed columns.

ALRESCHA fixes a pass's stream and data-path order when the
configuration table is programmed, and the payload carries no run-time
meta-data (PAPER.md §1, contribution 3): a clean pass's report is a
function of the programmed image and the configuration alone.
:func:`price_pass` computes it — and the per-row slack
:func:`~repro.core.interpreter.charge_faults` takes — from the table's
columns, the block stack and one LRU replay of the pass's cache-access
sequence, reading the programmed stream as a whole rather than block by
block.  The compiled plans (:mod:`repro.core.plan`) take every untraced
report template and every fault slack from it.

The per-block interpreter (:mod:`repro.core.interpreter`) stays the
reference.  Both price a pass through one accounting object, the
interpreter's ``_Engine``: the pricer walks only the pass's data-path
changes through its :meth:`~repro.core.interpreter._Engine.switch`,
charges activity through its ``charge_activity``, forms totals and
slack with ``streaming_totals`` / ``symgs_totals`` and reports with
``report``.  What the pricer computes itself is what the interpreter
accumulates block by block, in the interpreter's order: stream and
compute cycles summed in transfer order (``np.add.accumulate``, never
``np.sum``), per pass for the streaming kinds and per block row for
SymGS; the cache-access sequence; DRAM transfers; link-stack traffic
and per-row PE operations.  Switch, re-fetch, DRAM, cache and link
counts are integers, which floats add exactly in any grouping.
``tests/test_pricing.py`` compares every field, the counters' order and
the slack with the interpreter.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import (DATAPATHS, DataPathType, OperandPort,
                               column_code)
from repro.core.interpreter import (BATCH_NAMES, STREAMING_KERNELS,
                                    _Engine, _suffixes, refetches_diagonal,
                                    writeback_bytes)
from repro.core.report import SimReport


def price_pass(image, config, kind: str, width: Optional[int] = None
               ) -> Tuple[SimReport, List[float]]:
    """The clean report of pass ``kind`` over the programmed ``image``
    under ``config``, and its fault slack per row.

    ``width`` None prices a solo pass, an integer a width-``width``
    batch.  The report equals the interpreter's on a clean binding,
    counter order included; ``config``'s fault model and tracer play no
    part.
    """
    name = kind if width is None else BATCH_NAMES[kind]
    eng = _Engine(image, config, name)
    if kind == "symgs":
        return _price_symgs(eng, name, width)
    return _price_streaming(eng, kind, name, _suffixes(width))


def streaming_entries(image) -> Tuple[np.ndarray, np.ndarray]:
    """Table indices of the streaming-class entries in transfer order —
    grouped by block row, groups in table order and entries in table
    order within one — and each group's entry count."""
    group_rows, group = image.entry_groups
    ops = np.flatnonzero(~image.conversion.table.dependent)
    ops = ops[np.argsort(group[ops], kind="stable")]
    return ops, np.bincount(group[ops], minlength=group_rows.size)


def compute_cycles(timing, dp: np.ndarray) -> np.ndarray:
    """Engine cycles per block of each ``dp`` code."""
    per_code = np.array([timing.compute_cycles_per_block(path)
                         for path in DATAPATHS], dtype=np.float64)
    return per_code[dp]


def _in_order(values: np.ndarray) -> float:
    """``values`` added left to right from 0.0, as a running ``+=``."""
    return float(np.add.accumulate(values)[-1]) if values.size else 0.0


def _row_sums(values: np.ndarray, seg_len: np.ndarray) -> np.ndarray:
    """The sum of each run of ``seg_len`` consecutive ``values``, added
    left to right from 0.0 as the interpreter's per-row ``+=`` does."""
    starts = np.cumsum(seg_len) - seg_len
    sums = np.zeros(seg_len.size)
    for t in range(int(seg_len.max(initial=0))):
        live = np.flatnonzero(seg_len > t)
        sums[live] += values[starts[live] + t]
    return sums


def _switch(eng: _Engine, dps: np.ndarray) -> None:
    """Charge the switches of a pass whose transfers run on data paths
    ``dps`` (codes, transfer order): one per change of path."""
    if dps.size:
        changes = np.flatnonzero(dps[1:] != dps[:-1]) + 1
        for code in dps[np.concatenate(([0], changes))].tolist():
            eng.switch(DATAPATHS[code])


def _stream(eng: _Engine, transfers: int) -> None:
    """Charge ``transfers`` clean block transfers to the memory model."""
    if transfers:
        mem = eng.mem
        mem.counters.add("dram_bytes", transfers
                         * mem.padded_bytes(eng.timing.block_bytes))
        mem.counters.add("dram_requests", float(transfers))


def _replay_cache(eng: _Engine, seg_len: np.ndarray, inx_in: np.ndarray,
                  block_spaces: Sequence[Sequence[str]],
                  space_of: np.ndarray, closing: Sequence[Tuple[str, bool]],
                  start: np.ndarray, valid: np.ndarray,
                  closes: np.ndarray) -> None:
    """Replay a pass's cache accesses in the interpreter's order and
    charge one busy cycle per access.

    Block row ``r`` reads, for each of its ``seg_len[r]`` blocks (operand
    offset ``inx_in``), ``ω`` elements of every space of
    ``block_spaces[space_of[block]]`` in turn; then, where ``closes[r]``,
    it makes the ``closing`` accesses ``(space, write)`` at ``start[r]``:
    a read of ``ω`` elements or a write of the row's ``valid[r]``.
    """
    w = eng.cfg.omega
    per_block = len(block_spaces[0])
    per_row = seg_len * per_block + closes * len(closing)
    offsets = np.cumsum(per_row) - per_row
    total = int(per_row.sum())
    space = np.empty(total, dtype=np.int64)
    index = np.empty(total, dtype=np.int64)
    count = np.full(total, w, dtype=np.int64)
    dirty = np.zeros(total, dtype=bool)
    row_of = np.repeat(np.arange(seg_len.size), seg_len)
    rank = np.arange(row_of.size) - (np.cumsum(seg_len) - seg_len)[row_of]
    at = (offsets[row_of] + rank * per_block)[:, None] \
        + np.arange(per_block)
    space[at] = space_of[:, None] * per_block + np.arange(per_block)
    index[at] = inx_in[:, None]
    rows = np.flatnonzero(closes)
    at = (offsets + seg_len * per_block)[rows][:, None] \
        + np.arange(len(closing))
    writes = np.array([write for _name, write in closing], dtype=bool)
    space[at] = len(block_spaces) * per_block + np.arange(len(closing))
    index[at] = start[rows][:, None]
    count[at] = np.where(writes, valid[rows][:, None], w)
    dirty[at] = writes
    names = np.array([name for spaces in block_spaces for name in spaces]
                     + [name for name, _write in closing], dtype=object)
    rcu = eng.rcu
    rcu.cache.replay(zip(names[space].tolist(), index.tolist(),
                         count.tolist(), dirty.tolist()))
    if total:
        rcu.counters.add("cache_busy_cycles", float(total))


def _price_streaming(eng: _Engine, kind: str, name: str,
                     suffixes: List[str]) -> Tuple[SimReport, List[float]]:
    """A streaming-class pass: every block once, the whole pass one row
    of the fault charge."""
    image, w = eng.image, eng.cfg.omega
    table = image.conversion.table
    width = len(suffixes)
    # Parent-tracking D-BFS reads, updates and counts as D-BFS does.
    spec = STREAMING_KERNELS["bfs" if kind == "bfs-parents" else kind]
    ops, seg_len = streaming_entries(image)
    live = seg_len > 0
    seg_len = seg_len[live]
    start = image.entry_groups[0][live] * w
    valid = np.clip(image.n - start, 0, w)
    dps = table.dp[ops]
    _switch(eng, dps)
    _stream(eng, ops.size)
    compute = width * compute_cycles(eng.timing, dps)
    eng.stream_cycles = _in_order(np.full(ops.size, eng.spb))
    eng.compute_cycles = _in_order(compute)
    codes, first = np.unique(dps, return_index=True)
    eng.dp_cycles = {DATAPATHS[code].value: _in_order(compute[dps == code])
                     for code in codes[np.argsort(first)].tolist()}
    _replay_cache(eng, seg_len, table.inx_in[ops],
                  [[space + sfx for sfx in suffixes
                    for space in spec.operands]],
                  np.zeros(ops.size, dtype=np.int64), [("out", True)],
                  start, valid, valid > 0)
    if spec.pe_ops and seg_len.size:
        eng.rcu.counters.add("pe_op",
                             width * spec.pe_ops * float(valid.sum()))
    eng.charge_activity(np.flatnonzero(~table.dependent), width)
    total, extra_bytes, slack = eng.streaming_totals(
        writeback_bytes(kind, image.n, width))
    return eng.report(name, total, 0.0, extra_bytes), slack


def _price_symgs(eng: _Engine, name: str, k: Optional[int]
                 ) -> Tuple[SimReport, List[float]]:
    """A SymGS sweep (``k`` columns, None solo): per block row its GEMV
    blocks, then its diagonal block (twice under the §4.1 ablation);
    each row one row of the fault charge."""
    image, w = eng.image, eng.cfg.omega
    table = image.conversion.table
    suffixes = _suffixes(k)
    width = len(suffixes)
    group_rows, group = image.entry_groups
    bodies = image.row_diagonals
    has_diag = bodies >= 0
    gemvs, seg_len = streaming_entries(image)
    row_of = group[gemvs]
    # Switches, in transfer order: each row's GEMVs, then its diagonal.
    per_row = seg_len + has_diag
    offsets = np.cumsum(per_row) - per_row
    order = np.empty(int(per_row.sum()), dtype=np.int64)
    order[offsets[row_of] + np.arange(gemvs.size)
          - (np.cumsum(seg_len) - seg_len)[row_of]] = gemvs
    order[(offsets + seg_len)[has_diag]] = bodies[has_diag]
    _switch(eng, table.dp[order])
    refetch = refetches_diagonal(table.reordered, seg_len) & has_diag
    for _row in range(int(np.count_nonzero(refetch))):
        eng.refetch(DataPathType.D_SYMGS)
    transfers = per_row + refetch
    _stream(eng, int(transfers.sum()))
    # Per row: max(stream, GEMV compute), then the D-SymGS compute.
    row_stream = _row_sums(np.full(int(transfers.sum()), eng.spb),
                           transfers)
    gemv_compute = width * compute_cycles(eng.timing, table.dp[gemvs])
    row_gemv = _row_sums(gemv_compute, seg_len)
    dsymgs = np.where(has_diag, width * eng.timing.compute_cycles_per_block(
        DataPathType.D_SYMGS), 0.0)
    chain = _in_order(np.maximum(row_stream, row_gemv) + dsymgs)
    paths = [("gemv", gemv_compute), ("d-symgs", dsymgs[has_diag])]
    if seg_len.size and not seg_len[0]:  # the first row opens on D-SymGS
        paths.reverse()
    eng.dp_cycles = {path: _in_order(cycles) for path, cycles in paths
                     if cycles.size}
    # Operands: GEMVs read x^t (port 1) or x^{t-1}; a diagonal reads
    # b, diag and x^{t-1} (a batch its shared diag first) and writes x^t.
    start = group_rows * w
    if k is None:
        closing = [("b", False), ("diag", False), ("x_prev", False),
                   ("x_curr", True)]
    else:
        closing = [("diag", False)] + [
            (space + sfx, write) for sfx in suffixes
            for space, write in (("b", False), ("x_prev", False),
                                 ("x_curr", True))]
    _replay_cache(eng, seg_len, table.inx_in[gemvs],
                  [[space + sfx for sfx in suffixes]
                   for space in ("x_curr", "x_prev")],
                  (table.port[gemvs]
                   != column_code(OperandPort.PORT1)).astype(np.int64),
                  closing, start, np.clip(image.n - start, 0, w), has_diag)
    # The row's D-SymGS pops every partial pushed before it.
    pops = (np.count_nonzero(row_of <= np.flatnonzero(has_diag)[-1])
            if has_diag.any() else 0)
    eng.rcu.link.tally(float(width * gemvs.size), float(width * pops))
    eng.charge_activity(np.concatenate((
        np.flatnonzero(~table.dependent), bodies[has_diag])), width)
    total, miss_bytes = eng.symgs_totals(chain)
    report = eng.report(name, total, _in_order(dsymgs), miss_bytes)
    return report, np.maximum(0.0, row_gemv - row_stream).tolist()

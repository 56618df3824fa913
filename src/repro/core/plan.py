"""Compiled per-pass execution plans: the accelerator hot loop, batched.

The interpreter in :mod:`repro.core.interpreter` walks the programmed
configuration table block by block, touching the cache model, the event
counters and the memory model once per ω×ω block.  That is faithful to
the paper's narrative but wall-clock dominated by Python overhead — the
opposite of the streaming design point ALRESCHA argues for.  This module
lowers a programmed pass *once* into batched numpy arrays and replays it
with a handful of vectorized calls.

What is lowered (per pass kind)
-------------------------------
* the ω×ω blocks of every streaming-class table entry, stacked into one
  ``[m, ω, ω]`` tensor in execution order;
* gather indices ``[m, ω]`` resolving each entry's operand chunk
  (``inx_in`` plus lane, column-reversed for upper-triangle blocks) into
  a zero-padded operand vector — the plan analogue of the RCU's
  zero-filling :meth:`~repro.core.rcu.ReconfigurableComputeUnit.read_chunk`;
* per-block stream/compute cycle vectors (:class:`PassArtifacts`);
* per-block-row segment boundaries, which both scatter the row outputs
  and, for SymGS, sequence the GEMV → D-SymGS dependency.

Why timing stays identical
--------------------------
Every quantity in a :class:`~repro.core.report.SimReport` — cycles,
counters, energy, bytes — depends only on the block structure fixed at
``program()`` time, never on operand *values* (block nnz decides ALU/RE
activity, the table decides cache/stack/memory traffic).  Compilation
therefore replays the interpreter once with neutral (zero) operands and
captures its report as a template; each plan run returns a
:meth:`~repro.core.report.SimReport.clone` of it.  Batched runs clone a
per-width template, captured the same way the first time each width
runs.  This makes report identity hold by construction — including the
sequence-dependent LRU cache counters — and the functional results are
computed with operation-for-operation identical numpy expressions, so
kernel outputs are bit-identical too (property-tested against the
interpreter).  Solo SpMV and solo SymGS are the width-1 calls of their
batch loops.

Compilation cross-checks the lowered artifacts against the captured
template (compute-cycle totals, memory request counts) and refuses to
produce a plan that disagrees with the interpreter.

Who owns a plan
---------------
A plan belongs to a :class:`~repro.core.accelerator.ProgrammedImage`,
not to an accelerator: every accelerator bound to the image runs the
same plan, so a pool of devices with different fault models compiles
each pass once.  Each run — and each lazy batch-template capture —
takes the calling accelerator, which supplies the fault model, the
checksum and cross-check knobs and the tracer.  Templates are captured
on the clean channel, so they serve every binding; spans are kept once
a traced accelerator has captured them, and an untraced template is
re-captured when a traced accelerator first needs its spans.  The
lowered arrays are read-only: an in-place write raises instead of
corrupting the sibling bindings.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.core import interpreter
from repro.core.config import DataPathType, KernelType, OperandPort
from repro.core.datapaths import dsymgs_solve
from repro.core.report import SimReport
from repro.observe.tracer import Span, Tracer
from repro.sim.faults import charge_event

#: Pass kinds served by :class:`CompiledStreamingPass` (independent
#: block rows; one batched gather/compute/scatter per pass).
STREAMING_KINDS = ("spmv", "bfs", "bfs-parents", "sssp", "pagerank")

#: All pass kinds the compiler understands.
PLAN_KINDS = STREAMING_KINDS + ("symgs",)


@dataclass(frozen=True)
class PassArtifacts:
    """Lowered per-block vectors and segment boundaries of one pass.

    These are the honest compile outputs (beyond the stacked blocks and
    the report template): the per-block compute cycle vector in
    execution order, which the template check sums, and the block-row
    segmentation.
    """

    #: Engine-side cycles per block, execution order.
    compute_cycles_per_block: np.ndarray
    #: Offset of each block row's first block in the stacked tensors.
    seg_start: np.ndarray
    #: Number of streaming blocks per block row.
    seg_len: np.ndarray
    #: Block-row index of each segment (scatter target).
    out_rows: np.ndarray


def _padded_length(n: int, omega: int) -> Tuple[int, int]:
    """(number of block rows, padded vector length) for size ``n``."""
    nbr = -(-n // omega)
    return nbr, nbr * omega


def _time_groups(seg_len: np.ndarray,
                 seg_start: np.ndarray) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Precompute, for each within-row block position ``t``, the rows
    still live and the flat index of their ``t``-th block.

    Replaying these groups in order applies every row's partials in
    exactly the interpreter's per-row sequence (position 0 first), so
    floating-point accumulation order — and hence the bit pattern of the
    result — matches the interpreter.
    """
    groups: List[Tuple[np.ndarray, np.ndarray]] = []
    t = 0
    while True:
        live = np.nonzero(seg_len > t)[0]
        if live.size == 0:
            break
        groups.append((live, seg_start[live] + t))
        t += 1
    return groups


def _apply_fault_events(report: SimReport, extra_cycles: float,
                        events, padded_block_bytes: float) -> None:
    """Annotate a cloned report template with one run's fault outcome.

    Mirrors the accounting :meth:`~repro.sim.memory.StreamingMemory.
    stream_payload_block` performs on the interpreter path, so the
    ``faults_*``/``retry_cycles`` counters and DRAM traffic reconcile
    with the injection log regardless of execution path.  A clean run
    (no events, no extra cycles) leaves the clone untouched.
    """
    if extra_cycles:
        report.cycles += extra_cycles
    for event in events:
        charge_event(report.counters, event)
        if event.restreams:
            nbytes = padded_block_bytes * event.restreams
            report.counters.add("dram_bytes", nbytes)
            report.counters.add("dram_requests", float(event.restreams))
            report.streamed_bytes += nbytes


def _replay_spans(tracer: Optional[Tracer], span_template: List[Span],
                  extra_cycles: float, events) -> None:
    """Replay a pass's captured span template onto the user's tracer.

    The span analogue of cloning the report template: pass timing
    depends only on block structure, so the spans captured at compile
    time are exact for every run — shifted to each track's current
    cursor.  Per-run fault recovery, which the template cannot know,
    is appended live: ``retry`` spans on the channel track, and the
    replayed pass span stretched by the recovered cycles so its
    duration still matches the (fault-adjusted) report.
    """
    if tracer is None or not span_template:
        return
    offsets = {}
    for span in span_template:
        if span.track not in offsets:
            offsets[span.track] = tracer.cursor(span.track)
    base = len(tracer.spans)
    tracer.replay(span_template, offsets)
    if extra_cycles > 0.0:
        for span in tracer.spans[base:]:
            if span.cat == "pass":
                tracer.stretch(span.span_id, extra_cycles)
    for event in events:
        if event.extra_cycles > 0.0:
            tracer.extend("channel", f"retry:{event.kind}", "retry",
                          event.extra_cycles,
                          {"restreams": float(event.restreams)},
                          coalesce=False)
        else:
            tracer.instant_event(f"fault:{event.kind}", "fault",
                                 tracer.cursor("channel"), "channel")


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array``, made read-only: every binding of an image runs the
    same plan, so a write into its arrays must raise, not corrupt the
    siblings."""
    array.flags.writeable = False
    return array


def _verify_against_template(kind: str, artifacts: PassArtifacts,
                             template: SimReport,
                             n_requests: int) -> None:
    """Refuse to emit a plan whose lowering disagrees with the
    interpreter's accounting."""
    compute_total = float(artifacts.compute_cycles_per_block.sum())
    template_compute = float(sum(template.datapath_cycles.values()))
    if not math.isclose(compute_total, template_compute,
                        rel_tol=1e-9, abs_tol=1e-6):
        raise SimulationError(
            f"{kind} plan lowering disagrees with the interpreter: "
            f"compute {compute_total} vs {template_compute} cycles"
        )
    template_requests = template.counters.get("dram_requests")
    if template_requests != float(n_requests):
        raise SimulationError(
            f"{kind} plan lowering disagrees with the interpreter: "
            f"{n_requests} block transfers vs {template_requests} "
            f"memory requests"
        )


class _CompiledPass:
    """State and report handling shared by the compiled pass kinds."""

    def __init__(self, kind: str, n: int, omega: int, blocks: np.ndarray,
                 gather: np.ndarray, artifacts: PassArtifacts,
                 template: SimReport, traced: bool = False,
                 checksums: Optional[List[int]] = None,
                 restream_cycles: float = 0.0,
                 padded_block_bytes: float = 0.0,
                 span_template: Optional[List[Span]] = None) -> None:
        self.kind = kind
        self.n = n
        self.omega = omega
        self.nbr, self.npad = _padded_length(n, omega)
        self.blocks = blocks
        self.gather = gather
        self.artifacts = artifacts
        #: Per-block payload CRCs in stacked order (``program()`` data).
        self.checksums = checksums or []
        #: Channel cost of re-fetching one block, for pricing retries.
        self.restream_cycles = restream_cycles
        self.padded_block_bytes = padded_block_bytes
        #: ``(report, spans, traced)`` by batch width (None = solo): the
        #: solo templates captured at compile time, each batch width's
        #: the first time it runs.  ``traced`` records whether the
        #: capture recorded spans.
        self._template_cache: Dict[
            Optional[int], Tuple[SimReport, List[Span], bool]] = {
                None: (template, span_template or [], traced)}

    def _templates(self, acc, k: Optional[int]
                   ) -> Tuple[SimReport, List[Span]]:
        """Report and span templates of a solo run (``k`` None) or of a
        width-``k`` batch, for accelerator ``acc``: captured on first
        use, and again with spans when ``acc`` is traced and the cached
        capture was not."""
        traced = acc.config.tracer is not None
        cached = self._template_cache.get(k)
        if cached is None or (traced and not cached[2]):
            report, spans = _capture_template(acc, self.kind, k)
            cached = (report, spans, traced)
            self._template_cache[k] = cached
        return cached[0], cached[1]

    def _deliver_blocks(self, acc, blocks: np.ndarray, checksums,
                        extra: float, events: list
                        ) -> Tuple[np.ndarray, float]:
        """Stream ``blocks`` through ``acc``'s fault model, in order.

        Returns ``(delivered, extra)``: ``blocks`` itself or — once a
        silent bitflip strikes — a corrupted *copy* (the compile-time
        payload stays pristine for cross-checking), and ``extra``
        advanced by each transfer's recovery cycles.  Fault events are
        appended to ``events``.
        """
        cfg = acc.config
        fm = cfg.fault_model
        verify = cfg.verify_checksums or acc._force_verify
        delivered = blocks
        for i in range(blocks.shape[0]):
            src = blocks[i]
            checksum = int(checksums[i]) if verify else None
            vals, cycles, event = fm.deliver(
                src, checksum, restream_cycles=self.restream_cycles)
            extra += cycles
            if event is not None:
                events.append(event)
            if vals is not src:
                if delivered is blocks:
                    delivered = blocks.copy()
                delivered[i] = vals
        return delivered, extra

    def _finish_report(self, acc, extra_cycles: float, events,
                       templates: Tuple[SimReport, List[Span]]
                       ) -> SimReport:
        """Clone the run's template and charge its faults onto the
        report and ``acc``'s trace."""
        template, span_template = templates
        report = template.clone()
        _apply_fault_events(report, extra_cycles, events,
                            self.padded_block_bytes)
        _replay_spans(acc.config.tracer, span_template, extra_cycles,
                      events)
        return report


class CompiledStreamingPass(_CompiledPass):
    """A compiled SpMV / D-BFS / D-SSSP / D-PR pass.

    Executes as: one gather of operand chunks, one batched block
    compute, a short live-row accumulation loop (longest block row many
    steps, each fully vectorized across rows), one scatter — then clones
    the report template.
    """

    def __init__(self, kind: str, n: int, omega: int,
                 blocks: np.ndarray, gather: np.ndarray,
                 src_base: np.ndarray, artifacts: PassArtifacts,
                 template: SimReport, **kwargs) -> None:
        super().__init__(kind, n, omega, blocks, gather, artifacts,
                         template, **kwargs)
        self.masks = (_read_only(blocks != 0.0) if kind != "spmv"
                      else None)
        self.src_base = src_base
        self._tgroups = _time_groups(artifacts.seg_len, artifacts.seg_start)
        self._n_rows = int(artifacts.out_rows.size)

    # ------------------------------------------------------------------
    # Shared pieces
    # ------------------------------------------------------------------
    def _gather_chunks(self, vec: np.ndarray) -> np.ndarray:
        """Zero-padded operand chunks per block, reversal applied."""
        pad = np.zeros(self.npad)
        pad[:self.n] = vec
        return pad[self.gather]

    def _accumulate_sum(self, partial: np.ndarray) -> np.ndarray:
        acc = np.zeros((self._n_rows, self.omega))
        for live, idx in self._tgroups:
            acc[live] += partial[idx]
        return acc

    def _accumulate_min(self, partial: np.ndarray) -> np.ndarray:
        acc = np.full((self._n_rows, self.omega), np.inf)
        for live, idx in self._tgroups:
            acc[live] = np.minimum(acc[live], partial[idx])
        return acc

    def _scatter_assign(self, acc: np.ndarray) -> np.ndarray:
        """Rows without blocks stay zero (the interpreter never writes
        them)."""
        out = np.zeros(self.npad)
        out.reshape(self.nbr, self.omega)[self.artifacts.out_rows] = acc
        return out[:self.n].copy()

    def _scatter_min(self, acc: np.ndarray, base: np.ndarray) -> np.ndarray:
        out = np.zeros(self.npad)
        out[:self.n] = base
        view = out.reshape(self.nbr, self.omega)
        rows = self.artifacts.out_rows
        view[rows] = np.minimum(view[rows], acc)
        return out[:self.n].copy()

    # ------------------------------------------------------------------
    # Resilience (all no-ops when no fault model is attached)
    # ------------------------------------------------------------------
    def _deliver(self, acc):
        """Stream the stacked blocks through ``acc``'s (possibly faulty)
        channel, in the interpreter's transfer order.

        Returns ``(blocks, masks, extra_cycles, events)``.  With no
        fault model these are the pristine compile-time arrays and the
        call is one attribute check; a silent bitflip replaces the
        stacked tensor with a corrupted *copy* — the compile-time
        ``self.blocks`` stays pristine for cross-checking.
        """
        if acc.config.fault_model is None:
            return self.blocks, self.masks, 0.0, []
        events: list = []
        blocks, extra = self._deliver_blocks(acc, self.blocks,
                                             self.checksums, 0.0, events)
        masks = self.masks
        if blocks is not self.blocks and self.kind != "spmv":
            masks = blocks != 0.0
        return blocks, masks, extra, events

    def _crosscheck(self, cfg, report: SimReport, sums: np.ndarray,
                    reduce_kind: str, partial_fn) -> None:
        """Spot-validate sampled block rows of this run against a
        recompute from the pristine compile-time blocks.

        The recompute uses operation-for-operation identical numpy
        expressions, so on an uncorrupted run the comparison is
        bitwise-equal by construction — a mismatch means the delivered
        payload differed from the programmed payload (a silent fault
        that slipped past checksum verification).  Mismatch counts land
        in the report's ``crosscheck_mismatches`` counter, which the
        accelerator's degradation logic watches.  ``cfg`` is the
        running accelerator's configuration and ``sums`` the run's
        per-block-row results.
        """
        if cfg.crosscheck_rows <= 0.0 or self._n_rows == 0:
            return
        rng = random.Random(cfg.crosscheck_seed)
        count = min(self._n_rows, max(1, int(
            math.ceil(cfg.crosscheck_rows * self._n_rows))))
        mismatches = 0
        for r in rng.sample(range(self._n_rows), count):
            lo = int(self.artifacts.seg_start[r])
            hi = lo + int(self.artifacts.seg_len[r])
            partial = partial_fn(lo, hi)
            expect = (np.zeros(self.omega) if reduce_kind == "sum"
                      else np.full(self.omega, np.inf))
            for p in partial:
                expect = (expect + p if reduce_kind == "sum"
                          else np.minimum(expect, p))
            if not np.array_equal(expect, sums[r], equal_nan=True):
                mismatches += 1
        report.counters.add("crosscheck_rows", float(count))
        if mismatches:
            report.counters.add("crosscheck_mismatches", float(mismatches))

    # ------------------------------------------------------------------
    # Pass kinds
    # ------------------------------------------------------------------
    def run_spmv(self, acc, x: np.ndarray) -> Tuple[np.ndarray, SimReport]:
        """Solo SpMV: the width-1 call of the panel loop."""
        ys, report = self._spmv_panel(acc, x[:, None], None)
        return ys[0], report

    def run_spmv_batch(self, acc, x: np.ndarray
                       ) -> Tuple[np.ndarray, SimReport]:
        """Batched multi-RHS SpMV over an ``(n, k)`` panel."""
        ys, report = self._spmv_panel(acc, x, x.shape[1])
        return np.stack(ys, axis=1), report

    def _spmv_panel(self, acc, x: np.ndarray, k: Optional[int]
                    ) -> Tuple[List[np.ndarray], SimReport]:
        """SpMV of every column of ``x`` over one payload delivery.

        The stacked blocks cross the (possibly faulty) channel *once*
        for all columns — one shared fault exposure, one payload's DRAM
        traffic — and each column is then computed with its own matmul
        (deliberately not one wide matmul whose BLAS summation order
        could differ), so every column's answer is bit-identical to solo
        service.  The report clones the solo template (``k`` None) or
        the width-``k`` batch template.
        """
        templates = self._templates(acc, k)
        blocks, _masks, extra, events = self._deliver(acc)
        ys, sums = [], []
        for col in range(x.shape[1]):
            chunks = self._gather_chunks(x[:, col])
            partial = np.matmul(blocks, chunks[:, :, None])[:, :, 0]
            row_sums = self._accumulate_sum(partial)
            sums.append((row_sums, chunks))
            ys.append(self._scatter_assign(row_sums))
        report = self._finish_report(acc, extra, events, templates)
        for row_sums, chunks in sums:
            self._crosscheck(
                acc.config, report, row_sums, "sum",
                lambda lo, hi, c=chunks: np.matmul(
                    self.blocks[lo:hi], c[lo:hi, :, None])[:, :, 0])
        return ys, report

    def run_minplus(self, acc, dist: np.ndarray
                    ) -> Tuple[np.ndarray, SimReport]:
        """D-BFS (unit cost) or D-SSSP (stored weights) relaxation."""
        templates = self._templates(acc, None)
        blocks, masks, extra, events = self._deliver(acc)
        chunks = self._gather_chunks(dist)
        step = 1.0 if self.kind == "bfs" else blocks
        cand = np.where(masks, chunks[:, None, :] + step, np.inf)
        best = self._accumulate_min(cand.min(axis=2))
        out = self._scatter_min(best, dist)
        report = self._finish_report(acc, extra, events, templates)
        self._crosscheck(
            acc.config, report, best, "min",
            lambda lo, hi: np.where(
                self.masks[lo:hi],
                chunks[lo:hi, None, :]
                + (1.0 if self.kind == "bfs" else self.blocks[lo:hi]),
                np.inf).min(axis=2))
        return out, report

    def run_parents(self, acc, dist: np.ndarray, parent: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray, SimReport]:
        templates = self._templates(acc, None)
        _blocks, masks, extra, events = self._deliver(acc)
        chunks = self._gather_chunks(dist)
        cand = np.where(masks, chunks[:, None, :] + 1.0, np.inf)
        per_block = cand.min(axis=2)
        lanes = np.where(np.isfinite(per_block), cand.argmin(axis=2), -1)
        src = self.src_base[:, None] + lanes
        best = np.full((self._n_rows, self.omega), np.inf)
        best_src = np.full((self._n_rows, self.omega), -1, dtype=np.int64)
        for live, idx in self._tgroups:
            cand_t = per_block[idx]
            improved = cand_t < best[live]
            best[live] = np.where(improved, cand_t, best[live])
            best_src[live] = np.where(improved & (lanes[idx] >= 0),
                                      src[idx], best_src[live])
        dist_pad = np.zeros(self.npad)
        dist_pad[:self.n] = dist
        parent_pad = np.zeros(self.npad, dtype=np.int64)
        parent_pad[:self.n] = parent
        dview = dist_pad.reshape(self.nbr, self.omega)
        pview = parent_pad.reshape(self.nbr, self.omega)
        rows = self.artifacts.out_rows
        take = best < dview[rows]
        dview[rows] = np.where(take, best, dview[rows])
        pview[rows] = np.where(take, best_src, pview[rows])
        return (dist_pad[:self.n].copy(), parent_pad[:self.n].copy(),
                self._finish_report(acc, extra, events, templates))

    def run_pagerank(self, acc, rank: np.ndarray, outdeg: np.ndarray
                     ) -> Tuple[np.ndarray, SimReport]:
        templates = self._templates(acc, None)
        _blocks, masks, extra, events = self._deliver(acc)
        rank_c = self._gather_chunks(rank)
        deg_c = self._gather_chunks(outdeg)
        safe_deg = np.where(deg_c > 0.0, deg_c, 1.0)
        contrib = np.where(deg_c > 0.0, rank_c / safe_deg, 0.0)
        partial = np.where(masks, contrib[:, None, :], 0.0).sum(axis=2)
        row_sums = self._accumulate_sum(partial)
        y = self._scatter_assign(row_sums)
        report = self._finish_report(acc, extra, events, templates)
        self._crosscheck(
            acc.config, report, row_sums, "sum",
            lambda lo, hi: np.where(self.masks[lo:hi],
                                    contrib[lo:hi, None, :],
                                    0.0).sum(axis=2))
        return y, report


@dataclass(frozen=True)
class _SymgsRow:
    """One block row of a compiled SymGS sweep."""

    seg_start: int
    seg_len: int
    start: int
    valid: int
    #: Diagonal block body (main diagonal zeroed); None for rows
    #: without a D-SymGS entry.
    body: Optional[np.ndarray]
    #: Programmed payload CRC of the diagonal block (0 when no body).
    checksum: int = 0


class CompiledSymgsPass(_CompiledPass):
    """A compiled forward SymGS sweep.

    Block rows are inherently sequential — the D-SymGS of row *i* waits
    for the row's GEMV partials and later rows read its output — so the
    plan keeps that loop, but each row is one gather + one batched
    matmul + the shared :func:`~repro.core.datapaths.dsymgs_solve`
    recurrence, with no cache/counter machinery on the hot path.
    Partials travel through a LIFO just like the RCU link stack.
    """

    def __init__(self, n: int, omega: int, blocks: np.ndarray,
                 gather: np.ndarray, rows: List[_SymgsRow],
                 diag: np.ndarray, artifacts: PassArtifacts,
                 template: SimReport, **kwargs) -> None:
        super().__init__("symgs", n, omega, blocks, gather, artifacts,
                         template, **kwargs)
        self.rows = rows
        diag_pad = np.zeros(self.npad)
        diag_pad[:n] = diag
        self._diag_pad = _read_only(diag_pad)

    def run(self, acc, b: np.ndarray, x_prev: np.ndarray
            ) -> Tuple[np.ndarray, SimReport]:
        """One forward sweep: the width-1 call of the batch loop."""
        x, report = self._sweep(acc, b[:, None], x_prev[:, None], None)
        return x[0].copy(), report

    def run_batch(self, acc, b: np.ndarray, x_prev: np.ndarray
                  ) -> Tuple[np.ndarray, SimReport]:
        """Batched forward sweeps over ``(n, k)`` panels."""
        x, report = self._sweep(acc, b, x_prev, b.shape[1])
        return x.T.copy(), report

    def _sweep(self, acc, b: np.ndarray, x_prev: np.ndarray,
               k: Optional[int]) -> Tuple[np.ndarray, SimReport]:
        """Forward sweeps of every column over one payload delivery;
        returns the ``(columns, n)`` iterates and the report.

        Each payload block crosses the channel once — shared fault
        exposure, one payload's DRAM traffic — and every column then
        advances its own two-plane state: plane 0 is x^t (updated in
        place), plane 1 the read-only x^{t-1}, and gather indices
        address the flattened pair so each entry's operand port
        resolves with no per-block branching.  The expressions are the
        same for every column, so per-column answers are bit-identical
        to solo service.  The report clones the solo template (``k``
        None) or the width-``k`` batch template.
        """
        templates = self._templates(acc, k)
        n, w, npad = self.n, self.omega, self.npad
        width = b.shape[1]
        states = np.zeros((width, 2, npad))
        states[:, 0, :n] = x_prev.T
        states[:, 1, :n] = x_prev.T
        b_pads = np.zeros((width, npad))
        b_pads[:, :n] = b.T
        # Per column: flattened state pair, b, x^{t-1}, x^t, link stack.
        columns = [(states[col].reshape(-1), b_pads[col], states[col, 1],
                    states[col, 0], []) for col in range(width)]
        faulty = acc.config.fault_model is not None
        extra, events = 0.0, []
        for row in self.rows:
            if row.seg_len:
                lo = row.seg_start
                hi = lo + row.seg_len
                seg_blocks = self.blocks[lo:hi]
                if faulty:
                    # Same transfer order as the interpreter: the row's
                    # GEMV blocks first, then its diagonal block below.
                    seg_blocks, extra = self._deliver_blocks(
                        acc, seg_blocks, self.checksums[lo:hi], extra,
                        events)
                gather = self.gather[lo:hi]
                for flat, _b, _prev, _cur, stack in columns:
                    chunks = flat[gather]
                    stack.extend(np.matmul(seg_blocks,
                                           chunks[:, :, None])[:, :, 0])
            if row.body is not None:
                body = row.body
                if faulty:
                    bodies, extra = self._deliver_blocks(
                        acc, body[None], [row.checksum], extra, events)
                    body = bodies[0]
                sl = slice(row.start, row.start + w)
                diag = self._diag_pad[sl]
                for _flat, b_pad, prev, cur, stack in columns:
                    partials = np.zeros(w)
                    while stack:
                        partials += stack.pop()
                    x_new = dsymgs_solve(body, diag, b_pad[sl], prev[sl],
                                         partials, row.valid, w)
                    cur[row.start:row.start + row.valid] = x_new[:row.valid]
        report = self._finish_report(acc, extra, events, templates)
        return states[:, 0, :n], report


# ---------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------
def compile_pass(acc, kind: str):
    """Lower the programmed pass ``kind`` of accelerator ``acc``'s image.

    Returns a :class:`CompiledStreamingPass` or
    :class:`CompiledSymgsPass`, which the image keeps for every binding.
    ``acc`` supplies the configuration the solo templates are captured
    under.  Part of the accelerator's internals — reach it through
    ``Alrescha`` runs (``config.use_plan``) or
    :meth:`~repro.core.accelerator.Alrescha.compile_plans`.
    """
    if kind == "symgs":
        return _compile_symgs(acc)
    if kind in STREAMING_KINDS:
        return _compile_streaming(acc, kind)
    raise SimulationError(f"unknown pass kind {kind!r}")


def _load_stored_template(acc, kind: str, k,
                          traced: bool
                          ) -> Optional[Tuple[SimReport, List[Span]]]:
    """A stored template for this program, or None to capture afresh.

    Only consulted when the accelerator's image was resolved through
    an artifact store (``acc.image.store_key`` set).  A traced
    accelerator requires the stored spans; templates persisted untraced
    are then a miss, and the richer re-capture overwrites them.  Loaded
    templates still flow through ``_verify_against_template`` when the
    lowering is compiled, so a stale store entry fails loudly rather
    than skewing reports.
    """
    store = acc.config.artifact_store
    key = acc.image.store_key
    if store is None or key is None:
        return None
    return store.load_template(key, kind, k=k, want_spans=traced)


def _save_stored_template(acc, kind: str, k, report: SimReport,
                          spans: Optional[List[Span]]) -> None:
    """Persist a freshly captured template (``spans`` None = untraced)."""
    store = acc.config.artifact_store
    key = acc.image.store_key
    if store is None or key is None:
        return
    store.save_template(key, kind, report, spans, k=k)


def _capture_template(acc, kind: str, k: Optional[int] = None
                      ) -> Tuple[SimReport, List[Span]]:
    """Replay the interpreter once with neutral operands and keep its
    report — and, when the accelerator is traced, its spans (see the
    module docstring for why this is exact).

    ``k`` None captures the solo pass at compile time; an integer
    captures a width-``k`` batch (``(n, k)`` zero panels), lazily the
    first time each width runs, so a program that never batches pays
    nothing.  The interpreter is looked up in the same pass-kind table
    (:data:`repro.core.interpreter.ORACLES`) the accelerator falls back
    to.

    Fault injection is suppressed for the replay: the template must
    record the *clean* pass (faults would advance the injector's RNG,
    contaminate the captured cycles/counters, and break the lowering
    verification below).  Faults are charged per run instead.  The span
    capture uses the same shadowing trick: a fresh capture tracer
    replaces the user's for the replay, so template spans (anchored at
    cycle 0) never leak into the user's trace.
    """
    traced = acc.config.tracer is not None
    cached = _load_stored_template(acc, kind, k, traced)
    if cached is not None:
        return cached
    _loop, arity = interpreter.ORACLES[kind]
    zeros = np.zeros(acc.n if k is None else (acc.n, k))
    capture = Tracer() if traced else None
    acc._suppress_faults = True
    acc._capture_tracer = capture
    try:
        report = interpreter.run(acc, kind, (zeros,) * arity, k)[-1]
    finally:
        acc._suppress_faults = False
        acc._capture_tracer = None
    spans = capture.spans if capture is not None else []
    _save_stored_template(acc, kind, k, report, spans if traced else None)
    return report, spans


def _compile_streaming(acc, kind: str) -> CompiledStreamingPass:
    n, w = acc.n, acc.config.omega
    timing = acc.config.timing()
    lanes = np.arange(w)
    blocks, gather, src_base, checksums = [], [], [], []
    seg_len, out_rows = [], []
    compute = []
    for group in acc.image.rows:
        if not group.streaming:
            continue
        seg_len.append(len(group.streaming))
        out_rows.append(group.block_row)
        for op in group.streaming:
            blocks.append(op.values)
            gather.append(op.inx_in
                          + (lanes[::-1] if op.reversed_cols else lanes))
            src_base.append(op.inx_in)
            checksums.append(op.checksum)
            compute.append(timing.compute_cycles_per_block(op.dp))
    return CompiledStreamingPass(
        kind, n, w, src_base=np.asarray(src_base, dtype=np.int64),
        **_lowered(acc, kind, blocks, gather, checksums, seg_len, out_rows,
                   compute, n_requests=len(blocks)))


def _compile_symgs(acc) -> CompiledSymgsPass:
    n, w = acc.n, acc.config.omega
    diag = acc.conversion.matrix.diagonal
    if diag is None:
        raise SimulationError("programmed matrix lacks SymGS layout")
    timing = acc.config.timing()
    _nbr, npad = _padded_length(n, w)
    lanes = np.arange(w)
    blocks, gather, checksums = [], [], []
    rows: List[_SymgsRow] = []
    seg_len, out_rows = [], []
    compute_vec = []
    n_requests = 0
    for group in acc.image.rows:
        seg_start = len(blocks)
        for op in group.streaming:
            blocks.append(op.values)
            plane = 0 if op.port is OperandPort.PORT1 else 1
            idx = op.inx_in + (lanes[::-1] if op.reversed_cols else lanes)
            gather.append(plane * npad + idx)
            checksums.append(op.checksum)
            compute_vec.append(timing.compute_cycles_per_block(op.dp))
            n_requests += 1
        body = None
        body_checksum = 0
        start = group.block_row * w
        valid = max(0, min(w, n - start))
        if group.diagonal is not None:
            body = group.diagonal.values
            body_checksum = group.diagonal.checksum
            refetch = (not acc.conversion.reordered) and group.streaming
            n_requests += 2 if refetch else 1
            compute_vec.append(
                timing.compute_cycles_per_block(DataPathType.D_SYMGS))
        rows.append(_SymgsRow(seg_start=seg_start,
                              seg_len=len(blocks) - seg_start,
                              start=start, valid=valid, body=body,
                              checksum=body_checksum))
        seg_len.append(len(blocks) - seg_start)
        out_rows.append(group.block_row)
    return CompiledSymgsPass(
        n, w, rows=rows, diag=diag,
        **_lowered(acc, "symgs", blocks, gather, checksums, seg_len,
                   out_rows, compute_vec, n_requests))


def _lowered(acc, kind: str, blocks, gather, checksums, seg_len, out_rows,
             compute_vec, n_requests: int) -> dict:
    """Stack a lowered pass, capture and verify its report template,
    and return the constructor keywords every compiled pass shares."""
    w = acc.config.omega
    block_bytes = acc.config.timing().block_bytes
    seg_len_arr = np.asarray(seg_len, dtype=np.int64)
    seg_start = np.zeros(len(seg_len), dtype=np.int64)
    if len(seg_len) > 1:
        seg_start[1:] = np.cumsum(seg_len_arr)[:-1]
    mem = acc.config.make_memory()
    padded_block_bytes = mem._padded_bytes(block_bytes)
    artifacts = PassArtifacts(
        compute_cycles_per_block=np.asarray(compute_vec, dtype=np.float64),
        seg_start=seg_start,
        seg_len=seg_len_arr,
        out_rows=np.asarray(out_rows, dtype=np.int64),
    )
    template, span_template = _capture_template(acc, kind)
    _verify_against_template(kind, artifacts, template, n_requests)
    m = len(blocks)
    return dict(
        blocks=_read_only(np.stack(blocks) if m else np.zeros((0, w, w))),
        gather=_read_only(np.stack(gather) if m
                          else np.zeros((0, w), dtype=np.int64)),
        artifacts=artifacts, template=template,
        traced=acc.config.tracer is not None,
        checksums=checksums,
        restream_cycles=padded_block_bytes / mem.bytes_per_cycle,
        padded_block_bytes=padded_block_bytes,
        span_template=span_template)


# KernelType is imported for the kernel→plan-kind map used by
# Alrescha.compile_plans().
KERNEL_PLAN_KINDS = {
    KernelType.SPMV: ("spmv",),
    KernelType.SYMGS: ("symgs",),
    KernelType.BFS: ("bfs",),
    KernelType.SSSP: ("sssp",),
    KernelType.PAGERANK: ("pagerank",),
}

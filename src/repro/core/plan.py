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
``program()`` time, never on operand *values* (the programmed blocks
decide ALU/RE/PE activity, which both engines count from them and
never from a delivered copy; the table decides cache/stack/memory
traffic).  Compilation therefore prices the pass once from its
programmed columns (:func:`~repro.core.pricing.price_pass`, held equal
to the interpreter's report, counter order included, by
``tests/test_pricing.py``) and keeps the report as a template; each
plan run returns a :meth:`~repro.core.report.SimReport.clone` of it.
Batched runs clone a per-width template, priced the same way the first
time each width runs.  A traced run also needs the pass's spans, which
only the interpreter lays, so a traced accelerator's templates come
from one interpreter replay with neutral (zero) operands.  Kernel
outputs are bit-identical too: both engines compute every data path
through the same functions of :mod:`repro.core.datapaths`, which the
interpreter calls per block and a plan calls on its whole stack (one
block and a stack give the same bits), and a plan reduces each block
row in the interpreter's order.  Solo runs are the width-1 calls of
their batch loops.  A faulty run is the clean template plus one fault
charge, priced by the interpreter's own
:func:`~repro.core.interpreter.charge_faults` from the same transfers
and the pricer's per-row slack, so it matches the interpreter too.

Compilation cross-checks the lowered artifacts against the template
(compute-cycle totals, memory request counts) — an accounting of the
same table made apart from the lowering — and refuses to produce a
plan that disagrees with it.

Who owns a plan
---------------
A plan belongs to a :class:`~repro.core.accelerator.ProgrammedImage`,
not to an accelerator: every accelerator bound to the image runs the
same plan, so a pool of devices with different fault models compiles
each pass once.  Each run — and each lazy batch template — takes the
calling accelerator, which supplies the fault model, the checksum and
cross-check knobs and the tracer.  Templates describe the clean
channel, so they serve every binding; spans are kept once a traced
accelerator has captured them, and a priced template is re-captured on
the interpreter when a traced accelerator first needs its spans.  The
lowered arrays are read-only: an in-place write raises instead of
corrupting the sibling bindings.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.core import interpreter
from repro.core.config import (DataPathType, KernelType, OperandPort,
                               column_code)
from repro.core.datapaths import (dsymgs_recurrence, dsymgs_upper_dots,
                                  gemv_partials, minplus_candidates,
                                  parent_improve)
from repro.core.pricing import compute_cycles, price_pass, streaming_entries
from repro.core.report import SimReport
from repro.observe.tracer import Span, Tracer

#: Pass kinds served by :class:`CompiledStreamingPass` (independent
#: block rows; one batched gather/compute/scatter per pass).
STREAMING_KINDS = ("spmv", "bfs", "bfs-parents", "sssp", "pagerank")

#: All pass kinds the compiler understands.
PLAN_KINDS = STREAMING_KINDS + ("symgs",)

#: Seed of the block-row sample a cross-check recomputes, so every
#: pass of a run checks the same reproducible rows.
CROSSCHECK_SEED = 1


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


#: A pass's report and span templates, plus its fault slack per row
#: when the report was priced (None when loaded or captured).
_Template = Tuple[SimReport, List[Span], Optional[List[float]]]


def _time_groups(seg_len: np.ndarray, seg_start: np.ndarray,
                 lifo: bool = False) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Precompute, for each within-row block position ``t``, the rows
    still live and the flat index of their ``t``-th block — counted
    from each row's last block when ``lifo``, the order the link stack
    pops partials.

    Replaying these groups in order applies every row's partials in
    exactly the interpreter's per-row sequence, so floating-point
    accumulation order — and hence the bit pattern of the result —
    matches the interpreter.
    """
    groups: List[Tuple[np.ndarray, np.ndarray]] = []
    t = 0
    while True:
        live = np.nonzero(seg_len > t)[0]
        if live.size == 0:
            break
        step = seg_len[live] - 1 - t if lifo else t
        groups.append((live, seg_start[live] + step))
        t += 1
    return groups


def _replay_spans(tracer: Optional[Tracer],
                  span_template: List[Span]) -> Optional[int]:
    """Replay a pass's captured span template onto the user's tracer;
    returns the replayed pass span's id (None when untraced).

    The span analogue of cloning the report template: pass timing
    depends only on block structure, so the spans captured at compile
    time are exact for every run — shifted to each track's current
    cursor.
    """
    if tracer is None or not span_template:
        return None
    offsets = {span.track: tracer.cursor(span.track)
               for span in span_template}
    base = len(tracer.spans)
    tracer.replay(span_template, offsets)
    return next(span.span_id for span in tracer.spans[base:]
                if span.cat == "pass")


def _accumulate(groups: List[Tuple[np.ndarray, np.ndarray]],
                partials: np.ndarray, n_rows: int, reduce=np.add,
                identity: float = 0.0) -> np.ndarray:
    """Each row's ``reduce`` (sum or min tree) of its blocks' partials,
    from ``identity``, replaying :func:`_time_groups` ``groups`` in
    order so every row reduces in the interpreter's sequence."""
    out = np.full((n_rows, partials.shape[-1]), identity)
    for live, idx in groups:
        out[live] = reduce(out[live], partials[idx])
    return out


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array``, made read-only: every binding of an image runs the
    same plan, so a write into its arrays must raise, not corrupt the
    siblings."""
    array.flags.writeable = False
    return array


def _verify_against_template(kind: str, artifacts: PassArtifacts,
                             template: SimReport,
                             n_requests: int) -> None:
    """Refuse to emit a plan whose lowering disagrees with the pass's
    report template: the pricing of the same table (or a stored or
    interpreter-captured template), which never reads the lowering."""
    compute_total = float(artifacts.compute_cycles_per_block.sum())
    template_compute = float(sum(template.datapath_cycles.values()))
    if not math.isclose(compute_total, template_compute,
                        rel_tol=1e-9, abs_tol=1e-6):
        raise SimulationError(
            f"{kind} plan lowering disagrees with its report template: "
            f"compute {compute_total} vs {template_compute} cycles"
        )
    template_requests = template.counters.get("dram_requests")
    if template_requests != float(n_requests):
        raise SimulationError(
            f"{kind} plan lowering disagrees with its report template: "
            f"{n_requests} block transfers vs {template_requests} "
            f"memory requests"
        )


class _CompiledPass:
    """State and report handling shared by the compiled pass kinds."""

    def __init__(self, kind: str, n: int, omega: int, blocks: np.ndarray,
                 gather: np.ndarray, artifacts: PassArtifacts,
                 template: _Template, traced: bool = False,
                 checksums: Optional[List[int]] = None) -> None:
        self.kind = kind
        self.n = n
        self.omega = omega
        #: Block rows, and the vector length padded to whole rows.
        self.nbr = -(-n // omega)
        self.npad = self.nbr * omega
        self.blocks = blocks
        self.gather = gather
        self.artifacts = artifacts
        #: Per-block payload CRCs in stacked order (``program()`` data).
        self.checksums = checksums or []
        #: ``(report, spans, traced)`` by batch width (None = solo): the
        #: solo templates made at compile time, each batch width's the
        #: first time it runs.  ``traced`` records whether they hold
        #: spans.
        self._template_cache: Dict[
            Optional[int], Tuple[SimReport, List[Span], bool]] = {}
        #: Fault-charge slack by batch width: priced with the width's
        #: template, or on its first faulty run when the template was
        #: loaded or captured instead.
        self._slacks: Dict[Optional[int], List[float]] = {}
        self._keep(None, template, traced)

    def _padded(self, vec, dtype=np.float64
                ) -> Tuple[np.ndarray, np.ndarray]:
        """``vec`` zero-padded to whole block rows, and its
        ``[block rows, ω]`` view."""
        pad = np.zeros(self.npad, dtype=dtype)
        pad[:self.n] = vec
        return pad, pad.reshape(self.nbr, self.omega)

    def _keep(self, k: Optional[int], template: _Template,
              traced: bool) -> None:
        """Keep a width's templates (and its slack, when priced)."""
        report, spans, slack = template
        self._template_cache[k] = (report, spans, traced)
        if slack is not None:
            self._slacks[k] = slack

    def _templates(self, acc, k: Optional[int]
                   ) -> Tuple[SimReport, List[Span]]:
        """Report and span templates of a solo run (``k`` None) or of a
        width-``k`` batch, for accelerator ``acc``: made on first use,
        and again with spans when ``acc`` is traced and the kept ones
        have none."""
        traced = acc.config.tracer is not None
        cached = self._template_cache.get(k)
        if cached is None or (traced and not cached[2]):
            self._keep(k, _template(acc, self.kind, k), traced)
            cached = self._template_cache[k]
        return cached[0], cached[1]

    def _fault_slack(self, acc, k: Optional[int]) -> List[float]:
        """The fault slack per row of a width-``k`` run: priced once per
        width (:func:`~repro.core.pricing.price_pass`)."""
        slack = self._slacks.get(k)
        if slack is None:
            slack = self._slacks[k] = price_pass(acc.image, acc.config,
                                                 self.kind, k)[1]
        return slack

    def _deliver_blocks(self, acc, order) -> Tuple[np.ndarray, list]:
        """Stream the stacked blocks through ``acc``'s fault model in
        transfer order: ``order`` yields ``(row, stacked index)``, the
        row being the transfer's row of the fault charge.

        Returns ``(delivered, faults)``: ``self.blocks`` itself or —
        once a silent bitflip strikes — a corrupted *copy* (the
        compile-time payload stays pristine for cross-checking), and
        ``(row, event)`` per faulty transfer.
        """
        cfg = acc.config
        fm, verify = cfg.fault_model, cfg.verify_checksums
        restream = interpreter.restream_cost(cfg)[1]
        delivered = self.blocks
        faults = []
        for row, i in order:
            src = self.blocks[i]
            checksum = int(self.checksums[i]) if verify else None
            vals, _extra, event = fm.deliver(src, checksum,
                                             restream_cycles=restream)
            if event is not None:
                faults.append((row, event))
            if vals is not src:
                if delivered is self.blocks:
                    delivered = self.blocks.copy()
                delivered[i] = vals
        return delivered, faults

    def _crosscheck_rows(self, cfg, report: SimReport, n_rows: int,
                         row_matches) -> None:
        """Spot-validate sampled block rows of a run.

        ``row_matches(r)`` recomputes block row ``r`` from the pristine
        compile-time blocks and compares it bitwise with the run's
        result.  The recompute calls the same data-path functions as
        the run, so on an uncorrupted run every row matches by
        construction — a mismatch means the delivered payload differed
        from the programmed payload (a silent fault that slipped past
        checksum verification).  Checked rows and mismatches land in
        the report's ``crosscheck_rows`` and ``crosscheck_mismatches``
        counters, which the accelerator's degradation logic watches.
        ``cfg`` is the running accelerator's configuration.
        """
        if cfg.crosscheck_rows <= 0.0 or n_rows == 0:
            return
        rng = random.Random(CROSSCHECK_SEED)
        count = min(n_rows, max(1, int(
            math.ceil(cfg.crosscheck_rows * n_rows))))
        mismatches = sum(1 for r in rng.sample(range(n_rows), count)
                         if not row_matches(r))
        report.counters.add("crosscheck_rows", float(count))
        if mismatches:
            report.counters.add("crosscheck_mismatches", float(mismatches))

    def _finish_report(self, acc, k: Optional[int], faults) -> SimReport:
        """Clone the run's templates (report, and spans onto ``acc``'s
        trace) and charge its faults by the interpreter's rule."""
        template, span_template = self._templates(acc, k)
        report = template.clone()
        pass_span = _replay_spans(acc.config.tracer, span_template)
        if faults:
            interpreter.charge_faults(acc.config, report, faults,
                                      self._fault_slack(acc, k), pass_span)
        return report


class CompiledStreamingPass(_CompiledPass):
    """A compiled SpMV / D-BFS / D-SSSP / D-PR pass.

    Executes as: one gather of operand chunks, one call of the kind's
    data-path function on the whole block stack, a short live-row
    accumulation loop (longest block row many steps, each fully
    vectorized across rows), one scatter — then clones the report
    template.  One body serves every kind, driven by the kind's
    :data:`~repro.core.interpreter.STREAMING_KERNELS` spec (operand
    spaces, data-path function, sum or min reduction, seeded output),
    the same spec the interpreter's loop runs.  Parent-tracking D-BFS
    folds two outputs and keeps :meth:`run_parents`.
    """

    def __init__(self, kind: str, n: int, omega: int,
                 blocks: np.ndarray, gather: np.ndarray,
                 src_base: np.ndarray, artifacts: PassArtifacts,
                 template: _Template, **kwargs) -> None:
        super().__init__(kind, n, omega, blocks, gather, artifacts,
                         template, **kwargs)
        self.masks = (_read_only(blocks != 0.0) if kind != "spmv"
                      else None)
        self.src_base = src_base
        self._tgroups = _time_groups(artifacts.seg_len, artifacts.seg_start)
        self._n_rows = int(artifacts.out_rows.size)

    def _gather_chunks(self, vec: np.ndarray) -> np.ndarray:
        """Zero-padded operand chunks per block, reversal applied."""
        return self._padded(vec)[0][self.gather]

    def _segment(self, r: int) -> slice:
        """Stacked blocks of block row ``r``."""
        lo = int(self.artifacts.seg_start[r])
        return slice(lo, lo + int(self.artifacts.seg_len[r]))

    # ------------------------------------------------------------------
    # Resilience (all no-ops when no fault model is attached)
    # ------------------------------------------------------------------
    def _deliver(self, acc):
        """Stream the stacked blocks in the interpreter's transfer order,
        as one fault row; returns ``(blocks, masks, faults)``.  With no
        fault model these are the pristine compile-time arrays and the
        call is one attribute check."""
        if acc.config.fault_model is None:
            return self.blocks, self.masks, []
        blocks, faults = self._deliver_blocks(
            acc, ((0, i) for i in range(self.blocks.shape[0])))
        masks = self.masks
        if blocks is not self.blocks and self.kind != "spmv":
            masks = blocks != 0.0
        return blocks, masks, faults

    # ------------------------------------------------------------------
    # Pass kinds
    # ------------------------------------------------------------------
    def run(self, acc, *operands: np.ndarray
            ) -> Tuple[np.ndarray, SimReport]:
        """Solo SpMV, D-BFS, D-SSSP or D-PR over ``(n,)`` operands: the
        width-1 call of :meth:`_stream`."""
        outs, report = self._stream(acc, [op[:, None] for op in operands],
                                    None)
        return outs[0], report

    def run_batch(self, acc, *panels: np.ndarray
                  ) -> Tuple[np.ndarray, SimReport]:
        """Batched multi-RHS SpMV over ``(n, k)`` panels."""
        outs, report = self._stream(acc, panels, panels[0].shape[1])
        return np.stack(outs, axis=1), report

    def _stream(self, acc, panels, k: Optional[int]
                ) -> Tuple[List[np.ndarray], SimReport]:
        """The pass over every column of the ``(n, width)`` operand
        ``panels``, with one payload delivery.

        The stacked blocks cross the (possibly faulty) channel *once*
        for all columns — one shared fault exposure, one payload's DRAM
        traffic — and each column then makes its own data-path call
        (deliberately not one wide matmul whose BLAS summation order
        could differ), so every column's answer is bit-identical to solo
        service.  The report clones the solo template (``k`` None) or
        the width-``k`` batch template.
        """
        spec = interpreter.STREAMING_KERNELS[self.kind]
        blocks, masks, faults = self._deliver(acc)
        outs, runs = [], []
        for col in range(panels[0].shape[1]):
            chunks = [self._gather_chunks(panel[:, col]) for panel in panels]
            partials = spec.stack(blocks, masks, chunks)
            sums = _accumulate(self._tgroups, partials, self._n_rows,
                               spec.reduce, spec.identity)
            runs.append((chunks, sums))
            # Rows without blocks keep their start value: the seed, or
            # zero (the interpreter never writes them).
            out, view = self._padded(panels[0][:, col] if spec.seeded
                                     else 0.0)
            rows = self.artifacts.out_rows
            view[rows] = (spec.reduce(view[rows], sums) if spec.seeded
                          else sums)
            outs.append(out[:self.n].copy())
        report = self._finish_report(acc, k, faults)
        for chunks, sums in runs:
            self._crosscheck_rows(
                acc.config, report, self._n_rows,
                lambda r, c=chunks, s=sums: self._row_matches(spec, c, s, r))
        return outs, report

    def _row_matches(self, spec, chunks: List[np.ndarray], sums: np.ndarray,
                     r: int) -> bool:
        """Recompute block row ``r`` through the kind's data-path
        function on the pristine stack, reduce it block by block, and
        compare bitwise with the run's row result ``sums[r]``."""
        seg = self._segment(r)
        masks = None if self.masks is None else self.masks[seg]
        expect = np.full(self.omega, spec.identity)
        for partial in spec.stack(self.blocks[seg], masks,
                                  [c[seg] for c in chunks]):
            expect = spec.reduce(expect, partial)
        return np.array_equal(expect, sums[r], equal_nan=True)

    def _parent_candidates(self, masks: np.ndarray, chunks: np.ndarray,
                           seg: slice = slice(None)):
        """Per block of the stacked ``seg``: the unit-cost min-plus
        candidate, its argmin lane's vertex, and the lane (-1 where no
        edge reaches it)."""
        cand, lanes = minplus_candidates(masks[seg], chunks[seg],
                                         with_argmin=True)
        return cand, self.src_base[seg, None] + lanes, lanes

    def run_parents(self, acc, dist: np.ndarray, parent: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray, SimReport]:
        """Parent-tracking D-BFS: each block row folds its blocks'
        candidates with :func:`~repro.core.datapaths.parent_improve`,
        then each vertex takes its row's best the same way."""
        _blocks, masks, faults = self._deliver(acc)
        chunks = self._gather_chunks(dist)
        cand, src, lanes = self._parent_candidates(masks, chunks)
        best = np.full((self._n_rows, self.omega), np.inf)
        best_src = np.full((self._n_rows, self.omega), -1, dtype=np.int64)
        for live, idx in self._tgroups:
            best[live], best_src[live] = parent_improve(
                best[live], best_src[live], cand[idx], src[idx], lanes[idx])
        dist_pad, dview = self._padded(dist)
        parent_pad, pview = self._padded(parent, np.int64)
        rows = self.artifacts.out_rows
        dview[rows], pview[rows] = parent_improve(dview[rows], pview[rows],
                                                  best, best_src)
        report = self._finish_report(acc, None, faults)

        def row_matches(r: int) -> bool:
            expect = np.full(self.omega, np.inf)
            expect_src = np.full(self.omega, -1, dtype=np.int64)
            for block in zip(*self._parent_candidates(
                    self.masks, chunks, self._segment(r))):
                expect, expect_src = parent_improve(expect, expect_src,
                                                    *block)
            return (np.array_equal(expect, best[r], equal_nan=True)
                    and np.array_equal(expect_src, best_src[r]))

        self._crosscheck_rows(acc.config, report, self._n_rows, row_matches)
        return dist_pad[:self.n].copy(), parent_pad[:self.n].copy(), report


@dataclass(frozen=True)
class _SymgsRow:
    """One block row of a compiled SymGS sweep.

    Its GEMV blocks sit at stacked indices ``seg_start`` to
    ``seg_start + seg_len``: the first ``n_lower`` read x^t (port 1),
    the rest x^{t-1} (port 2).  Its diagonal block follows every GEMV
    block of the sweep, in row order.
    """

    seg_start: int
    n_lower: int
    seg_len: int
    start: int
    valid: int


def _lifo_sum(acc: np.ndarray, partials: np.ndarray) -> np.ndarray:
    """``acc`` plus ``partials`` taken last-first, as the link stack
    pops them: a running sum (``np.add.accumulate`` keeps every
    intermediate, so its order is fixed) whose last row is the total.
    """
    return np.add.accumulate(np.concatenate((acc[None], partials[::-1])),
                             axis=0)[-1]


class CompiledSymgsPass(_CompiledPass):
    """A compiled forward SymGS sweep, in two halves.

    Every term that reads only x^{t-1} is computed for the whole sweep
    before any row is solved (§4.1's reordering exists because these
    do not wait on the sequential D-SymGS): one batched matmul of the
    GEMV blocks, the LIFO prefix each row's port-2 partials form on the
    link stack — Algorithm 1 emits a row's GEMVs by ascending block
    column, so its port-2 partials pop first — and the in-block upper
    dots of every diagonal block
    (:func:`~repro.core.datapaths.dsymgs_upper_dots`).  The row walk
    then computes only x^t terms: per row, one gather and one matmul of
    its port-1 blocks, their LIFO sum onto the prefix, and the
    :func:`~repro.core.datapaths.dsymgs_recurrence`.  The interpreter
    runs the same helpers block by block, so the iterates are
    bit-identical to it.
    """

    def __init__(self, n: int, omega: int, blocks: np.ndarray,
                 gather: np.ndarray, rows: List[_SymgsRow],
                 diag: np.ndarray, artifacts: PassArtifacts,
                 template: _Template, **kwargs) -> None:
        super().__init__("symgs", n, omega, blocks, gather, artifacts,
                         template, **kwargs)
        self.rows = rows
        self.n_gemv = int(gather.shape[0])
        self._diag_pad = _read_only(self._padded(diag)[0])
        self._block_rows = np.asarray([row.start // omega for row in rows],
                                      dtype=np.int64)
        # Each row's port-2 blocks, popped last-first.
        self._upper_groups = _time_groups(
            np.asarray([row.seg_len - row.n_lower for row in rows],
                       dtype=np.int64),
            np.asarray([row.seg_start + row.n_lower for row in rows],
                       dtype=np.int64), lifo=True)

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

    def _transfer_order(self):
        """``(row, stacked index)`` in the interpreter's transfer order:
        each row's GEMV blocks, then its diagonal block."""
        for i, row in enumerate(self.rows):
            for j in range(row.seg_start, row.seg_start + row.seg_len):
                yield i, j
            yield i, self.n_gemv + i

    def _sweep(self, acc, b: np.ndarray, x_prev: np.ndarray,
               k: Optional[int]) -> Tuple[np.ndarray, SimReport]:
        """Forward sweeps of every column over one payload delivery;
        returns the ``(columns, n)`` iterates and the report.

        Each payload block crosses the channel once, up front and in
        transfer order — shared fault exposure, one payload's DRAM
        traffic — and every column then runs both halves on its own
        padded x^{t-1} and x^t.  The expressions are the same for every
        column, so per-column answers are bit-identical to solo
        service.  The report clones the solo template (``k`` None) or
        the width-``k`` batch template.
        """
        blocks, faults = self.blocks, []
        if acc.config.fault_model is not None:
            blocks, faults = self._deliver_blocks(acc, self._transfer_order())
        n, npad = self.n, self.npad
        width = b.shape[1]
        prev = np.zeros((width, npad))
        prev[:, :n] = x_prev.T
        cur = prev.copy()
        b_pads = np.zeros((width, npad))
        b_pads[:, :n] = b.T
        for col in range(width):
            self._walk(blocks, b_pads[col], prev[col], cur[col])
        report = self._finish_report(acc, k, faults)
        for col in range(width):
            self._crosscheck_rows(
                acc.config, report, len(self.rows),
                lambda i, c=col: self._row_matches(i, b_pads[c], prev[c],
                                                   cur[c]))
        return cur[:, :n], report

    def _walk(self, blocks: np.ndarray, b_pad: np.ndarray,
              prev: np.ndarray, cur: np.ndarray) -> None:
        """One column's sweep over delivered ``blocks``: the x^{t-1}
        half for every row, then the x^t walk writing ``cur``."""
        w = self.omega
        prefix = _accumulate(self._upper_groups, gemv_partials(
            blocks[:self.n_gemv], prev[self.gather]), len(self.rows))
        upper = dsymgs_upper_dots(
            blocks[self.n_gemv:], prev.reshape(-1, w)[self._block_rows])
        for i, row in enumerate(self.rows):
            cur[row.start:row.start + row.valid] = self._solve_row(
                blocks, i, b_pad, cur, prefix[i], upper[i])

    def _solve_row(self, blocks: np.ndarray, i: int, b_pad: np.ndarray,
                   cur: np.ndarray, acc: np.ndarray, upper: np.ndarray
                   ) -> List[float]:
        """Block row ``i``'s new x^t values: its port-1 partials on the
        x^t ``cur``, popped last-first onto its x^{t-1} terms ``acc``
        and ``upper``, then the recurrence."""
        row, w = self.rows[i], self.omega
        lower = slice(row.seg_start, row.seg_start + row.n_lower)
        if row.n_lower:
            acc = _lifo_sum(acc, gemv_partials(blocks[lower],
                                               cur[self.gather[lower]]))
        sl = slice(row.start, row.start + w)
        return dsymgs_recurrence(blocks[self.n_gemv + i], self._diag_pad[sl],
                                 b_pad[sl], acc, upper, row.valid)

    def _row_matches(self, i: int, b_pad: np.ndarray, prev: np.ndarray,
                     cur: np.ndarray) -> bool:
        """Recompute block row ``i`` from the pristine blocks, the run's
        final x^t and its x^{t-1}, and compare bitwise with the run."""
        row, w = self.rows[i], self.omega
        upper = slice(row.seg_start + row.n_lower, row.seg_start + row.seg_len)
        sl = slice(row.start, row.start + w)
        expect = self._solve_row(
            self.blocks, i, b_pad, cur,
            _lifo_sum(np.zeros(w), gemv_partials(
                self.blocks[upper], prev[self.gather[upper]])),
            dsymgs_upper_dots(self.blocks[self.n_gemv + i][None],
                              prev[sl][None])[0])
        return np.array_equal(expect, cur[row.start:row.start + row.valid],
                              equal_nan=True)


# ---------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------
def compile_pass(acc, kind: str):
    """Lower the programmed pass ``kind`` of accelerator ``acc``'s image.

    Returns a :class:`CompiledStreamingPass` or
    :class:`CompiledSymgsPass`, which the image keeps for every binding.
    ``acc`` supplies the configuration the solo templates are made
    under.  Part of the accelerator's internals — reach it through
    ``Alrescha`` runs (``config.use_plan``) or
    :meth:`~repro.core.accelerator.Alrescha.compile_plans`.
    """
    if kind == "symgs":
        return _compile_symgs(acc)
    if kind in STREAMING_KINDS:
        return _compile_streaming(acc, kind)
    raise SimulationError(f"unknown pass kind {kind!r}")


def _template(acc, kind: str, k: Optional[int] = None) -> _Template:
    """Make the templates of pass ``kind`` for accelerator ``acc`` (see
    the module docstring for why they are exact).

    ``k`` None makes the solo pass's at compile time; an integer a
    width-``k`` batch's, lazily the first time each width runs, so a
    program that never batches pays nothing.  An untraced accelerator's
    report is priced from the programmed columns
    (:func:`~repro.core.pricing.price_pass`) and carries no spans.  A
    traced one needs spans, which only the interpreter lays: it is
    replayed once with neutral (zero) operands on a clean binding of the
    same image — no fault model (the template is the clean pass; each
    run charges its own faults) and a capture tracer, so template spans
    (anchored at cycle 0) never leak into the user's trace.

    An image resolved through an artifact store (``acc.image.store_key``
    set) loads a stored template instead, and saves a fresh one.  A
    traced accelerator requires the stored spans; templates persisted
    untraced are then a miss, and the richer capture overwrites them.
    Loaded templates still flow through ``_verify_against_template``
    when the lowering is compiled, so a stale store entry fails loudly
    rather than skewing reports.
    """
    traced = acc.config.tracer is not None
    store, key = acc.config.artifact_store, acc.image.store_key
    stored = store is not None and key is not None
    if stored:
        cached = store.load_template(key, kind, k=k, want_spans=traced)
        if cached is not None:
            return cached + (None,)
    if traced:
        report, spans = _capture_template(acc, kind, k)
        slack = None
    else:
        report, slack = price_pass(acc.image, acc.config, kind, k)
        spans = []
    if stored:
        store.save_template(key, kind, report, spans if traced else None,
                            k=k)
    return report, spans, slack


def _capture_template(acc, kind: str, k: Optional[int]
                      ) -> Tuple[SimReport, List[Span]]:
    """Replay the interpreter once with neutral operands on a clean,
    capture-traced binding of ``acc``'s image; returns its report and
    spans."""
    _loop, arity = interpreter.ORACLES[kind]
    zeros = np.zeros(acc.n if k is None else (acc.n, k))
    capture = Tracer()
    clean = type(acc).bind(acc.image, replace(acc.config, fault_model=None,
                                              tracer=capture))
    report = interpreter.run(clean, kind, (zeros,) * arity, k)[-1]
    return report, capture.spans


def _gather(inx_in: np.ndarray, reversed_cols: np.ndarray,
            omega: int) -> np.ndarray:
    """Operand indices ``[m, ω]`` of each block: ``inx_in`` plus lane,
    lanes reversed for column-reversed blocks."""
    lanes = np.arange(omega)
    return inx_in[:, None] + np.where(reversed_cols[:, None], lanes[::-1],
                                      lanes)


def _compile_streaming(acc, kind: str) -> CompiledStreamingPass:
    image = acc.image
    table, matrix = image.conversion.table, image.conversion.matrix
    n, w = acc.n, acc.config.omega
    ops, seg_len = streaming_entries(image)
    live = seg_len > 0
    index = image.block_index[ops]
    inx_in = table.inx_in[ops]
    return CompiledStreamingPass(
        kind, n, w, src_base=inx_in,
        **_lowered(acc, kind, matrix.blocks[index],
                   _gather(inx_in, matrix.reversed_cols[index], w),
                   image.checksums[ops].tolist(), seg_len[live],
                   image.entry_groups[0][live],
                   compute_cycles(acc.config.timing(), table.dp[ops]),
                   n_requests=int(ops.size)))


def _check_symgs_rows(group_rows: np.ndarray, bodies: np.ndarray,
                      row_of: np.ndarray, port1: np.ndarray,
                      seg_start: np.ndarray) -> None:
    """Raise for the first block row, in table order, that a sweep
    cannot sequence: one without a D-SymGS entry (``bodies`` -1), or
    one where a port-1 GEMV follows a port-2 one.  ``row_of`` and
    ``port1`` describe the GEMVs grouped by row, ``seg_start`` where
    each row's GEMVs begin."""
    position = np.arange(row_of.size) - seg_start[row_of]
    lower_before = np.cumsum(port1) - port1
    lower_before -= lower_before[seg_start[row_of]]
    misplaced = np.zeros(group_rows.size, dtype=bool)
    misplaced[row_of[port1 & (lower_before != position)]] = True
    broken = (bodies < 0) | misplaced
    if broken.any():
        i = int(np.argmax(broken))
        problem = ("has no D-SymGS entry" if bodies[i] < 0 else
                   "streams a port-1 GEMV after a port-2 one")
        raise SimulationError(
            f"SymGS block row {int(group_rows[i])} {problem}")


def _compile_symgs(acc) -> CompiledSymgsPass:
    image = acc.image
    table, matrix = image.conversion.table, image.conversion.matrix
    n, w = acc.n, acc.config.omega
    diag = matrix.diagonal
    if diag is None:
        raise SimulationError("programmed matrix lacks SymGS layout")
    group_rows, group = image.entry_groups
    n_rows = group_rows.size
    bodies = image.row_diagonals
    gemvs, seg_len = streaming_entries(image)
    seg_start = np.cumsum(seg_len) - seg_len
    row_of = group[gemvs]
    port1 = table.port[gemvs] == column_code(OperandPort.PORT1)
    _check_symgs_rows(group_rows, bodies, row_of, port1, seg_start)
    n_lower = np.bincount(row_of[port1], minlength=n_rows)
    start = group_rows * w
    rows = [_SymgsRow(*fields) for fields in zip(
        seg_start.tolist(), n_lower.tolist(), seg_len.tolist(),
        start.tolist(), np.clip(n - start, 0, w).tolist())]
    refetch = interpreter.refetches_diagonal(table.reordered, seg_len)
    n_requests = int(gemvs.size + np.where(refetch, 2, 1).sum())
    # Engine cycles in execution order: each row's GEMVs, then its
    # D-SymGS.
    compute_vec = np.empty(gemvs.size + n_rows)
    at_body = seg_start + np.arange(n_rows) + seg_len
    at_gemv = np.ones(compute_vec.size, dtype=bool)
    at_gemv[at_body] = False
    timing = acc.config.timing()
    compute_vec[at_gemv] = compute_cycles(timing, table.dp[gemvs])
    compute_vec[at_body] = timing.compute_cycles_per_block(
        DataPathType.D_SYMGS)
    stacked = np.concatenate((gemvs, bodies))
    index = image.block_index[gemvs]
    return CompiledSymgsPass(
        n, w, rows=rows, diag=diag,
        **_lowered(acc, "symgs", matrix.blocks[image.block_index[stacked]],
                   _gather(table.inx_in[gemvs], matrix.reversed_cols[index],
                           w),
                   image.checksums[stacked].tolist(), seg_len, group_rows,
                   compute_vec, n_requests))


def _lowered(acc, kind: str, blocks: np.ndarray, gather: np.ndarray,
             checksums: List[int], seg_len: np.ndarray,
             out_rows: np.ndarray, compute_vec: np.ndarray,
             n_requests: int) -> dict:
    """Make and verify a lowered pass's templates, and return the
    constructor keywords every compiled pass shares."""
    seg_len = np.asarray(seg_len, dtype=np.int64)
    artifacts = PassArtifacts(
        compute_cycles_per_block=np.asarray(compute_vec, dtype=np.float64),
        seg_start=np.cumsum(seg_len) - seg_len,
        seg_len=seg_len,
        out_rows=np.asarray(out_rows, dtype=np.int64),
    )
    template = _template(acc, kind)
    _verify_against_template(kind, artifacts, template[0], n_requests)
    return dict(
        blocks=_read_only(blocks), gather=_read_only(gather),
        artifacts=artifacts, template=template,
        traced=acc.config.tracer is not None, checksums=checksums)


# KernelType is imported for the kernel→plan-kind map used by
# Alrescha.compile_plans().
KERNEL_PLAN_KINDS = {
    KernelType.SPMV: ("spmv",),
    KernelType.SYMGS: ("symgs",),
    KernelType.BFS: ("bfs",),
    KernelType.SSSP: ("sssp",),
    KernelType.PAGERANK: ("pagerank",),
}

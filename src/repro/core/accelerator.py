"""The ALRESCHA accelerator: programming model and execution engine.

This module ties the pieces together the way Figure 7 describes: the
*host* converts a sparse kernel into a configuration table plus an
Alrescha-formatted matrix (:func:`repro.core.convert.convert`) and writes
both through the program/data interfaces (:meth:`Alrescha.program`); the
accelerator then executes the table — streaming locally-dense blocks
from memory through the FCU while the RCU supplies vector operands,
handles data dependencies, and reconfigures between data paths.

Execution is *functional + timed*: every run produces the exact kernel
result (validated against the golden kernels in :mod:`repro.kernels`)
together with a :class:`~repro.core.report.SimReport` of cycles, event
counts, energy and bandwidth utilization.

Timing model
------------
Per pass, two resources are tracked:

* **stream cycles** — payload blocks plus cache-refill and write-back
  traffic through the 288 GB/s channel;
* **compute cycles** — the engine side: streaming data paths consume
  ω² operands through the ALU row per block, while D-SymGS serialises ω
  forwarding steps per diagonal block.

The FIFOs in front of the FCU let memory run ahead of compute, so for
kernels made of independent data paths the pass costs
``max(stream, compute)``.  SymGS is different: the D-SymGS of block-row
*i* must wait for the row's GEMV partials, and later rows' GEMVs read the
chunk it produces, so the pass costs the *sum over block rows* of
``max(row stream, row GEMV compute) + row D-SymGS compute``.  Data-path
switches add their pipeline fill, and reconfiguration adds only what the
tree drain cannot hide (§4.4).

Execution paths
---------------
Each ``Alrescha.run_*`` method checks its operands and makes one
dispatch (``Alrescha._run``): the pass's compiled plan
(:mod:`repro.core.plan`) by default, or the per-block interpreter
(:mod:`repro.core.interpreter`) with ``config.use_plan`` off or after
cross-check failures degraded the plans.  Batched runs take the same
route with ``(n, k)`` operand panels; a solo run is the width-1 case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigError, SimulationError
from repro.core.config import (
    ConfigTable,
    DataPathType,
    KernelType,
    OperandPort,
)
from repro.core import interpreter
from repro.core.convert import ConversionResult, convert
from repro.core.datapaths import DEFAULT_DSYMGS_STEP_LATENCY, DataPathTiming
from repro.core.fcu import DEFAULT_N_ALUS, FixedComputeUnit
from repro.core.plan import (
    KERNEL_PLAN_KINDS,
    CompiledStreamingPass,
    CompiledSymgsPass,
    compile_pass,
)
from repro.core.report import SimReport
from repro.observe.tracer import Tracer
from repro.core.rcu import RCUConfig, ReconfigurableComputeUnit
from repro.sim.cache import LocalCache
from repro.sim.energy import EnergyModel
from repro.sim.faults import FaultModel, payload_checksum
from repro.sim.memory import DEFAULT_CAPACITY_BYTES, StreamingMemory


@dataclass
class AlreschaConfig:
    """Hardware configuration (defaults from Table 5 of the paper)."""

    omega: int = 8
    n_alus: int = DEFAULT_N_ALUS
    frequency_hz: float = 2.5e9
    bandwidth_bytes_per_s: float = 288e9
    cache_bytes: int = 1024
    cache_line_bytes: int = 64
    cache_ways: int = 4
    cache_hit_latency: int = 4
    cache_miss_latency: int = 24
    alu_latency: int = 3
    re_sum_latency: int = 3
    re_min_latency: int = 1
    dsymgs_step_latency: int = DEFAULT_DSYMGS_STEP_LATENCY
    reconfig_cycles: int = 8
    hide_reconfig_under_drain: bool = True
    #: Stored element width in bytes: 8 (Table 5's double precision) or
    #: 4 for an fp32-traffic study.  Functional results stay fp64.
    element_bytes: int = 8
    #: Execute passes through compiled plans (:mod:`repro.core.plan`):
    #: bit-identical results and reports, batched numpy instead of the
    #: per-block interpreter.  False runs every pass on the interpreter
    #: (:mod:`repro.core.interpreter`, the equivalence oracle).
    use_plan: bool = True
    #: Modelled DRAM capacity; :meth:`Alrescha.program` rejects device
    #: images whose resident set exceeds it (the model never pages).
    memory_capacity_bytes: int = DEFAULT_CAPACITY_BYTES
    #: Seeded stream-fault injector (:mod:`repro.sim.faults`).  None (the
    #: default) keeps every run on the exact pre-resilience code path.
    fault_model: Optional[FaultModel] = None
    #: Verify each streamed payload block against the CRC recorded at
    #: ``program()`` time.  Only consulted when a fault model is
    #: attached; the check itself costs no cycles (inline hardware CRC).
    verify_checksums: bool = True
    #: Raise :class:`~repro.errors.CorruptionError` when an FCU sum
    #: reduction emits NaN/Inf.  Off by default: poisoned inputs must
    #: stay *visible* in the output unless the user opts into guarding.
    guard_nonfinite: bool = False
    #: Fraction of block rows whose compiled-plan output is spot-checked
    #: against an independent recompute per pass (0 disables).  Only
    #: the streaming plans (SpMV, batched SpMV, D-BFS, D-SSSP, D-PR)
    #: are checked; the SymGS and parent-tracking D-BFS plans are not.
    crosscheck_rows: float = 0.0
    crosscheck_seed: int = 1
    #: Cross-check mismatches tolerated before the accelerator degrades
    #: plans to the interpreter with checksums forced on.
    crosscheck_threshold: int = 1
    #: Optional :class:`~repro.observe.tracer.Tracer` recording
    #: cycle-attributed spans of every pass (engine windows, drains,
    #: reconfigs, channel streams).  None — the default — is the
    #: untraced path: outputs and reports stay bit-identical and each
    #: instrumentation site costs one ``is None`` branch.
    tracer: Optional[Tracer] = None
    #: Optional :class:`~repro.store.ArtifactStore` resolving the
    #: programming phase — conversion, device image, and report/span
    #: templates — through a content-addressed cache.  None (the
    #: default) keeps every output bit-identical to the storeless path:
    #: a *hit* returns artifacts verified byte-identical to a fresh
    #: compile, and a miss compiles exactly as before.
    artifact_store: Optional[object] = None
    energy_model: EnergyModel = field(default_factory=EnergyModel)

    @property
    def bytes_per_cycle(self) -> float:
        return self.bandwidth_bytes_per_s / self.frequency_hz

    def timing(self) -> DataPathTiming:
        return DataPathTiming(
            omega=self.omega,
            n_alus=self.n_alus,
            mem_bytes_per_cycle=self.bytes_per_cycle,
            alu_latency=self.alu_latency,
            re_sum_latency=self.re_sum_latency,
            re_min_latency=self.re_min_latency,
            dsymgs_step_latency=self.dsymgs_step_latency,
            element_bytes=self.element_bytes,
        )

    def make_fcu(self) -> FixedComputeUnit:
        return FixedComputeUnit(
            omega=self.omega,
            n_alus=self.n_alus,
            alu_latency=self.alu_latency,
            re_sum_latency=self.re_sum_latency,
            re_min_latency=self.re_min_latency,
            guard_nonfinite=self.guard_nonfinite,
        )

    def make_rcu(self) -> ReconfigurableComputeUnit:
        cache = LocalCache(
            size_bytes=self.cache_bytes,
            line_bytes=self.cache_line_bytes,
            ways=self.cache_ways,
            hit_latency=self.cache_hit_latency,
            miss_latency=self.cache_miss_latency,
        )
        rcu_cfg = RCUConfig(
            reconfig_cycles=self.reconfig_cycles,
            hide_under_drain=self.hide_reconfig_under_drain,
        )
        return ReconfigurableComputeUnit(config=rcu_cfg, cache=cache)

    def make_memory(self) -> StreamingMemory:
        return StreamingMemory(
            bandwidth_bytes_per_s=self.bandwidth_bytes_per_s,
            frequency_hz=self.frequency_hz,
            burst_bytes=self.cache_line_bytes,
            capacity_bytes=self.memory_capacity_bytes,
            fault_model=self.fault_model,
        )


@dataclass
class _Op:
    """A prepared table entry: the config row plus its resolved block."""

    dp: DataPathType
    block_row: int
    block_col: int
    inx_in: int
    inx_out: int
    port: OperandPort
    values: np.ndarray
    reversed_cols: bool
    is_diagonal: bool
    #: CRC32 of the block payload, recorded at ``program()`` time; the
    #: streamed copy is verified against it when faults are injected.
    checksum: int = 0


@dataclass
class _RowGroup:
    """All ops of one block row, GEMV-class first then the diagonal."""

    block_row: int
    streaming: List[_Op] = field(default_factory=list)
    diagonal: Optional[_Op] = None


class Alrescha:
    """The accelerator.  Program once, run kernels repeatedly."""

    def __init__(self, config: Optional[AlreschaConfig] = None) -> None:
        self.config = config or AlreschaConfig()
        self._conversion: Optional[ConversionResult] = None
        self._rows: List[_RowGroup] = []
        self._table_order_switches: int = 0
        #: Compiled pass plans, keyed by pass kind; built lazily on the
        #: first run of each kind and invalidated by :meth:`program`.
        self._plans: Dict[str, object] = {}
        #: Set while a plan captures its report template by replaying the
        #: interpreter: the capture must see the clean channel or
        #: the template (and plan verification) would absorb faults.
        self._suppress_faults: bool = False
        #: Cross-check mismatches seen so far; at
        #: ``crosscheck_threshold`` the accelerator degrades plans to
        #: the interpreter with checksums forced on.
        self._crosscheck_failures: int = 0
        self._plan_degraded: bool = False
        self._force_verify: bool = False
        #: Set while a plan captures its *span template*: the capture
        #: tracer shadows ``config.tracer`` so template spans never leak
        #: into the user's trace (mirrors ``_suppress_faults``).
        self._capture_tracer: Optional[Tracer] = None
        #: Content key of the programmed conversion when it was resolved
        #: through ``config.artifact_store`` (None otherwise); the plan
        #: layer uses it to load/persist captured templates.
        self._store_key: Optional[str] = None

    @property
    def tracer(self) -> Optional[Tracer]:
        """The tracer runs record into: the plan-capture tracer while a
        template is being captured, else the configured one (if any)."""
        if self._capture_tracer is not None:
            return self._capture_tracer
        return self.config.tracer

    # ------------------------------------------------------------------
    # Programming (host side, one-time per matrix+kernel)
    # ------------------------------------------------------------------
    @classmethod
    def from_matrix(cls, kernel: KernelType, matrix,
                    config: Optional[AlreschaConfig] = None,
                    reorder: bool = True,
                    source: Optional[Dict[str, object]] = None
                    ) -> "Alrescha":
        """Convert, program and return a ready accelerator.

        With ``config.artifact_store`` attached, the conversion is
        resolved through the store (memory LRU, then the verified disk
        artifact, then a cold compile that is persisted); ``source``
        metadata (e.g. ``{"dataset": ..., "scale": ...}``) is recorded
        so ``repro cache verify`` can recompile-and-diff later.
        """
        acc = cls(config)
        store = acc.config.artifact_store
        key: Optional[str] = None
        if store is not None:
            conv, key = store.conversion(
                kernel, matrix, acc.config, reorder=reorder,
                source=source)
        else:
            conv = convert(kernel, matrix, omega=acc.config.omega,
                           reorder=reorder)
        acc.program(conv)
        acc._store_key = key
        return acc

    def program(self, conversion: ConversionResult) -> None:
        """Write the configuration table and formatted matrix."""
        if conversion.omega != self.config.omega:
            raise ConfigError(
                f"conversion blocked at omega={conversion.omega}, "
                f"hardware configured for {self.config.omega}"
            )
        resident = float(conversion.matrix.payload_bytes)
        if conversion.matrix.symgs_layout:
            resident += conversion.matrix.shape[0] * 8.0
        self.config.make_memory().check_capacity(resident)
        self._conversion = conversion
        block_map = {
            (b.block_row, b.block_col): b for b in conversion.matrix.stream()
        }
        rows: Dict[int, _RowGroup] = {}
        order: List[int] = []
        for entry in conversion.table:
            key = (entry.block_row, entry.block_col)
            sb = block_map.get(key)
            if sb is None:
                raise ConfigError(
                    f"table references block {key} absent from the stream"
                )
            op = _Op(
                dp=entry.dp,
                block_row=entry.block_row,
                block_col=entry.block_col,
                inx_in=entry.inx_in,
                inx_out=entry.inx_out,
                port=entry.op,
                values=sb.values,
                reversed_cols=sb.reversed_cols,
                is_diagonal=sb.is_diagonal,
                checksum=payload_checksum(sb.values),
            )
            group = rows.get(entry.block_row)
            if group is None:
                group = _RowGroup(entry.block_row)
                rows[entry.block_row] = group
                order.append(entry.block_row)
            if op.dp is DataPathType.D_SYMGS:
                group.diagonal = op
            else:
                group.streaming.append(op)
        self._rows = [rows[i] for i in order]
        self._table_order_switches = conversion.table.switch_count()
        self._plans.clear()
        self._crosscheck_failures = 0
        self._plan_degraded = False
        self._force_verify = False
        # A manual reprogram severs the link to any stored artifact; the
        # store path (from_matrix) re-establishes it after programming.
        self._store_key = None
        self._validate_symgs_diagonal()

    def _validate_symgs_diagonal(self) -> None:
        """Reject zero/non-finite pivots the D-SymGS PE would divide by.

        Checked at program time (the host knows the full diagonal here)
        rather than mid-sweep, and only for rows an actual D-SymGS entry
        covers — rows of an entirely empty block row pass through the
        sweep untouched, so a missing pivot there is the caller's
        business (the system is singular either way).
        """
        conversion = self._conversion
        diag = conversion.matrix.diagonal
        if conversion.kernel is not KernelType.SYMGS or diag is None:
            return
        n, w = conversion.matrix.shape[0], self.config.omega
        for group in self._rows:
            if group.diagonal is None:
                continue
            start = group.block_row * w
            valid = max(0, min(w, n - start))
            d = diag[start:start + valid]
            bad = ~np.isfinite(d) | (d == 0.0)
            if bad.any():
                r = int(np.argmax(bad))
                raise ConfigError(
                    f"SymGS needs a nonzero finite main diagonal; "
                    f"row {start + r} has {d[r]!r}"
                )

    # ------------------------------------------------------------------
    # Compiled pass plans
    # ------------------------------------------------------------------
    def _plan(self, kind: str):
        plan = self._plans.get(kind)
        if plan is None:
            plan = compile_pass(self, kind)
            self._plans[kind] = plan
        return plan

    def compile_plans(self) -> None:
        """Eagerly compile the pass plans of the programmed kernel.

        Plans otherwise compile lazily on first run; callers that know
        they will iterate (solvers, graph drivers) can pay the one-off
        compile cost up front.
        """
        for kind in KERNEL_PLAN_KINDS.get(self.conversion.kernel, ()):
            self._plan(kind)

    @property
    def plan_degraded(self) -> bool:
        """True once cross-check failures forced plans off for good."""
        return self._plan_degraded

    def _run(self, kind: str, plan_method: Callable, *operands,
             k: Optional[int] = None):
        """Run pass ``kind`` once — the single plan/interpreter dispatch.

        ``plan_method(plan, *operands)`` runs the compiled plan;
        :func:`repro.core.interpreter.run` runs the same pass on the
        per-block interpreter, which serves ``config.use_plan=False``
        and plans degraded by cross-check failures.  When a plan's
        sampled cross-check reports a mismatch, the plan output is
        *discarded* — never returned — and the pass reruns on the
        interpreter with checksum verification forced on, charged for
        the wasted plan cycles.  Mismatches accumulate; at
        ``crosscheck_threshold`` the accelerator stops trusting plans
        for the rest of the program.  On a clean run the plan result
        passes through untouched.
        """
        if not self.config.use_plan or self._plan_degraded:
            return interpreter.run(self, kind, operands, k)
        result = plan_method(self._plan(kind), *operands)
        report = result[-1]
        mismatches = report.counters.get("crosscheck_mismatches")
        if not mismatches:
            return result
        self._crosscheck_failures += int(mismatches)
        if self._crosscheck_failures >= self.config.crosscheck_threshold:
            self._plan_degraded = True
        self._force_verify = True
        try:
            rerun = interpreter.run(self, kind, operands, k)
        finally:
            self._force_verify = self._plan_degraded
        rerun_report = rerun[-1]
        rerun_report.cycles += report.cycles
        rerun_report.counters.add("plan_fallbacks", 1.0)
        rerun_report.counters.add("crosscheck_wasted_cycles", report.cycles)
        # Fold the discarded plan run's fault accounting into the rerun
        # so the pass's counters still reconcile with the injection log.
        for key in ("faults_injected", "faults_detected",
                    "faults_corrected", "faults_silent", "retry_cycles",
                    "fault_latency_cycles", "fault_restreams",
                    "crosscheck_mismatches", "crosscheck_rows"):
            value = report.counters.get(key)
            if value:
                rerun_report.counters.add(key, value)
        return rerun

    @property
    def conversion(self) -> ConversionResult:
        if self._conversion is None:
            raise SimulationError("accelerator has not been programmed")
        return self._conversion

    @property
    def table(self) -> ConfigTable:
        return self.conversion.table

    @property
    def n(self) -> int:
        return self.conversion.matrix.shape[0]

    # ------------------------------------------------------------------
    # Kernel runners
    # ------------------------------------------------------------------
    def run_spmv(self, x: np.ndarray) -> Tuple[np.ndarray, SimReport]:
        """SpMV over the programmed matrix: ``y = A @ x``."""
        self._require_kernel(KernelType.SPMV)
        return self._run("spmv", CompiledStreamingPass.run_spmv,
                         self._vector("x", x))

    def run_spmv_batch(self, x: np.ndarray) -> Tuple[np.ndarray, SimReport]:
        """Multi-vector SpMV (``Y = A @ X`` for an ``(n, k)`` panel).

        The programmed payload streams from memory *once* and each
        block is applied to all ``k`` operand columns while resident —
        the data reuse the paper's storage format exists to enable,
        extended from one vector to a panel.  The stream cost is one
        SpMV's (``dram_requests`` does not grow with ``k``); compute,
        cache traffic and the fp64 write-back scale with ``k``, so
        throughput per column improves until the ALU row saturates.
        Column ``j`` of the result is bit-identical to
        ``run_spmv(x[:, j])`` served alone, which is what lets the
        serving runtime fuse jobs without changing their answers.  A
        1-D operand is treated as one column; the report's kernel is
        ``"spmm"``.
        """
        self._require_kernel(KernelType.SPMV)
        (x,) = self._panels(x=x)
        return self._run("spmv", CompiledStreamingPass.run_spmv_batch, x,
                         k=x.shape[1])

    def run_sptrsv(self, b: np.ndarray) -> Tuple[np.ndarray, SimReport]:
        """Sparse lower-triangular solve ``(L + D) x = b``.

        A forward Gauss-Seidel sweep from a zero initial iterate *is*
        SpTRSV on the matrix's lower triangle — the accelerator gets the
        standard kernel for free from its D-SymGS path.  (Upper-triangle
        entries of the programmed matrix are multiplied by the zero
        iterate and vanish.)
        """
        self._require_kernel(KernelType.SYMGS)
        b = np.asarray(b, dtype=np.float64)
        x, report = self.run_symgs_sweep(b, np.zeros(self.n))
        report.kernel = "sptrsv"
        return x, report

    def run_bfs_pass(self, dist: np.ndarray) -> Tuple[np.ndarray, SimReport]:
        """One synchronous D-BFS relaxation pass over all blocks.

        ``dist`` holds current level distances (inf = unreached); the
        returned vector applies ``min(dist, min-plus candidates)``.
        """
        self._require_kernel(KernelType.BFS)
        return self._run("bfs", CompiledStreamingPass.run_minplus,
                         self._vector("dist", dist))

    def run_bfs_pass_parents(
        self, dist: np.ndarray, parent: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, SimReport]:
        """One D-BFS pass that also tracks predecessors (Graph500 style).

        The min tree carries a lane tag beside each value, so the
        winning predecessor of every improved vertex comes out of the
        same reduction at no extra stream cost.  Returns
        ``(new_dist, new_parent, report)``.
        """
        self._require_kernel(KernelType.BFS)
        return self._run("bfs-parents", CompiledStreamingPass.run_parents,
                         self._vector("dist", dist),
                         self._vector("parent", parent, np.int64))

    def run_sssp_pass(self, dist: np.ndarray) -> Tuple[np.ndarray, SimReport]:
        """One synchronous D-SSSP relaxation pass (weighted min-plus)."""
        self._require_kernel(KernelType.SSSP)
        return self._run("sssp", CompiledStreamingPass.run_minplus,
                         self._vector("dist", dist))

    def run_pr_pass(self, rank: np.ndarray,
                    outdeg: np.ndarray) -> Tuple[np.ndarray, SimReport]:
        """One D-PR pass: per-vertex sum of ``rank/outdeg`` over in-edges.

        Returns the raw contribution vector; the driver applies the
        damping update (phase 3 of Table 1) and its PE cost is charged
        here (two PE ops per updated element).
        """
        self._require_kernel(KernelType.PAGERANK)
        return self._run("pagerank", CompiledStreamingPass.run_pagerank,
                         self._vector("rank", rank),
                         self._vector("outdeg", outdeg))

    def run_symgs_sweep(self, b: np.ndarray,
                        x_prev: np.ndarray) -> Tuple[np.ndarray, SimReport]:
        """One forward SymGS sweep via the GEMV + D-SymGS decomposition."""
        self._require_kernel(KernelType.SYMGS)
        return self._run("symgs", CompiledSymgsPass.run,
                         self._vector("b", b),
                         self._vector("x_prev", x_prev))

    def run_symgs_batch(self, b: np.ndarray, x_prev: np.ndarray
                        ) -> Tuple[np.ndarray, SimReport]:
        """Batched multi-RHS forward SymGS sweeps over one payload.

        ``b`` and ``x_prev`` are ``(n, k)`` panels (1-D operands are
        treated as one column); column ``j`` of the result is
        bit-identical to ``run_symgs_sweep(b[:, j], x_prev[:, j])``
        served alone.  The programmed payload — GEMV blocks and
        diagonal blocks — streams once per batch and is applied to all
        ``k`` recurrences while resident; GEMV and D-SymGS compute
        scale with ``k``.
        """
        self._require_kernel(KernelType.SYMGS)
        b, x_prev = self._panels(b=b, x_prev=x_prev)
        return self._run("symgs", CompiledSymgsPass.run_batch, b, x_prev,
                         k=b.shape[1])

    # ------------------------------------------------------------------
    # Operand checks
    # ------------------------------------------------------------------
    def _require_kernel(self, kernel: KernelType) -> None:
        if self.conversion.kernel is not kernel:
            raise SimulationError(
                f"accelerator programmed for {self.conversion.kernel}, "
                f"asked to run {kernel}"
            )

    def _vector(self, name: str, vec, dtype=np.float64) -> np.ndarray:
        """``vec`` as an ``(n,)`` array of ``dtype``, or a typed error."""
        vec = np.asarray(vec, dtype=dtype)
        if vec.shape != (self.n,):
            raise SimulationError(
                f"operand {name!r} must have shape ({self.n},), "
                f"got {vec.shape}"
            )
        return vec

    def _panels(self, **operands) -> List[np.ndarray]:
        """Equal-shaped ``(n, k>=1)`` float64 panels, 1-D as one column."""
        panels: List[np.ndarray] = []
        for name, panel in operands.items():
            panel = np.asarray(panel, dtype=np.float64)
            if panel.ndim == 1:
                panel = panel[:, None]
            if (panel.ndim != 2 or panel.shape[0] != self.n
                    or panel.shape[1] < 1
                    or (panels and panel.shape != panels[0].shape)):
                raise SimulationError(
                    f"operand {name!r} must be an equal-shaped "
                    f"({self.n}, k>=1) panel, got {panel.shape}"
                )
            panels.append(panel)
        return panels

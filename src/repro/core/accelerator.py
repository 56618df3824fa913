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

Images and bindings
-------------------
Programming produces a :class:`ProgrammedImage`: the conversion, the
per-block-row table entries, the store key and the pass plans compiled
from them.  Nothing mutates an image once :meth:`Alrescha.program` has
built it (its plan table only fills in lazily), so any number of
accelerators can share one.  An :class:`Alrescha` is a *binding* of an
image to a configuration: the fault model, tracer and cross-check
knobs, plus the cross-check and degradation state its runs accumulate.
:meth:`Alrescha.from_matrix` programs an image and binds it;
:meth:`Alrescha.bind` binds an existing one, which is how the devices
of a serving pool share one image per workload.  Reprogramming a
binding gives it a new image and leaves its siblings on the old one.

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

import operator
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


#: ``AlreschaConfig`` fields that shape programmed and compiled state —
#: the conversion's blocking, plan timing and captured report templates
#: — besides the energy model, whose constants the templates bake in.
#: Runtime knobs (fault model, tracer, plan cross-checking, checksum
#: verification, ``use_plan`` and the store attachment) are excluded:
#: templates are captured on the clean path, so configurations that
#: differ only in those share one image and one stored artifact.
COMPILE_FIELDS = (
    "omega", "n_alus", "frequency_hz", "bandwidth_bytes_per_s",
    "cache_bytes", "cache_line_bytes", "cache_ways", "cache_hit_latency",
    "cache_miss_latency", "alu_latency", "re_sum_latency",
    "re_min_latency", "dsymgs_step_latency", "reconfig_cycles",
    "hide_reconfig_under_drain", "element_bytes",
    "memory_capacity_bytes", "guard_nonfinite",
)
_compile_values = operator.attrgetter(*COMPILE_FIELDS)


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
    def compile_signature(self) -> tuple:
        """The values of :data:`COMPILE_FIELDS` and the energy model:
        configurations with equal signatures program identical images."""
        return _compile_values(self) + (self.energy_model,)

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


@dataclass(frozen=True, eq=False)
class ProgrammedImage:
    """What :meth:`Alrescha.program` writes: one matrix's programmed state.

    Immutable once built, and shared by every accelerator bound to it
    (:meth:`Alrescha.bind`).  ``plans`` is a memo, not state: the pass
    plans compile from the fields above on the first run of each kind,
    and a compiled plan serves every binding (each run takes the
    calling accelerator).
    """

    conversion: ConversionResult
    #: Table entries grouped by block row, in table order.
    rows: Tuple[_RowGroup, ...]
    #: Data-path switches of the table in its programmed order.
    table_switches: int
    #: :attr:`AlreschaConfig.compile_signature` of the configuration it
    #: was programmed under; bindings must match it.
    signature: tuple
    #: Content key of the conversion in the artifact store it was
    #: resolved through (None otherwise); the plan layer loads and
    #: persists captured templates under it.
    store_key: Optional[str] = None
    #: Compiled pass plans by pass kind, filled on first run.
    plans: Dict[str, object] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.conversion.matrix.shape[0]


def _validate_symgs_diagonal(image: ProgrammedImage) -> None:
    """Reject zero/non-finite pivots the D-SymGS PE would divide by.

    Checked at program time (the host knows the full diagonal here)
    rather than mid-sweep, and only for rows an actual D-SymGS entry
    covers — rows of an entirely empty block row pass through the
    sweep untouched, so a missing pivot there is the caller's
    business (the system is singular either way).
    """
    conversion = image.conversion
    diag = conversion.matrix.diagonal
    if conversion.kernel is not KernelType.SYMGS or diag is None:
        return
    n, w = image.n, conversion.omega
    for group in image.rows:
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


class Alrescha:
    """The accelerator.  Program once, run kernels repeatedly.

    An instance binds a :class:`ProgrammedImage` to a configuration; see
    the module docstring.
    """

    def __init__(self, config: Optional[AlreschaConfig] = None) -> None:
        self.config = config or AlreschaConfig()
        self._image: Optional[ProgrammedImage] = None
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
        acc.program(conv, store_key=key)
        return acc

    @classmethod
    def bind(cls, image: ProgrammedImage,
             config: Optional[AlreschaConfig] = None) -> "Alrescha":
        """An accelerator running the already programmed ``image``.

        Nothing is converted, programmed or compiled: the image and its
        plans are shared with every other binding.  ``config`` supplies
        the runtime knobs (fault model, tracer, cross-checking); its
        compile-relevant fields must match the ones ``image`` was
        programmed under, else :class:`~repro.errors.ConfigError`.
        """
        acc = cls(config)
        signature = acc.config.compile_signature
        if image.signature != signature:
            differ = [name for name, mine, theirs in zip(
                COMPILE_FIELDS + ("energy_model",), signature,
                image.signature) if mine != theirs]
            raise ConfigError(
                f"image was programmed under a different compile "
                f"configuration: {', '.join(differ)} differ")
        acc._attach(image)
        return acc

    def program(self, conversion: ConversionResult,
                store_key: Optional[str] = None) -> None:
        """Write the configuration table and formatted matrix.

        Builds a new :class:`ProgrammedImage` and binds this accelerator
        to it; accelerators bound to the previous image keep it.
        ``store_key`` names the artifact ``conversion`` was resolved
        from (:meth:`from_matrix` passes it); a manual reprogram leaves
        it None, severing the link to any stored templates.
        """
        if conversion.omega != self.config.omega:
            raise ConfigError(
                f"conversion blocked at omega={conversion.omega}, "
                f"hardware configured for {self.config.omega}"
            )
        resident = float(conversion.matrix.payload_bytes)
        if conversion.matrix.symgs_layout:
            resident += conversion.matrix.shape[0] * 8.0
        self.config.make_memory().check_capacity(resident)
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
        image = ProgrammedImage(
            conversion=conversion,
            rows=tuple([rows[i] for i in order]),
            table_switches=conversion.table.switch_count(),
            signature=self.config.compile_signature,
            store_key=store_key)
        _validate_symgs_diagonal(image)
        self._attach(image)

    def _attach(self, image: ProgrammedImage) -> None:
        """Bind to ``image`` with fresh cross-check state."""
        self._image = image
        self._crosscheck_failures = 0
        self._plan_degraded = False
        self._force_verify = False

    # ------------------------------------------------------------------
    # Compiled pass plans
    # ------------------------------------------------------------------
    def _plan(self, kind: str):
        plans = self.image.plans
        plan = plans.get(kind)
        if plan is None:
            plan = compile_pass(self, kind)
            plans[kind] = plan
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

        ``plan_method(plan, acc, *operands)`` runs the compiled plan for
        this accelerator;
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
        result = plan_method(self._plan(kind), self, *operands)
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
    def image(self) -> ProgrammedImage:
        """The programmed image this accelerator is bound to."""
        if self._image is None:
            raise SimulationError("accelerator has not been programmed")
        return self._image

    @property
    def conversion(self) -> ConversionResult:
        return self.image.conversion

    @property
    def table(self) -> ConfigTable:
        return self.conversion.table

    @property
    def n(self) -> int:
        return self.image.n

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

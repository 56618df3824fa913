"""Solver compute backends.

The PCG driver (Figure 2) is backend-agnostic: a backend supplies the two
dominant kernels — SpMV and the SymGS smoother/preconditioner (Figure 3)
— plus cheap vector operations.

* :class:`ReferenceBackend` runs the golden kernels with no timing.
* :class:`AcceleratorBackend` runs both kernels on programmed
  :class:`~repro.core.accelerator.Alrescha` instances and accumulates
  their :class:`~repro.core.report.SimReport`.  The backward half of the
  symmetric sweep runs on a second accelerator programmed with the
  order-reversed matrix ``P A P`` (forward Gauss-Seidel on ``P A P`` is
  exactly backward Gauss-Seidel on ``A``), reusing the same D-SymGS
  hardware path.  A backend built from a matrix programs its own
  images; :meth:`AcceleratorBackend.bind` runs on images programmed
  elsewhere (a serving pool's shared table, see :data:`PCG_PROGRAMS`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from repro.core.accelerator import Alrescha, AlreschaConfig, ProgrammedImage
from repro.core.config import KernelType
from repro.core.report import SimReport, combine
from repro.kernels import backward_sweep, forward_sweep_vectorized, spmv
from repro.kernels.spmv import to_csr


class ReferenceBackend:
    """Golden kernels; produces values only (no timing reports)."""

    name = "reference"

    def __init__(self, matrix) -> None:
        self.csr = to_csr(matrix)
        self.n = self.csr.shape[0]

    def spmv(self, x: np.ndarray) -> np.ndarray:
        return self.csr.spmv(np.asarray(x, dtype=np.float64))

    def precondition(self, r: np.ndarray) -> np.ndarray:
        """Symmetric Gauss-Seidel applied to ``M z = r`` from ``z = 0``."""
        zero = np.zeros(self.n)
        z = forward_sweep_vectorized(self.csr, r, zero)
        return backward_sweep(self.csr, r, z)

    def report(self) -> Optional[SimReport]:
        return None


def _as_csr(matrix) -> sp.csr_matrix:
    """``matrix`` (scipy sparse or dense) as a float64 CSR matrix."""
    return matrix.tocsr() if sp.issparse(matrix) else sp.csr_matrix(
        np.asarray(matrix, dtype=np.float64))


def reverse_order(matrix) -> sp.csr_matrix:
    """``P A P`` as a float64 CSR matrix, ``P`` reversing the row order:
    what the ``symgs-reversed`` program runs on, and what a stored
    artifact's ``"transform": "reverse"`` source names."""
    csr = _as_csr(matrix)
    perm = np.arange(csr.shape[0])[::-1]
    return csr[perm][:, perm].tocsr()


#: The programs a PCG solve runs on, in binding order: SpMV, the
#: forward SymGS sweep, and SymGS on the order-reversed matrix (the
#: backward sweep of the symmetric smoother).
PCG_PROGRAMS = ("spmv", "symgs", "symgs-reversed")


def program_image(program: str, matrix, config: AlreschaConfig,
                  source: Optional[dict] = None) -> ProgrammedImage:
    """Program one of :data:`PCG_PROGRAMS` for ``matrix``.

    ``"symgs-reversed"`` programs SymGS on ``P A P`` (``P`` reverses the
    row order), recording ``"transform": "reverse"`` in ``source``.
    """
    kernel = KernelType.SPMV if program == "spmv" else KernelType.SYMGS
    if program == "symgs-reversed":
        matrix = reverse_order(matrix)
        source = None if source is None else {**source,
                                              "transform": "reverse"}
    return Alrescha.from_matrix(kernel, matrix, config=config,
                                source=source).image


class AcceleratorBackend:
    """Alrescha-accelerated SpMV + SymGS with full timing/energy."""

    name = "alrescha"

    def __init__(self, matrix, config: Optional[AlreschaConfig] = None,
                 symmetric_smoother: bool = True,
                 source: Optional[dict] = None) -> None:
        csr = _as_csr(matrix)
        config = config or AlreschaConfig()
        programs = PCG_PROGRAMS if symmetric_smoother else PCG_PROGRAMS[:2]
        self._bind([program_image(p, csr, config, source)
                    for p in programs], config)

    @classmethod
    def bind(cls, images: Sequence[ProgrammedImage],
             config: Optional[AlreschaConfig] = None
             ) -> "AcceleratorBackend":
        """A backend running already programmed ``images``: SpMV and
        forward SymGS, plus the reversed SymGS of the symmetric smoother
        when given (the order of :data:`PCG_PROGRAMS`).  The images and
        their plans are shared, not copied."""
        backend = cls.__new__(cls)
        backend._bind(images, config or AlreschaConfig())
        return backend

    def _bind(self, images: Sequence[ProgrammedImage],
              config: AlreschaConfig) -> None:
        spmv, symgs, *reverse = images
        self.n = spmv.n
        self.config = config
        self.symmetric_smoother = bool(reverse)
        self._spmv_acc = Alrescha.bind(spmv, config)
        self._symgs_acc = Alrescha.bind(symgs, config)
        self._symgs_rev_acc: Optional[Alrescha] = (
            Alrescha.bind(reverse[0], config) if reverse else None)
        if config.use_plan:
            # Compile the pass plans eagerly so the one-off lowering cost
            # is paid at backend construction, not inside the solver loop.
            self._spmv_acc.compile_plans()
            self._symgs_acc.compile_plans()
            if self._symgs_rev_acc is not None:
                self._symgs_rev_acc.compile_plans()
        self._reports: List[SimReport] = []
        self._last_kernel: Optional[str] = None
        self.kernel_switches = 0

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def _note_kernel(self, kernel: str) -> None:
        """Account for switching *between kernels* (§5.3: Alrescha's
        reconfigurability enables 'fast switching not only between the
        distinct data paths of a single kernel, but also among the
        sparse kernels').

        Like a data-path switch, the kernel switch rewrites the RCU
        configuration and, by default, hides under the drain of the
        retiring kernel's reduction tree; with the hiding ablation off,
        each switch exposes the full reconfiguration latency.
        """
        if self._last_kernel is not None and self._last_kernel != kernel:
            self.kernel_switches += 1
            exposed = (0.0 if self.config.hide_reconfig_under_drain
                       else float(self.config.reconfig_cycles))
            report = SimReport(
                kernel="kernel-switch",
                cycles=exposed,
                frequency_hz=self.config.frequency_hz,
                exposed_reconfig_cycles=exposed,
                bytes_per_cycle=self.config.bytes_per_cycle,
            )
            report.counters.add("config_write", 1.0)
            report.counters.add("switch_toggle", 1.0)
            report.energy_j = self.config.energy_model.energy_j(
                report.counters, report.seconds)
            self._reports.append(report)
        self._last_kernel = kernel

    def spmv(self, x: np.ndarray) -> np.ndarray:
        self._note_kernel("spmv")
        y, report = self._spmv_acc.run_spmv(np.asarray(x, dtype=np.float64))
        self._reports.append(report)
        return y

    def precondition(self, r: np.ndarray) -> np.ndarray:
        """SymGS smoother on the accelerator: forward (+ backward) sweep
        of ``M z = r`` starting from zero."""
        self._note_kernel("symgs")
        r = np.asarray(r, dtype=np.float64)
        zero = np.zeros(self.n)
        z, rep_f = self._symgs_acc.run_symgs_sweep(r, zero)
        self._reports.append(rep_f)
        if self._symgs_rev_acc is not None:
            z_rev, rep_b = self._symgs_rev_acc.run_symgs_sweep(
                r[::-1].copy(), z[::-1].copy())
            self._reports.append(rep_b)
            z = z_rev[::-1].copy()
        return z

    def vector_op(self, n_vectors_streamed: int = 2) -> None:
        """Charge a dense vector kernel (dot/waxpby) at stream bandwidth.

        These kernels are a "tiny fraction" of PCG time (Figure 3); they
        are charged as pure streaming so the breakdown benchmark can show
        exactly that.
        """
        bytes_moved = float(self.n * 8 * n_vectors_streamed)
        cycles = bytes_moved / self.config.bytes_per_cycle
        report = SimReport(
            kernel="vector",
            cycles=cycles,
            frequency_hz=self.config.frequency_hz,
            useful_bytes=bytes_moved,
            streamed_bytes=bytes_moved,
            bytes_per_cycle=self.config.bytes_per_cycle,
        )
        report.energy_j = self.config.energy_model.energy_j(
            {"dram_bytes": bytes_moved, "alu_op": float(self.n)},
            report.seconds,
        )
        self._reports.append(report)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self) -> SimReport:
        """Combined report over every kernel executed so far."""
        return combine(self._reports, kernel="pcg")

    def kernel_breakdown(self) -> dict:
        """Cycles per kernel name — the Figure 3 quantity."""
        out: dict = {}
        for r in self._reports:
            out[r.kernel] = out.get(r.kernel, 0.0) + r.cycles
        return out

    def fault_summary(self) -> dict:
        """Resilience counters accumulated across every kernel run.

        Keys are always present (zero on clean runs) so callers can
        reconcile against a :class:`~repro.sim.faults.FaultModel` log
        without guarding for missing counters.
        """
        keys = ("faults_injected", "faults_detected", "faults_corrected",
                "faults_silent", "retry_cycles", "fault_restreams",
                "fault_latency_cycles", "crosscheck_rows",
                "crosscheck_mismatches", "plan_fallbacks",
                "crosscheck_wasted_cycles")
        out = {key: 0.0 for key in keys}
        for r in self._reports:
            for key in keys:
                out[key] += r.counters.get(key)
        return out

    def reset_reports(self) -> None:
        self._reports.clear()
        self._last_kernel = None
        self.kernel_switches = 0

"""Shared machinery for baseline platform models.

Every comparison platform in §5 (CPU, GPU, OuterSPACE, GraphR, the
Memristive accelerator) is modelled *behaviourally*: mechanistic traffic
and parallelism terms computed from the actual matrix, scaled by a small
set of named platform constants.  The paper itself did the same for its
accelerator peers ("we modeled the behavior of the preceding accelerators
based on the information provided in the published papers", §5.1), and
gave everyone "the same computation and memory-bandwidth budget".

:class:`MatrixProfile` precomputes every structural quantity a model
needs (once per matrix), so the models themselves stay small formulas.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import cached_property
from typing import Tuple

import numpy as np

from repro.errors import BaselineError
from repro.formats import BCSRMatrix, COOMatrix, CSRMatrix, ELLMatrix
from repro.baselines.coloring import (
    alrescha_sequential_fraction,
    gauss_seidel_levels,
    gpu_sequential_fraction,
)
from repro.kernels.spmv import to_csr


class MatrixProfile:
    """Structural profile of a sparse matrix, computed lazily."""

    def __init__(self, matrix, omega: int = 8) -> None:
        self.csr: CSRMatrix = to_csr(matrix)
        self.omega = omega

    @property
    def n(self) -> int:
        return self.csr.shape[0]

    @property
    def nnz(self) -> int:
        return self.csr.nnz

    @cached_property
    def coo(self) -> COOMatrix:
        return self.csr.to_coo()

    @cached_property
    def bcsr(self) -> BCSRMatrix:
        return BCSRMatrix.from_coo(self.coo, self.omega)

    @cached_property
    def block_density(self) -> float:
        """Mean fill of non-empty ω x ω blocks."""
        return self.bcsr.block_density

    @cached_property
    def ell(self) -> ELLMatrix:
        return ELLMatrix.from_coo(self.coo)

    @cached_property
    def ell_padding(self) -> float:
        return self.ell.padding_ratio

    @cached_property
    def gs_levels(self) -> np.ndarray:
        return gauss_seidel_levels(self.csr)

    @cached_property
    def gpu_seq(self) -> Tuple[float, int]:
        """(sequential fraction, level count) under GPU colouring."""
        return gpu_sequential_fraction(self.csr)

    @cached_property
    def alrescha_seq_fraction(self) -> float:
        return alrescha_sequential_fraction(self.csr, self.omega)

    @cached_property
    def column_locality(self) -> float:
        """Reuse friendliness of the vector gather in [0, 1].

        Measures how often consecutive non-zeros in a row touch nearby
        columns (within half a cache line): narrow-banded matrices score
        high; stencils with far-plane neighbours, wide bands and
        power-law graphs score low.  Drives the gather-traffic term of
        cache-based platforms.
        """
        if self.nnz < 2:
            return 1.0
        cols = self.csr.indices
        same_row = np.repeat(
            np.arange(self.n), np.diff(self.csr.indptr)
        )
        adjacent = same_row[1:] == same_row[:-1]
        if not adjacent.any():
            return 1.0
        near = np.abs(np.diff(cols)) <= 4
        return float((adjacent & near).sum() / adjacent.sum())

    @cached_property
    def row_imbalance(self) -> float:
        """Load imbalance of row lengths, >= 1.

        ``sqrt(max / mean)`` of the row non-zero counts, capped at 2.5 —
        heavy-tailed (power-law) matrices cause warp divergence and
        work-queue imbalance on SIMT platforms proportional to this.
        """
        counts = self.csr.row_nnz().astype(np.float64)
        if counts.size == 0 or counts.mean() == 0:
            return 1.0
        return float(min(2.5, max(1.0, (counts.max()
                                        / counts.mean()) ** 0.5)))

    def blocks_at(self, width: int) -> int:
        """Number of non-empty ``width x width`` blocks."""
        if width <= 0:
            raise BaselineError(f"block width must be positive, got {width}")
        n_bc = -(-self.csr.shape[1] // width)
        keys = (self.coo.rows // width) * n_bc + (self.coo.cols // width)
        return int(np.unique(keys).size) if self.nnz else 0

    def density_at(self, width: int) -> float:
        """Block density for a given blocking width."""
        blocks = self.blocks_at(width)
        if blocks == 0:
            return 0.0
        return self.nnz / float(blocks * width * width)


class PlatformModel(ABC):
    """A baseline platform's timing/energy model."""

    name: str = "abstract"

    @abstractmethod
    def spmv_seconds(self, profile: MatrixProfile) -> float:
        """Wall-clock seconds for one SpMV over the profiled matrix."""

    def symgs_sweep_seconds(self, profile: MatrixProfile) -> float:
        """One forward SymGS sweep; platforms without a SymGS story may
        not override this."""
        raise BaselineError(f"{self.name} does not model SymGS")

    def pcg_iteration_seconds(self, profile: MatrixProfile) -> float:
        """One PCG iteration = 1 SpMV + 2 SymGS sweeps + vector kernels."""
        spmv = self.spmv_seconds(profile)
        symgs = 2.0 * self.symgs_sweep_seconds(profile)
        vectors = self.vector_kernel_seconds(profile) * 6.0
        return spmv + symgs + vectors

    def vector_kernel_seconds(self, profile: MatrixProfile) -> float:
        """One dense dot/waxpby over n elements (default: negligible)."""
        return 0.0

    def graph_pass_seconds(self, profile: MatrixProfile,
                           algorithm: str) -> float:
        """One full edge pass of BFS/SSSP/PR."""
        raise BaselineError(f"{self.name} does not model graph kernels")

    def spmv_energy(self, profile: MatrixProfile) -> float:
        """Joules for one SpMV."""
        raise BaselineError(f"{self.name} does not model energy")

"""Geometric multigrid preconditioner (the full HPCG structure).

The HPCG benchmark the paper builds on [27] does not precondition with a
single SymGS sweep: it runs a small geometric multigrid V-cycle whose
*smoother* at every level is SymGS — which multiplies the importance of
accelerating the data-dependent kernel, because every level of every
V-cycle re-enters it.  This module implements that structure on top of
the accelerator backends:

* levels are rediscretisations of the 27-point operator on 2x-coarsened
  grids (HPCG's approach), built once;
* restriction is injection at even grid points, prolongation is
  piecewise-constant (HPCG's choices);
* pre-/post-smoothing and the coarsest-level solve are SymGS sweeps
  running on per-level :class:`~repro.solvers.backends.AcceleratorBackend`
  instances (or golden reference backends).

The resulting :class:`MultigridBackend` plugs straight into
:func:`repro.solvers.pcg.pcg`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.accelerator import AlreschaConfig
from repro.core.report import SimReport, combine
from repro.datasets import stencil27
from repro.errors import ConfigError, CorruptionError, FaultError
from repro.solvers.backends import AcceleratorBackend, ReferenceBackend


def _check_dims(nx: int, ny: int, nz: int, n_levels: int) -> None:
    for d in (nx, ny, nz):
        if d < 2:
            raise ConfigError(f"grid extent {d} too small for multigrid")
        if d % (1 << (n_levels - 1)) != 0:
            raise ConfigError(
                f"grid extent {d} not divisible by 2^{n_levels - 1}; "
                f"HPCG-style coarsening needs power-of-two multiples"
            )


def restrict_injection(fine: np.ndarray,
                       fine_dims: Tuple[int, int, int]) -> np.ndarray:
    """Injection restriction: sample the even-indexed fine points."""
    nx, ny, nz = fine_dims
    f = fine.reshape(nz, ny, nx)
    return f[::2, ::2, ::2].ravel().copy()


def prolong_constant(coarse: np.ndarray,
                     fine_dims: Tuple[int, int, int]) -> np.ndarray:
    """Piecewise-constant prolongation: each fine point inherits the
    value of its coarse parent cell."""
    nx, ny, nz = fine_dims
    cnx, cny, cnz = nx // 2, ny // 2, nz // 2
    c = coarse.reshape(cnz, cny, cnx)
    fine = np.repeat(np.repeat(np.repeat(c, 2, axis=0), 2, axis=1),
                     2, axis=2)
    return fine[:nz, :ny, :nx].ravel().copy()


@dataclass
class MGLevel:
    """One multigrid level: grid dims, operator and compute backend."""

    dims: Tuple[int, int, int]
    matrix: object            # scipy CSR
    backend: object           # AcceleratorBackend | ReferenceBackend

    @property
    def n(self) -> int:
        nx, ny, nz = self.dims
        return nx * ny * nz


class MultigridPreconditioner:
    """HPCG-style V-cycle with SymGS smoothing at every level."""

    def __init__(self, nx: int, ny: int, nz: int, n_levels: int = 3,
                 backend: str = "reference",
                 config: Optional[AlreschaConfig] = None,
                 coarse_sweeps: int = 4,
                 cycle_retries: int = 0) -> None:
        if n_levels < 1:
            raise ConfigError(f"need at least one level, got {n_levels}")
        _check_dims(nx, ny, nz, n_levels)
        if coarse_sweeps < 1:
            raise ConfigError("coarse_sweeps must be positive")
        if cycle_retries < 0:
            raise ConfigError("cycle_retries must be non-negative")
        self.n_levels = n_levels
        self.coarse_sweeps = coarse_sweeps
        self.cycle_retries = cycle_retries
        #: V-cycles rerun after a detected fault (diagnostic counter).
        self.cycles_retried = 0
        self.levels: List[MGLevel] = []
        dims = (nx, ny, nz)
        for _ in range(n_levels):
            matrix = stencil27(*dims)
            if backend == "alrescha":
                be = AcceleratorBackend(matrix, config=config)
            elif backend == "reference":
                be = ReferenceBackend(matrix)
            else:
                raise ConfigError(f"unknown backend {backend!r}")
            self.levels.append(MGLevel(dims, matrix, be))
            dims = (dims[0] // 2, dims[1] // 2, dims[2] // 2)

    @property
    def fine_matrix(self):
        return self.levels[0].matrix

    # ------------------------------------------------------------------
    # V-cycle
    # ------------------------------------------------------------------
    def apply(self, r: np.ndarray) -> np.ndarray:
        """One V-cycle approximating ``A^{-1} r`` (from a zero guess).

        The V-cycle is stateless given ``r``, so recovery from a
        detected transfer fault is simply a rerun: with
        ``cycle_retries > 0`` a :class:`~repro.errors.FaultError` or
        :class:`~repro.errors.CorruptionError` restarts the cycle from
        the top, up to that many times, before the error propagates.
        """
        r = np.asarray(r, dtype=np.float64)
        attempts = 0
        while True:
            try:
                return self._cycle(0, r)
            except (FaultError, CorruptionError):
                if attempts >= self.cycle_retries:
                    raise
                attempts += 1
                self.cycles_retried += 1

    def _cycle(self, level: int, r: np.ndarray) -> np.ndarray:
        lvl = self.levels[level]
        if level == self.n_levels - 1:
            # Coarsest level: a few SymGS applications of A x = r.
            x = lvl.backend.precondition(r)
            for _ in range(self.coarse_sweeps - 1):
                residual = r - lvl.backend.spmv(x)
                x = x + lvl.backend.precondition(residual)
            return x
        # Pre-smooth from zero (one symmetric SymGS application).
        x = lvl.backend.precondition(r)
        # Coarse-grid correction.
        residual = r - lvl.backend.spmv(x)
        coarse_r = restrict_injection(residual, lvl.dims)
        coarse_e = self._cycle(level + 1, coarse_r)
        x = x + prolong_constant(coarse_e, lvl.dims)
        # Post-smooth.
        residual = r - lvl.backend.spmv(x)
        x = x + lvl.backend.precondition(residual)
        return x

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self) -> Optional[SimReport]:
        reports = []
        for lvl in self.levels:
            rep = lvl.backend.report()
            if rep is not None:
                reports.append(rep)
        if not reports:
            return None
        return combine(reports, kernel="multigrid")


class MultigridBackend:
    """A PCG backend whose preconditioner is the multigrid V-cycle."""

    name = "multigrid"

    def __init__(self, nx: int, ny: int, nz: int, n_levels: int = 3,
                 backend: str = "reference",
                 config: Optional[AlreschaConfig] = None,
                 cycle_retries: int = 0) -> None:
        self.mg = MultigridPreconditioner(
            nx, ny, nz, n_levels=n_levels, backend=backend, config=config,
            cycle_retries=cycle_retries,
        )
        self._fine = self.mg.levels[0].backend
        self.n = self.mg.levels[0].n

    @property
    def matrix(self):
        return self.mg.fine_matrix

    def spmv(self, x: np.ndarray) -> np.ndarray:
        return self._fine.spmv(x)

    def precondition(self, r: np.ndarray) -> np.ndarray:
        return self.mg.apply(r)

    def report(self) -> Optional[SimReport]:
        return self.mg.report()

"""Unpreconditioned conjugate gradient.

Used to demonstrate *why* PCG carries the SymGS smoother: on
ill-conditioned PDE systems plain CG needs far more iterations, each of
which is pure SpMV — so the kernel mix (and hence the right accelerator)
depends on the solver variant.  CG is PCG with the identity
preconditioner, so the two share one loop and one recovery path.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.solvers.pcg import SolveResult, pcg


class _Unpreconditioned:
    """``backend`` with the identity preconditioner (``z = r``); every
    other attribute is the wrapped backend's."""

    def __init__(self, backend) -> None:
        self._backend = backend

    def precondition(self, r: np.ndarray) -> np.ndarray:
        return r

    def __getattr__(self, name: str):
        return getattr(self._backend, name)


def cg(backend, b: np.ndarray, tol: float = 1e-8, max_iter: int = 500,
       x0: Optional[np.ndarray] = None,
       checkpoint_interval: int = 0,
       max_restarts: int = 2,
       divergence_factor: float = 1e4,
       tracer=None) -> SolveResult:
    """Plain CG on the backend's SpMV (no preconditioner).

    Runs :func:`~repro.solvers.pcg.pcg` with the identity
    preconditioner, so every knob means what it does there:
    ``checkpoint_interval > 0`` snapshots the iterate and rolls back on
    detected corruption, up to ``max_restarts`` times; a non-finite
    residual raises :class:`~repro.errors.ConvergenceError` naming the
    iteration; ``tracer`` records ``pcg_iteration`` spans on the
    ``solver`` track; a timed backend is charged PCG's vector ops.
    """
    return pcg(_Unpreconditioned(backend), b, tol=tol, max_iter=max_iter,
               x0=x0, checkpoint_interval=checkpoint_interval,
               max_restarts=max_restarts,
               divergence_factor=divergence_factor, tracer=tracer)

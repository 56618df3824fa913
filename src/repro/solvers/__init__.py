"""Iterative solvers: PCG (Figure 2), plain CG, Jacobi smoothing."""

from repro.solvers.backends import AcceleratorBackend, ReferenceBackend
from repro.solvers.cg import cg
from repro.solvers.hpcg import HPCGResult, hpcg_flops, run_hpcg
from repro.solvers.jacobi import JacobiBackend, jacobi, jacobi_sweep
from repro.solvers.multigrid import (
    MGLevel,
    MultigridBackend,
    MultigridPreconditioner,
    prolong_constant,
    restrict_injection,
)
from repro.solvers.pcg import SolveResult, pcg

__all__ = [
    "AcceleratorBackend",
    "JacobiBackend",
    "MGLevel",
    "MultigridBackend",
    "MultigridPreconditioner",
    "prolong_constant",
    "restrict_injection",
    "ReferenceBackend",
    "SolveResult",
    "HPCGResult",
    "cg",
    "hpcg_flops",
    "run_hpcg",
    "jacobi",
    "jacobi_sweep",
    "pcg",
]

"""Dense vector kernels used by the iterative solvers.

The PCG algorithm (Figure 2 of the paper) spends almost all of its time
in SpMV and SymGS (Figure 3); the remaining kernels — dot products and
scaled vector adds ("waxpby" in HPCG terminology) — are implemented here
and charged to the solver's host/vector unit in the timing models.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError


def _pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ShapeError(f"incompatible vector shapes {x.shape} / {y.shape}")
    return x, y


def dot(x, y) -> float:
    """Inner product ``x . y``: the elementwise products, then numpy's
    pairwise sum, whose order depends only on the length — never on
    the CPU's BLAS kernel, as ``np.dot`` would."""
    x, y = _pair(x, y)
    return float(np.sum(x * y))


def waxpby(alpha: float, x, beta: float, y) -> np.ndarray:
    """``w = alpha * x + beta * y`` (HPCG's WAXPBY kernel)."""
    x, y = _pair(x, y)
    return alpha * x + beta * y


def axpy(alpha: float, x, y) -> np.ndarray:
    """``y + alpha * x`` without mutating ``y``."""
    x, y = _pair(x, y)
    return y + alpha * x


def norm2(x) -> float:
    """Euclidean norm, summed in :func:`dot`'s order."""
    x = np.asarray(x, dtype=np.float64)
    return float(np.sqrt(np.sum(x * x)))

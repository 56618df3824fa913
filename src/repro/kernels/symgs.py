"""Reference symmetric Gauss-Seidel (SymGS) smoother (Equation 2).

A forward sweep computes, row by row,

    x_j^t = (b_j - sum_{i<j} A_ji x_i^t - sum_{i>j} A_ji x_i^{t-1}) / A_jj

so each row *depends on every previously updated row* — the
data-dependency pattern of Figure 1 that motivates the whole paper.
HPCG's SymGS is a forward sweep followed by a backward sweep; both are
implemented here, row-sequentially, as the golden model.

Note on the paper's notation: Equations 2/3 are stated over columns of
``A^T``, i.e. rows of ``A``; the typeset form in the paper garbles the
division by ``A_jj`` into ``1/A_jj - (...)``.  We implement the standard
Gauss-Seidel update (Golub & Van Loan [30]), which is what the equations
denote and what the PCG smoother requires for convergence.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError, ShapeError
from repro.formats import CSRMatrix
from repro.kernels.spmv import to_csr


def _check_system(csr: CSRMatrix, b: np.ndarray,
                  x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n_rows, n_cols = csr.shape
    if n_rows != n_cols:
        raise ShapeError(f"SymGS needs a square matrix, got {csr.shape}")
    b = np.asarray(b, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if b.shape != (n_rows,) or x.shape != (n_rows,):
        raise ShapeError(
            f"vectors must have shape ({n_rows},), got {b.shape}/{x.shape}"
        )
    return b, x


def _sweep(matrix, b: np.ndarray, x: np.ndarray,
           reverse: bool) -> np.ndarray:
    """One Gauss-Seidel sweep, rows ascending or (``reverse``)
    descending."""
    csr = to_csr(matrix)
    b, x = _check_system(csr, b, x)
    out = x.copy()
    n = csr.shape[0]
    for j in (range(n - 1, -1, -1) if reverse else range(n)):
        cols, vals = csr.row(j)
        diag = 0.0
        acc = 0.0
        for c, v in zip(cols, vals):
            if c == j:
                diag = v
            else:
                acc += v * out[c]
        if diag == 0.0:
            raise ConfigError(f"zero diagonal at row {j}")
        out[j] = (b[j] - acc) / diag
    return out


def forward_sweep(matrix, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """One forward Gauss-Seidel sweep; returns the updated vector."""
    return _sweep(matrix, b, x, reverse=False)


def backward_sweep(matrix, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """One backward Gauss-Seidel sweep (rows in descending order)."""
    return _sweep(matrix, b, x, reverse=True)


def symgs(matrix, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """One symmetric sweep: forward then backward (HPCG's smoother)."""
    return backward_sweep(matrix, b, forward_sweep(matrix, b, x))


def forward_sweep_vectorized(matrix, b: np.ndarray,
                             x: np.ndarray) -> np.ndarray:
    """Forward sweep via a lower-triangular solve.

    Algebraically identical to :func:`forward_sweep` —
    ``x_new = (L + D)^{-1} (b - U x_old)`` — but computed with a
    vectorized triangular substitution over CSR arrays, used for large
    matrices where the row-loop golden model is too slow.
    """
    csr = to_csr(matrix)
    b, x = _check_system(csr, b, x)
    n = csr.shape[0]
    # rhs = b - U @ x_old
    rhs = b.copy()
    diag = np.zeros(n, dtype=np.float64)
    rows = np.repeat(np.arange(n), np.diff(csr.indptr))
    upper = csr.indices > rows
    on_diag = csr.indices == rows
    np.subtract.at(
        rhs, rows[upper], csr.data[upper] * x[csr.indices[upper]]
    )
    diag[rows[on_diag]] = csr.data[on_diag]
    if np.any(diag == 0.0):
        bad = int(np.nonzero(diag == 0.0)[0][0])
        raise ConfigError(f"zero diagonal at row {bad}")
    # Forward substitution with (L + D); sequential by construction.
    out = np.empty(n, dtype=np.float64)
    indptr, indices, data = csr.indptr, csr.indices, csr.data
    for j in range(n):
        lo, hi = int(indptr[j]), int(indptr[j + 1])
        cols = indices[lo:hi]
        vals = data[lo:hi]
        mask = cols < j
        acc = float(np.dot(vals[mask], out[cols[mask]])) if mask.any() else 0.0
        out[j] = (rhs[j] - acc) / diag[j]
    return out

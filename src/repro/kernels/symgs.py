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
    descending.

    Walks plain Python lists of the CSR arrays and vectors: each row's
    off-diagonal products are summed in CSR order from 0.0, in the same
    float arithmetic a loop over numpy scalars takes, without a numpy
    scalar per term.
    """
    csr = to_csr(matrix)
    b, x = _check_system(csr, b, x)
    indptr = csr.indptr.tolist()
    indices = csr.indices.tolist()
    data = csr.data.tolist()
    rhs = b.tolist()
    out = x.tolist()
    n = csr.shape[0]
    for j in (range(n - 1, -1, -1) if reverse else range(n)):
        diag = 0.0
        acc = 0.0
        for k in range(indptr[j], indptr[j + 1]):
            c = indices[k]
            if c == j:
                diag = data[k]
            else:
                acc += data[k] * out[c]
        if diag == 0.0:
            raise ConfigError(f"zero diagonal at row {j}")
        out[j] = (rhs[j] - acc) / diag
    return np.array(out)


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
    ``x_new = (L + D)^{-1} (b - U x_old)`` — but with the ``U x_old``
    term vectorized over the CSR arrays, used for large matrices where
    the row-loop golden model is too slow.  Each row's lower products
    are summed left to right from 0.0 in plain float arithmetic, so
    the result does not depend on the CPU's BLAS kernels.
    """
    csr = to_csr(matrix)
    b, x = _check_system(csr, b, x)
    n = csr.shape[0]
    # rhs = b - U @ x_old
    rhs = b.copy()
    diag = np.zeros(n, dtype=np.float64)
    rows = np.repeat(np.arange(n), np.diff(csr.indptr))
    upper = csr.indices > rows
    lower = csr.indices < rows
    on_diag = csr.indices == rows
    np.subtract.at(
        rhs, rows[upper], csr.data[upper] * x[csr.indices[upper]]
    )
    diag[rows[on_diag]] = csr.data[on_diag]
    if np.any(diag == 0.0):
        bad = int(np.nonzero(diag == 0.0)[0][0])
        raise ConfigError(f"zero diagonal at row {bad}")
    # Forward substitution with (L + D); sequential by construction.
    # Row j's lower entries, in CSR order, sit at bounds[j]:bounds[j + 1].
    bounds = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[lower], minlength=n), out=bounds[1:])
    bounds = bounds.tolist()
    cols = csr.indices[lower].tolist()
    vals = csr.data[lower].tolist()
    rhs, diag = rhs.tolist(), diag.tolist()
    out = [0.0] * n
    for j in range(n):
        acc = 0.0
        for k in range(bounds[j], bounds[j + 1]):
            acc += vals[k] * out[cols[k]]
        out[j] = (rhs[j] - acc) / diag[j]
    return np.array(out)

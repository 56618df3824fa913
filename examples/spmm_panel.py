#!/usr/bin/env python
"""Multi-vector SpMM: amortising the matrix stream across a panel.

Block-Krylov solvers, multiple right-hand sides and embedding lookups
all apply one sparse matrix to many vectors.  On Alrescha the matrix
payload — the dominant cost — streams from memory *once* per panel, so
energy per product collapses as the panel widens while the ALU row
bounds the cycle gain.

Run:  python examples/spmm_panel.py [dataset] [scale]
"""

import sys

import numpy as np

from repro.core import Alrescha, KernelType
from repro.datasets import load_dataset


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "stencil27"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.15
    ds = load_dataset(name, scale=scale)
    matrix = ds.matrix if ds.kind == "scientific" \
        else ds.matrix.T.tocsr()
    acc = Alrescha.from_matrix(KernelType.SPMV, matrix)
    n = matrix.shape[0]
    rng = np.random.default_rng(13)

    print(f"dataset: {ds.name} (n={n}, nnz={ds.nnz})")
    print(f"\n{'panel k':>8s}{'cycles':>12s}{'cycles/col':>12s}"
          f"{'DRAM KiB':>10s}{'uJ/col':>10s}")
    base = None
    for k in (1, 2, 4, 8, 16, 32):
        x = rng.normal(size=(n, k))
        y, report = acc.run_spmv_batch(x)
        assert np.allclose(y, matrix @ x, atol=1e-8)
        if base is None:
            base = report.energy_j
        print(f"{k:8d}{report.cycles:12.0f}{report.cycles / k:12.1f}"
              f"{report.counters.get('dram_bytes') / 1024:10.1f}"
              f"{report.energy_j * 1e6 / k:10.2f}")
    print("\nthe payload streams once per panel: energy per column "
          "collapses with k, while cycles/column saturate at the ALU "
          "row's throughput.")


if __name__ == "__main__":
    main()

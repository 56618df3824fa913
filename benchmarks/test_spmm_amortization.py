"""SpMM panel study: amortising the matrix stream across vectors.

The locally-dense format exists to maximise reuse of streamed data
(§5.3 insight ii).  Applying each resident block to a panel of k
operand vectors extends that reuse: the payload streams once while
useful work scales with k — until the ALU row saturates.  This is the
natural block-Krylov / multiple-RHS deployment of the accelerator.
"""

import numpy as np

from repro.analysis import render_table
from repro.core import Alrescha, KernelType
from repro.datasets import load_dataset

from conftest import run_once, save_and_print


def test_spmm_panel_amortization(benchmark, scale, results_dir):
    matrix = load_dataset("stencil27", scale=max(scale, 0.1)).matrix
    acc = Alrescha.from_matrix(KernelType.SPMV, matrix)
    n = matrix.shape[0]
    rng = np.random.default_rng(17)

    def measure():
        out = {}
        for k in (1, 2, 4, 8, 16):
            x = rng.normal(size=(n, k))
            y, report = acc.run_spmv_batch(x)
            assert np.allclose(y, matrix @ x, atol=1e-8)
            out[k] = report
        return out

    reports = run_once(benchmark, measure)
    rows = []
    for k, report in reports.items():
        rows.append([
            k, report.cycles, report.cycles / k,
            report.counters.get("dram_bytes") / 1024.0,
            report.energy_j * 1e6 / k,
        ])
    save_and_print(
        results_dir, "spmm_amortization",
        render_table(
            ["panel k", "cycles", "cycles/column", "DRAM KiB",
             "uJ/column"],
            rows, title="SpMM: matrix-stream amortization",
        ),
    )
    # Per-column cycle cost falls monotonically with panel width (the
    # gain is bounded: the ALU row saturates almost immediately because
    # single-vector SpMV already balances stream and compute)...
    per_col = [reports[k].cycles / k for k in (1, 2, 4, 8, 16)]
    for a, b in zip(per_col, per_col[1:]):
        assert b <= a * 1.001
    assert per_col[3] < 0.95 * per_col[0]
    # ...while the *energy* per column collapses: the dominant DRAM
    # payload is streamed once regardless of k.
    energy_col = [reports[k].energy_j / k for k in (1, 2, 4, 8, 16)]
    assert energy_col[3] < 0.5 * energy_col[0]
    assert reports[16].counters.get("dram_bytes") \
        < 4.0 * reports[1].counters.get("dram_bytes")

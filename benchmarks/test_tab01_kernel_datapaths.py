"""Table 1: sparse kernels, their phases and their dense data paths.

Asserts the implementation agrees with Table 1: every kernel lowers to
exactly the dense data paths the table lists, and the phase operations
(multiply/sum, sum/min, AND-div/sum) match the engine configuration the
data paths request.
"""

import numpy as np

from repro.analysis import TABLE1, render_table
from repro.core import DataPathType, KernelType, convert
from repro.datasets import load_dataset

from conftest import run_once, save_and_print


def _convert_all(scale):
    sci = load_dataset("stencil27", scale=scale).matrix
    adj = load_dataset("com-orkut", scale=scale).matrix.T.tocsr()
    return {
        "symgs": convert(KernelType.SYMGS, sci, omega=8),
        "spmv": convert(KernelType.SPMV, sci, omega=8),
        "bfs": convert(KernelType.BFS, adj, omega=8),
        "sssp": convert(KernelType.SSSP, adj, omega=8),
        "pagerank": convert(KernelType.PAGERANK, adj, omega=8),
    }


def test_tab1_kernel_to_datapath_mapping(benchmark, scale, results_dir):
    conversions = run_once(benchmark,
                           lambda: _convert_all(max(scale, 0.08)))
    rows = []
    for kernel, conv in conversions.items():
        emitted = sorted({e.dp.value for e in conv.table})
        expected = sorted(TABLE1[kernel]["dense_datapaths"])
        rows.append([kernel, TABLE1[kernel]["application"],
                     "/".join(emitted),
                     TABLE1[kernel]["phase1_operation"],
                     TABLE1[kernel]["phase2_reduce"]])
        assert emitted == expected, kernel
    save_and_print(
        results_dir, "tab01_kernel_datapaths",
        render_table(
            ["kernel", "application", "dense data paths",
             "phase1 op", "phase2 reduce"],
            rows, title="Table 1: kernels and dense data paths",
        ),
    )


def test_tab1_symgs_is_majority_parallel(benchmark, scale):
    sci = load_dataset("stencil27", scale=max(scale, 0.08)).matrix
    conv = run_once(benchmark,
                    lambda: convert(KernelType.SYMGS, sci, omega=8))
    gemv = sum(1 for e in conv.table if e.dp is DataPathType.GEMV)
    dsymgs = sum(1 for e in conv.table if e.dp is DataPathType.D_SYMGS)
    # "a majority of parallelizable GEMV and a minority of sequential
    # D-SymGS data paths" (§4.1).
    assert gemv > dsymgs


def test_tab1_phase_semantics_match(benchmark):
    """The reduce operation per data path matches Table 1 phase 2."""
    from repro.core.datapaths import dpr_contributions, minplus_candidates

    block = np.zeros((8, 8))
    block[0, 1] = 1.0
    block[0, 2] = 1.0
    edges = block != 0.0

    def check():
        # BFS/SSSP reduce with min.
        dist = np.array([9.0, 1.0, 2.0, 9, 9, 9, 9, 9])
        assert minplus_candidates(edges, dist)[0] == 2.0  # min(1+1, 2+1)
        assert minplus_candidates(edges, dist, block)[0] == 2.0
        # PR reduces with sum over rank/outdeg.
        rank = np.array([0.0, 0.3, 0.6, 0, 0, 0, 0, 0])
        deg = np.array([1.0, 3.0, 2.0, 1, 1, 1, 1, 1])
        out = dpr_contributions(edges, rank, deg)
        assert abs(out[0] - (0.1 + 0.3)) < 1e-12
        return True

    assert run_once(benchmark, check)

"""Tables 1 and 2 of the paper, encoded as checkable data.

Table 1 maps each sparse kernel to its three vertex-centric phases and
the dense data path Alrescha lowers it to; Table 2 is the qualitative
feature matrix against the peer accelerators.  Benchmarks assert that
the *implementation* agrees with these tables (e.g. the kernel→data-path
mapping in :mod:`repro.core.config` matches Table 1's column 3).
"""

from __future__ import annotations

from typing import Dict

from repro.core.config import DataPathType, KernelType

#: Table 1: kernel properties and the dense data paths implementing them.
TABLE1: Dict[str, Dict[str, object]] = {
    "symgs": {
        "application": "PDE solving",
        "dense_datapaths": ["d-symgs", "gemv"],
        "phase1_operation": "multiplication",
        "phase2_reduce": "sum",
        "phase3_assign": "apply with A^T and b_j, update vector",
        "operands": ["row of coefficient matrix",
                     "vector from iteration (i-1)",
                     "vector at iteration (i)"],
    },
    "spmv": {
        "application": "PDE solving and graph",
        "dense_datapaths": ["gemv"],
        "phase1_operation": "multiplication",
        "phase2_reduce": "sum",
        "phase3_assign": "sum and update the vector",
        "operands": ["row of coefficient matrix",
                     "vector from iteration (i-1)"],
    },
    "pagerank": {
        "application": "Graph",
        "dense_datapaths": ["d-pr"],
        "phase1_operation": "AND/division",
        "phase2_reduce": "sum",
        "phase3_assign": "rank vector update",
        "operands": ["column of adjacency matrix",
                     "out-degree vector", "rank vector"],
    },
    "bfs": {
        "application": "Graph",
        "dense_datapaths": ["d-bfs"],
        "phase1_operation": "sum",
        "phase2_reduce": "min",
        "phase3_assign": "compare and update distance vector",
        "operands": ["column of adjacency matrix", "frontier vector"],
    },
    "sssp": {
        "application": "Graph",
        "dense_datapaths": ["d-sssp"],
        "phase1_operation": "sum",
        "phase2_reduce": "min",
        "phase3_assign": "compare and update distance vector",
        "operands": ["column of adjacency matrix", "frontier vector"],
    },
}

#: Table 2: qualitative comparison of accelerators.
TABLE2: Dict[str, Dict[str, object]] = {
    "graphr": {
        "domain": "Graph",
        "multi_kernel": False,
        "bw_utilization": "low",
        "no_metadata_transfer": False,
        "reconfigurable": False,
        "storage_format": "4x4 COO",
        "resolves_limited_parallelism": None,
    },
    "outerspace": {
        "domain": "Graph (only SpMV)",
        "multi_kernel": False,
        "bw_utilization": "moderate",
        "no_metadata_transfer": False,
        "reconfigurable": False,  # only for cache hierarchy
        "storage_format": "CSR",
        "resolves_limited_parallelism": None,
    },
    "memristive": {
        "domain": "PDE solver",
        "multi_kernel": False,
        "bw_utilization": "low",
        "no_metadata_transfer": False,
        "reconfigurable": False,
        "storage_format": "multi-size blocks (64..512)",
        "resolves_limited_parallelism": False,
    },
    "row-reordering": {
        "domain": "PDE solver",
        "multi_kernel": False,
        "bw_utilization": "moderate",
        "no_metadata_transfer": False,
        "reconfigurable": None,
        "storage_format": "ELL",
        "resolves_limited_parallelism": True,  # instruction-level, limited
    },
    "alrescha": {
        "domain": "Graph and PDE solver",
        "multi_kernel": True,
        "bw_utilization": "high",
        "no_metadata_transfer": True,
        "reconfigurable": True,
        "storage_format": "8x8 blocking with fine-grained in-block ordering",
        "resolves_limited_parallelism": True,
    },
}

#: The kernel -> default data path mapping Table 1 implies.
KERNEL_DATAPATH_MAPPING = {
    KernelType.SPMV: DataPathType.GEMV,
    KernelType.SYMGS: DataPathType.D_SYMGS,
    KernelType.BFS: DataPathType.D_BFS,
    KernelType.SSSP: DataPathType.D_SSSP,
    KernelType.PAGERANK: DataPathType.D_PR,
}

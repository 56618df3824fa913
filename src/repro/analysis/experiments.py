"""Experiment harness: one function per paper table/figure.

Each function measures the quantities a figure plots, over the same
dataset suites the paper uses (synthetic analogues from
:mod:`repro.datasets`), and returns plain dictionaries the benchmarks
assert on and the examples print.  The Alrescha side is *simulated*
(functional + timed execution); the comparison platforms come from the
behavioural models in :mod:`repro.baselines`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.analysis.tables import arithmetic_mean, geometric_mean
from repro.baselines import (
    CPUModel,
    GPUModel,
    GraphRModel,
    MatrixProfile,
    MemristiveModel,
    OuterSPACEModel,
)
from repro.core.accelerator import Alrescha, AlreschaConfig
from repro.core.config import KernelType
from repro.datasets import load_dataset, out_degrees
from repro.graph import run_bfs, run_pagerank, run_sssp
from repro.solvers import AcceleratorBackend

#: Default dataset suites (paper Figure 14 / Table 3 analogues).
SCIENTIFIC_SUITE = [
    "stencil27", "parabolic_fem", "thermal2", "apache2", "af_shell",
    "offshore", "scircuit", "memplus", "economics", "chem_master",
]
GRAPH_SUITE = [
    "com-orkut", "hollywood-2009", "kron-g500-logn21", "roadNet-CA",
    "LiveJournal", "Youtube", "Pokec", "sx-stackoverflow",
]


def _rng(seed: int = 1234) -> np.random.Generator:
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------
# Alrescha-side measurement helpers
# ---------------------------------------------------------------------
def alrescha_pcg_iteration(matrix,
                           config: Optional[AlreschaConfig] = None):
    """Simulate one PCG iteration's kernels on the accelerator.

    Returns (seconds, report, backend) — one SpMV, one symmetric SymGS
    application and the six vector kernels of the Figure 2 loop.
    """
    backend = AcceleratorBackend(matrix, config=config)
    x = _rng().normal(size=backend.n)
    r = _rng(99).normal(size=backend.n)
    backend.spmv(x)
    backend.precondition(r)
    for _ in range(6):
        backend.vector_op()
    report = backend.report()
    return report.seconds, report, backend


def alrescha_spmv(matrix, config: Optional[AlreschaConfig] = None):
    """Simulate one SpMV; returns (seconds, report)."""
    acc = Alrescha.from_matrix(KernelType.SPMV, matrix, config=config)
    x = _rng().normal(size=acc.n)
    _y, report = acc.run_spmv(x)
    return report.seconds, report


# ---------------------------------------------------------------------
# Figure 3: PCG execution-time breakdown (SymGS + SpMV dominate)
# ---------------------------------------------------------------------
def fig3_pcg_breakdown(dataset: str = "stencil27",
                       scale: float = 0.15) -> Dict[str, Dict[str, float]]:
    """Kernel shares of one PCG iteration on the GPU baseline and on
    Alrescha.  The paper's observation: SymGS + SpMV dominate."""
    matrix = load_dataset(dataset, scale=scale).matrix
    profile = MatrixProfile(matrix)
    gpu = GPUModel()
    gpu_parts = {
        "symgs": 2.0 * gpu.symgs_sweep_seconds(profile),
        "spmv": gpu.spmv_seconds(profile),
        "vector": 6.0 * gpu.vector_kernel_seconds(profile),
    }
    gpu_total = sum(gpu_parts.values())
    _secs, _rep, backend = alrescha_pcg_iteration(matrix)
    cycles = backend.kernel_breakdown()
    alr_total = sum(cycles.values())
    return {
        "gpu": {k: v / gpu_total for k, v in gpu_parts.items()},
        "alrescha": {k: v / alr_total for k, v in cycles.items()},
    }


# ---------------------------------------------------------------------
# Figure 6: HPCG achieves a tiny fraction of peak on CPUs/GPUs
# ---------------------------------------------------------------------
def fig6_hpcg_fraction(datasets: Optional[List[str]] = None,
                       scale: float = 0.15) -> Dict[str, Dict[str, float]]:
    """Fraction-of-peak FLOPs for the PCG iteration, per platform."""
    cpu, gpu = CPUModel(), GPUModel()
    out: Dict[str, Dict[str, float]] = {"cpu": {}, "gpu": {}}
    for name in datasets or SCIENTIFIC_SUITE:
        profile = MatrixProfile(load_dataset(name, scale=scale).matrix)
        out["cpu"][name] = cpu.hpcg_fraction_of_peak(profile)
        out["gpu"][name] = gpu.hpcg_fraction_of_peak(profile)
    return out


# ---------------------------------------------------------------------
# Figure 15: PCG speedup over GPU + bandwidth utilization
# ---------------------------------------------------------------------
def fig15_pcg_speedup(datasets: Optional[List[str]] = None,
                      scale: float = 0.15,
                      config: Optional[AlreschaConfig] = None
                      ) -> Dict[str, Dict[str, float]]:
    """Per scientific dataset: Alrescha and Memristive speedups over the
    GPU PCG, plus both accelerators' bandwidth utilization."""
    gpu, mem = GPUModel(), MemristiveModel()
    speedup_alr: Dict[str, float] = {}
    speedup_mem: Dict[str, float] = {}
    bw_alr: Dict[str, float] = {}
    bw_mem: Dict[str, float] = {}
    for name in datasets or SCIENTIFIC_SUITE:
        matrix = load_dataset(name, scale=scale).matrix
        profile = MatrixProfile(matrix)
        t_gpu = gpu.pcg_iteration_seconds(profile)
        t_mem = mem.pcg_iteration_seconds(profile)
        t_alr, report, _backend = alrescha_pcg_iteration(matrix, config)
        speedup_alr[name] = t_gpu / t_alr
        speedup_mem[name] = t_gpu / t_mem
        bw_alr[name] = report.bandwidth_utilization
        bw_mem[name] = mem.bandwidth_utilization(profile)
    return {
        "alrescha_speedup": speedup_alr,
        "memristive_speedup": speedup_mem,
        "alrescha_bw_utilization": bw_alr,
        "memristive_bw_utilization": bw_mem,
        "summary": {
            "alrescha_mean": arithmetic_mean(speedup_alr.values()),
            "memristive_mean": arithmetic_mean(speedup_mem.values()),
            "alrescha_over_memristive": arithmetic_mean(
                speedup_alr[k] / speedup_mem[k] for k in speedup_alr
            ),
        },
    }


# ---------------------------------------------------------------------
# Figure 16: sequential-operation reduction
# ---------------------------------------------------------------------
def fig16_sequential_fraction(datasets: Optional[List[str]] = None,
                              scale: float = 0.15,
                              omega: int = 8
                              ) -> Dict[str, Dict[str, float]]:
    """Percentage of sequential operations: GPU row-reordering baseline
    vs Alrescha's GEMV/D-SymGS decomposition."""
    gpu_frac: Dict[str, float] = {}
    alr_frac: Dict[str, float] = {}
    for name in datasets or SCIENTIFIC_SUITE:
        matrix = load_dataset(name, scale=scale).matrix
        profile = MatrixProfile(matrix, omega=omega)
        gpu_frac[name], _levels = profile.gpu_seq
        alr_frac[name] = profile.alrescha_seq_fraction
    return {
        "gpu": gpu_frac,
        "alrescha": alr_frac,
        "summary": {
            "gpu_mean": arithmetic_mean(gpu_frac.values()),
            "alrescha_mean": arithmetic_mean(alr_frac.values()),
        },
    }


# ---------------------------------------------------------------------
# Figure 17: graph-algorithm speedups over the CPU
# ---------------------------------------------------------------------
_GRAPH_RUNNERS = {
    "bfs": lambda adj, cfg: run_bfs(adj, 0, config=cfg),
    "sssp": lambda adj, cfg: run_sssp(adj, 0, config=cfg),
    "pagerank": lambda adj, cfg: run_pagerank(adj, tol=1e-7, config=cfg),
}


def fig17_graph_speedup(datasets: Optional[List[str]] = None,
                        algorithms: Optional[List[str]] = None,
                        scale: float = 0.15,
                        config: Optional[AlreschaConfig] = None
                        ) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Speedup of GPU, GraphR and Alrescha over the CPU, per algorithm
    and dataset."""
    cpu, gpu, graphr = CPUModel(), GPUModel(), GraphRModel()
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for alg in algorithms or ["bfs", "sssp", "pagerank"]:
        rows: Dict[str, Dict[str, float]] = {
            "gpu": {}, "graphr": {}, "alrescha": {}
        }
        for name in datasets or GRAPH_SUITE:
            ds = load_dataset(name, scale=scale)
            adj = ds.matrix
            if alg == "sssp" and not ds.weighted:
                weighted = adj.copy()
                weighted.data = 1.0 + (np.arange(weighted.nnz) % 7
                                       ).astype(np.float64)
                adj_run = weighted
            else:
                adj_run = adj
            profile = MatrixProfile(adj_run.T.tocsr())
            result = _GRAPH_RUNNERS[alg](adj_run, config)
            t_alr = result.report.seconds
            passes = result.iterations
            # Work-efficient CPU/GPU: BFS/SSSP are single logical
            # traversals; PR pays one pass per iteration.
            framework_passes = passes if alg == "pagerank" else 1
            t_cpu = cpu.graph_pass_seconds(profile, alg) * framework_passes
            t_gpu = gpu.graph_pass_seconds(profile, alg) * framework_passes
            # GraphR processes blocks synchronously, like Alrescha.
            t_graphr = graphr.graph_pass_seconds(profile, alg) * passes
            rows["gpu"][name] = t_cpu / t_gpu
            rows["graphr"][name] = t_cpu / t_graphr
            rows["alrescha"][name] = t_cpu / t_alr
        rows["summary"] = {
            "gpu_mean": arithmetic_mean(rows["gpu"].values()),
            "graphr_mean": arithmetic_mean(rows["graphr"].values()),
            "alrescha_mean": arithmetic_mean(rows["alrescha"].values()),
        }
        out[alg] = rows
    return out


# ---------------------------------------------------------------------
# Figure 18: SpMV speedup over GPU + cache-access time share
# ---------------------------------------------------------------------
def fig18_spmv_speedup(scientific: Optional[List[str]] = None,
                       graph: Optional[List[str]] = None,
                       scale: float = 0.15,
                       config: Optional[AlreschaConfig] = None
                       ) -> Dict[str, Dict[str, float]]:
    """SpMV on both suites: Alrescha and OuterSPACE speedups over the
    GPU, plus cache-time fractions (the Figure 18 line series)."""
    gpu, outer = GPUModel(), OuterSPACEModel()
    speedup_alr: Dict[str, float] = {}
    speedup_os: Dict[str, float] = {}
    cache_alr: Dict[str, float] = {}
    cache_os: Dict[str, float] = {}
    kind: Dict[str, str] = {}
    sci = scientific if scientific is not None else SCIENTIFIC_SUITE
    gra = graph if graph is not None else GRAPH_SUITE
    for name in list(sci) + list(gra):
        ds = load_dataset(name, scale=scale)
        matrix = ds.matrix if ds.kind == "scientific" \
            else ds.matrix.T.tocsr()
        profile = MatrixProfile(matrix)
        t_gpu = gpu.spmv_seconds(profile)
        t_os = outer.spmv_seconds(profile)
        t_alr, report = alrescha_spmv(matrix, config)
        speedup_alr[name] = t_gpu / t_alr
        speedup_os[name] = t_gpu / t_os
        cache_alr[name] = report.cache_time_fraction
        cache_os[name] = outer.cache_time_fraction(profile)
        kind[name] = ds.kind
    sci_vals = [v for k, v in speedup_alr.items() if kind[k] == "scientific"]
    gra_vals = [v for k, v in speedup_alr.items() if kind[k] == "graph"]
    return {
        "alrescha_speedup": speedup_alr,
        "outerspace_speedup": speedup_os,
        "alrescha_cache_fraction": cache_alr,
        "outerspace_cache_fraction": cache_os,
        "summary": {
            "alrescha_scientific_mean": arithmetic_mean(sci_vals),
            "alrescha_graph_mean": arithmetic_mean(gra_vals),
            "alrescha_over_outerspace": arithmetic_mean(
                speedup_alr[k] / speedup_os[k] for k in speedup_alr
            ),
        },
    }


# ---------------------------------------------------------------------
# Figure 19: energy improvement over CPU and GPU
# ---------------------------------------------------------------------
def fig19_energy(datasets: Optional[List[str]] = None,
                 scale: float = 0.15,
                 config: Optional[AlreschaConfig] = None
                 ) -> Dict[str, Dict[str, float]]:
    """SpMV energy: Alrescha improvement factors vs CPU and GPU."""
    cpu, gpu = CPUModel(), GPUModel()
    vs_cpu: Dict[str, float] = {}
    vs_gpu: Dict[str, float] = {}
    names = datasets if datasets is not None \
        else SCIENTIFIC_SUITE + GRAPH_SUITE
    for name in names:
        ds = load_dataset(name, scale=scale)
        matrix = ds.matrix if ds.kind == "scientific" \
            else ds.matrix.T.tocsr()
        profile = MatrixProfile(matrix)
        _t, report = alrescha_spmv(matrix, config)
        e_alr = report.energy_j
        vs_cpu[name] = cpu.spmv_energy(profile) / e_alr
        vs_gpu[name] = gpu.spmv_energy(profile) / e_alr
    return {
        "vs_cpu": vs_cpu,
        "vs_gpu": vs_gpu,
        "summary": {
            "vs_cpu_mean": arithmetic_mean(vs_cpu.values()),
            "vs_gpu_mean": arithmetic_mean(vs_gpu.values()),
            "vs_cpu_gmean": geometric_mean(vs_cpu.values()),
            "vs_gpu_gmean": geometric_mean(vs_gpu.values()),
        },
    }

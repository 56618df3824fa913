"""Baseline platform models: CPU, GPU and the peer accelerators.

All models are behavioural (traffic + parallelism formulas over the real
matrix structure) with named, documented constants — the same
methodology §5.1 of the paper describes for its own comparisons.
"""

from repro.baselines.base import MatrixProfile, PlatformModel
from repro.baselines.coloring import (
    WARP_WIDTH,
    alrescha_sequential_fraction,
    gauss_seidel_levels,
    gpu_sequential_fraction,
    greedy_coloring,
    level_histogram,
)
from repro.baselines.cpu import CPUModel
from repro.baselines.gpu import GPUModel
from repro.baselines.graphr import GraphRModel
from repro.baselines.memristive import MemristiveModel
from repro.baselines.outerspace import OuterSPACEModel

__all__ = [
    "CPUModel",
    "GPUModel",
    "GraphRModel",
    "MatrixProfile",
    "MemristiveModel",
    "OuterSPACEModel",
    "PlatformModel",
    "WARP_WIDTH",
    "alrescha_sequential_fraction",
    "gauss_seidel_levels",
    "gpu_sequential_fraction",
    "greedy_coloring",
    "level_histogram",
]

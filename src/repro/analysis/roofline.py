"""Roofline analysis: why sparse kernels sit on the bandwidth roof.

The introduction's Figure 6 argument — sparse kernels reach a tiny
fraction of peak FLOPs — is a roofline statement: SpMV's arithmetic
intensity (~2 flops per 12+ streamed bytes) pins it against the memory
roof of every platform, so the *effective* bandwidth (and how much of
it a design wastes on meta-data, padding and gathers) decides
performance.  This module computes the roofline position of each
kernel on each platform model and on the simulated accelerator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.baselines.base import MatrixProfile
from repro.baselines.cpu import CPU_BANDWIDTH, CPU_PEAK_DP_FLOPS, CPUModel
from repro.baselines.gpu import GPU_BANDWIDTH, GPU_PEAK_DP_FLOPS, GPUModel
from repro.core.accelerator import Alrescha, AlreschaConfig
from repro.core.config import KernelType


@dataclass(frozen=True)
class RooflinePoint:
    """One kernel's position under a platform's roofline."""

    platform: str
    kernel: str
    arithmetic_intensity: float   # flops per DRAM byte actually moved
    attainable_gflops: float      # min(peak, AI x BW)
    achieved_gflops: float

    @property
    def efficiency(self) -> float:
        """Achieved over attainable."""
        if self.attainable_gflops <= 0:
            return 0.0
        return min(1.0, self.achieved_gflops / self.attainable_gflops)


def _point(platform: str, kernel: str, flops: float, bytes_moved: float,
           seconds: float, peak_flops: float,
           bandwidth: float) -> RooflinePoint:
    ai = flops / bytes_moved if bytes_moved > 0 else 0.0
    attainable = min(peak_flops, ai * bandwidth)
    achieved = flops / seconds if seconds > 0 else 0.0
    return RooflinePoint(platform, kernel, ai, attainable / 1e9,
                         achieved / 1e9)


def spmv_roofline(matrix,
                  config: Optional[AlreschaConfig] = None
                  ) -> Dict[str, RooflinePoint]:
    """SpMV roofline points for CPU, GPU and the simulated Alrescha."""
    profile = MatrixProfile(matrix)
    flops = 2.0 * profile.nnz
    out: Dict[str, RooflinePoint] = {}

    cpu = CPUModel()
    out["cpu"] = _point(
        "cpu", "spmv", flops, cpu.spmv_traffic_bytes(profile),
        cpu.spmv_seconds(profile), CPU_PEAK_DP_FLOPS, CPU_BANDWIDTH,
    )
    gpu = GPUModel()
    out["gpu"] = _point(
        "gpu", "spmv", flops, gpu.spmv_traffic_bytes(profile),
        gpu.spmv_seconds(profile), GPU_PEAK_DP_FLOPS, GPU_BANDWIDTH,
    )
    cfg = config or AlreschaConfig()
    acc = Alrescha.from_matrix(KernelType.SPMV, matrix, config=cfg)
    x = np.random.default_rng(5).normal(size=profile.n)
    _y, report = acc.run_spmv(x)
    # Alrescha's compute peak: the ALU row at the core clock.
    alr_peak = cfg.n_alus * cfg.frequency_hz * 2.0
    out["alrescha"] = _point(
        "alrescha", "spmv", flops, report.streamed_bytes,
        report.seconds, alr_peak, cfg.bandwidth_bytes_per_s,
    )
    return out


def roofline_summary(matrix,
                     config: Optional[AlreschaConfig] = None
                     ) -> Dict[str, Dict[str, float]]:
    """Plain-dict view of :func:`spmv_roofline` for reports/benches."""
    return {
        name: {
            "arithmetic_intensity": p.arithmetic_intensity,
            "attainable_gflops": p.attainable_gflops,
            "achieved_gflops": p.achieved_gflops,
            "efficiency": p.efficiency,
        }
        for name, p in spmv_roofline(matrix, config).items()
    }

"""The paper's primary contribution: the ALRESCHA accelerator model.

Public surface:

* :class:`~repro.core.accelerator.Alrescha` — program + run kernels.
* :class:`~repro.core.accelerator.ProgrammedImage` — the programmed
  state accelerators bind and share (:meth:`Alrescha.bind`).
* :func:`~repro.core.convert.convert` — Algorithm 1.
* :class:`~repro.core.config.ConfigTable` and friends — the programmed
  representation of a kernel.
"""

from repro.core.accelerator import Alrescha, AlreschaConfig, ProgrammedImage
from repro.core.binary import (
    decode_program,
    encode_program,
    program_size_bytes,
)
from repro.core.detailed import (
    DEFAULT_FIFO_DEPTH,
    DetailedReport,
    crosscheck_with_analytic,
    fifo_depth_sweep,
    simulate_pass,
)
from repro.core.device_image import (
    decode_image,
    encode_image,
    image_size_bytes,
)
from repro.core.switch import (
    CONFIGURATIONS,
    ConfigurableSwitch,
    SwitchConfiguration,
    switch_distance,
)
from repro.core.config import (
    NO_CACHE_WRITE,
    AccessOrder,
    ConfigEntry,
    ConfigTable,
    DataPathType,
    KernelType,
    OperandPort,
)
from repro.core.convert import ConversionResult, convert
from repro.core.datapaths import DataPathTiming
from repro.core.fcu import FixedComputeUnit
from repro.core.rcu import RCUConfig, ReconfigurableComputeUnit
from repro.core.report import SimReport, combine

__all__ = [
    "AccessOrder",
    "Alrescha",
    "AlreschaConfig",
    "ConfigEntry",
    "ConfigTable",
    "ConversionResult",
    "DataPathTiming",
    "DataPathType",
    "FixedComputeUnit",
    "KernelType",
    "NO_CACHE_WRITE",
    "OperandPort",
    "ProgrammedImage",
    "RCUConfig",
    "ReconfigurableComputeUnit",
    "SimReport",
    "combine",
    "convert",
    "DEFAULT_FIFO_DEPTH",
    "DetailedReport",
    "crosscheck_with_analytic",
    "decode_image",
    "fifo_depth_sweep",
    "simulate_pass",
    "CONFIGURATIONS",
    "ConfigurableSwitch",
    "SwitchConfiguration",
    "switch_distance",
    "decode_program",
    "encode_image",
    "image_size_bytes",
    "encode_program",
    "program_size_bytes",
]

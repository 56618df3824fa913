"""Compile sparse kernels into shippable accelerator artefacts.

``compile_kernel`` runs Algorithm 1 and serialises the result into the
two binaries of Figure 7 — the program (configuration table) and the
device memory image (stream-ordered payload).  ``load_kernel`` /
``program_accelerator`` perform the inverse: reconstruct the conversion
from bytes and program a fresh :class:`~repro.core.accelerator.Alrescha`
that produces bit-identical results to one programmed directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

from repro.core.accelerator import Alrescha, AlreschaConfig
from repro.core.binary import decode_program, encode_program
from repro.core.config import KernelType
from repro.core.convert import ConversionResult, convert
from repro.core.device_image import decode_image, encode_image
from repro.errors import ConfigError


@dataclass(frozen=True)
class CompiledKernel:
    """A serialised (program, image) pair plus identifying metadata."""

    kernel: KernelType
    n: int
    omega: int
    nnz: int
    reordered: bool
    program: bytes
    image: bytes

    @property
    def total_bytes(self) -> int:
        return len(self.program) + len(self.image)

    def save(self, prefix: str) -> Tuple[Path, Path]:
        """Write ``<prefix>.prog`` and ``<prefix>.img``; returns paths."""
        prog_path = Path(f"{prefix}.prog")
        img_path = Path(f"{prefix}.img")
        prog_path.write_bytes(self.program)
        img_path.write_bytes(self.image)
        return prog_path, img_path


def compile_kernel(kernel: KernelType, matrix, omega: int = 8,
                   reorder: bool = True) -> CompiledKernel:
    """Run Algorithm 1 and serialise the outcome."""
    conv = convert(kernel, matrix, omega=omega, reorder=reorder)
    return CompiledKernel(
        kernel=kernel,
        n=conv.table.n,
        omega=omega,
        nnz=conv.nnz,
        reordered=conv.reordered,
        program=encode_program(kernel, conv.table),
        image=encode_image(conv.matrix),
    )


def load_kernel(prefix: str) -> CompiledKernel:
    """Read ``<prefix>.prog`` + ``<prefix>.img`` back into an artefact."""
    prog_path = Path(f"{prefix}.prog")
    img_path = Path(f"{prefix}.img")
    if not prog_path.exists() or not img_path.exists():
        raise ConfigError(
            f"missing compiled artefacts {prog_path} / {img_path}"
        )
    program = prog_path.read_bytes()
    image = img_path.read_bytes()
    kernel, table = decode_program(program)
    matrix = decode_image(image)
    return CompiledKernel(
        kernel=kernel,
        n=table.n,
        omega=matrix.omega,
        nnz=matrix.nnz,
        reordered=table.reordered,
        program=program,
        image=image,
    )


def program_accelerator(compiled: CompiledKernel,
                        config: Optional[AlreschaConfig] = None
                        ) -> Alrescha:
    """Reconstruct the conversion from bytes and program a device."""
    kernel, table = decode_program(compiled.program)
    matrix = decode_image(compiled.image)
    if kernel is not compiled.kernel:
        raise ConfigError(
            f"artefact metadata ({compiled.kernel}) disagrees with the "
            f"program binary ({kernel})"
        )
    conv = ConversionResult(kernel=kernel, omega=matrix.omega,
                            table=table, matrix=matrix)
    acc = Alrescha(config or AlreschaConfig(omega=matrix.omega))
    acc.program(conv)
    return acc

"""Binary program interface (§4, Figure 7).

"The host first converts the sparse kernels into a sequence of dense
data paths and generates a *binary file*.  Then, the host writes the
binary file to a configuration table of the accelerator through the
program interface."

This module implements that binary: a small header (magic, kernel type
with the §4.1 order bit, n, ω, entry count) followed by the table rows
bit-packed at exactly the paper's ``2*ceil(log2(n/ω)) + 3`` bits per
row — two block indices plus one bit each for the data-path class, the
access order and the operand port.  Because a single kernel's table
uses at most two data-path types (GEMV plus the kernel's own path), one
*class* bit suffices; the kernel type in the header disambiguates,
exactly as the paper's one-bit ``DP`` field implies.

``Inx_out`` is not stored per row: it is either "no cache write" (GEMV
rows inside a SymGS program) or the row's block row times ω, and the
table derives it (:attr:`~repro.core.config.ConfigTable.inx_out`).
Both codecs work on the table's columns, packing and unpacking every
row at once; round-trip equality is enforced by tests.
"""

from __future__ import annotations

import struct
from typing import Tuple

import numpy as np

from repro.errors import ConfigError
from repro.core.config import (
    AccessOrder,
    ConfigTable,
    DataPathType,
    KernelType,
    OperandPort,
    column_code,
)

#: File magic: "ALR1".
MAGIC = 0x414C5231

#: Kernel-byte bit marking a table kept in natural column order (the
#: §4.1 reordering ablation); a reordered table's header carries the
#: bare kernel code.
NATURAL_ORDER = 0x80

_KERNEL_CODES = {k: i for i, k in enumerate(KernelType)}
_KERNEL_FROM_CODE = {i: k for k, i in _KERNEL_CODES.items()}

_HEADER = ">IBIHI"  # magic, kernel code, n, omega, entry count

_R2L = column_code(AccessOrder.R2L)
_PORT2 = column_code(OperandPort.PORT2)


def encode_program(kernel: KernelType, table: ConfigTable) -> bytes:
    """Serialise a configuration table into the program binary.

    Each row packs, most significant bit first: the data-path class
    bit, the block column and the block row (``width`` bits each) and
    the access-order and operand-port bits.  A block index that does
    not fit its field raises :class:`~repro.errors.ConfigError`.
    """
    if not isinstance(kernel, KernelType):
        raise ConfigError(f"invalid kernel {kernel!r}")
    kcode = _KERNEL_CODES[kernel] | (0 if table.reordered
                                     else NATURAL_ORDER)
    header = struct.pack(
        _HEADER, MAGIC, kcode, table.n, table.omega, len(table),
    )
    width = table.index_bits()
    indices = np.stack([table.block_col, table.block_row], axis=1)
    too_wide = (indices < 0) | (indices >= (1 << width))
    if too_wide.any():
        value = indices.reshape(-1)[np.argmax(too_wide.reshape(-1))]
        raise ConfigError(f"value {value} does not fit in {width} bits")
    shifts = np.arange(width - 1, -1, -1)
    bits = np.concatenate([
        table.dependent[:, None],
        (indices[:, :1] >> shifts) & 1,
        (indices[:, 1:] >> shifts) & 1,
        (table.order == _R2L)[:, None],
        (table.port == _PORT2)[:, None],
    ], axis=1).astype(np.uint8)
    return header + np.packbits(bits.reshape(-1)).tobytes()


def decode_program(data: bytes) -> Tuple[KernelType, ConfigTable]:
    """Parse a program binary back into (kernel, table)."""
    header_size = struct.calcsize(_HEADER)
    if len(data) < header_size:
        raise ConfigError("binary too short for header")
    magic, kcode, n, omega, count = struct.unpack(
        _HEADER, data[:header_size]
    )
    if magic != MAGIC:
        raise ConfigError(f"bad magic 0x{magic:08x}")
    reordered = not kcode & NATURAL_ORDER
    kcode &= ~NATURAL_ORDER
    if kcode not in _KERNEL_FROM_CODE:
        raise ConfigError(f"unknown kernel code {kcode}")
    kernel = _KERNEL_FROM_CODE[kcode]
    # The empty table checks the header's dimensions.
    width = ConfigTable(n, omega).index_bits()
    # Rows are fixed-width (2*width + 3 bits) and tightly packed, so
    # the whole table unpacks in one vectorized pass into its columns.
    row_bits = 2 * width + 3
    payload = np.frombuffer(data, dtype=np.uint8, offset=header_size)
    if payload.size * 8 < count * row_bits:
        raise ConfigError("binary truncated")
    bits = np.unpackbits(payload, count=count * row_bits).reshape(
        count, row_bits).astype(np.int64)
    place = 1 << np.arange(width - 1, -1, -1, dtype=np.int64)
    if kernel is KernelType.SYMGS:
        dp = np.where(bits[:, 0] == 1, column_code(DataPathType.D_SYMGS),
                      column_code(DataPathType.GEMV))
    else:
        dp = np.full(count, column_code(kernel.datapath))
    table = ConfigTable.from_columns(
        n, omega, dp=dp,
        block_row=bits[:, 1 + width:1 + 2 * width] @ place,
        block_col=bits[:, 1:1 + width] @ place,
        order=bits[:, 1 + 2 * width], port=bits[:, 2 + 2 * width],
        reordered=reordered)
    return kernel, table


def program_size_bytes(table: ConfigTable) -> int:
    """Size of the encoded binary, header included."""
    header = struct.calcsize(_HEADER)
    return header + -(-len(table) * table.entry_bits() // 8)

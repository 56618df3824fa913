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
rows inside a SymGS program), or recoverable from the row position —
the stream is block-row-major, so the output index advances exactly
when a dependent row (SymGS) or a new input row (other kernels) is
seen.  The decoder reconstructs it, and round-trip equality with the
original table is enforced by tests.
"""

from __future__ import annotations

import math
import struct
from typing import List, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.core.config import (
    NO_CACHE_WRITE,
    AccessOrder,
    ConfigEntry,
    ConfigTable,
    DataPathType,
    KernelType,
    OperandPort,
)

#: File magic: "ALR1".
MAGIC = 0x414C5231

#: Kernel-byte bit marking a table kept in natural column order (the
#: §4.1 reordering ablation); a reordered table's header carries the
#: bare kernel code.
NATURAL_ORDER = 0x80

_KERNEL_CODES = {k: i for i, k in enumerate(KernelType)}
_KERNEL_FROM_CODE = {i: k for k, i in _KERNEL_CODES.items()}


class BitWriter:
    """Append-only bit stream, most-significant-bit first."""

    def __init__(self) -> None:
        self._bits: List[int] = []

    def write(self, value: int, width: int) -> None:
        if width < 0:
            raise ConfigError(f"negative field width {width}")
        if value < 0 or (width < 64 and value >= (1 << width)):
            raise ConfigError(
                f"value {value} does not fit in {width} bits"
            )
        for shift in range(width - 1, -1, -1):
            self._bits.append((value >> shift) & 1)

    def to_bytes(self) -> bytes:
        out = bytearray()
        byte = 0
        for i, bit in enumerate(self._bits):
            byte = (byte << 1) | bit
            if i % 8 == 7:
                out.append(byte)
                byte = 0
        tail = len(self._bits) % 8
        if tail:
            out.append(byte << (8 - tail))
        return bytes(out)

    def __len__(self) -> int:
        return len(self._bits)


class BitReader:
    """Sequential bit reader matching :class:`BitWriter`'s layout."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def read(self, width: int) -> int:
        value = 0
        for _ in range(width):
            byte_idx, bit_idx = divmod(self._pos, 8)
            if byte_idx >= len(self._data):
                raise ConfigError("binary truncated")
            bit = (self._data[byte_idx] >> (7 - bit_idx)) & 1
            value = (value << 1) | bit
            self._pos += 1
        return value


def _index_width(table: ConfigTable) -> int:
    m = max(1, table.n_block_rows)
    return math.ceil(math.log2(m)) if m > 1 else 1


def encode_program(kernel: KernelType, table: ConfigTable) -> bytes:
    """Serialise a configuration table into the program binary."""
    if not isinstance(kernel, KernelType):
        raise ConfigError(f"invalid kernel {kernel!r}")
    kcode = _KERNEL_CODES[kernel] | (0 if table.reordered
                                     else NATURAL_ORDER)
    header = struct.pack(
        ">IBIHI", MAGIC, kcode, table.n, table.omega, len(table),
    )
    width = _index_width(table)
    writer = BitWriter()
    for entry in table:
        writer.write(1 if entry.dp.is_dependent else 0, 1)
        writer.write(entry.inx_in // table.omega, width)
        writer.write(entry.block_row, width)
        writer.write(1 if entry.order is AccessOrder.R2L else 0, 1)
        writer.write(1 if entry.op is OperandPort.PORT2 else 0, 1)
    return header + writer.to_bytes()


def decode_program(data: bytes) -> Tuple[KernelType, ConfigTable]:
    """Parse a program binary back into (kernel, table)."""
    header_size = struct.calcsize(">IBIHI")
    if len(data) < header_size:
        raise ConfigError("binary too short for header")
    magic, kcode, n, omega, count = struct.unpack(
        ">IBIHI", data[:header_size]
    )
    if magic != MAGIC:
        raise ConfigError(f"bad magic 0x{magic:08x}")
    reordered = not kcode & NATURAL_ORDER
    kcode &= ~NATURAL_ORDER
    if kcode not in _KERNEL_FROM_CODE:
        raise ConfigError(f"unknown kernel code {kcode}")
    kernel = _KERNEL_FROM_CODE[kcode]
    table = ConfigTable(n, omega, reordered=reordered)
    width = _index_width(table)
    # Rows are fixed-width (2*width + 3 bits) and tightly packed, so
    # the whole table unpacks in one vectorized pass instead of five
    # Python-level bit reads per row — this is what keeps loading a
    # stored artifact cheaper than recompiling it.
    row_bits = 2 * width + 3
    payload = np.frombuffer(data, dtype=np.uint8, offset=header_size)
    if payload.size * 8 < count * row_bits:
        raise ConfigError("binary truncated")
    bits = np.unpackbits(payload, count=count * row_bits).reshape(
        count, row_bits).astype(np.int64)
    place = 1 << np.arange(width - 1, -1, -1, dtype=np.int64)
    dependent_col = bits[:, 0] == 1
    block_cols = bits[:, 1:1 + width] @ place
    block_rows = bits[:, 1 + width:1 + 2 * width] @ place
    r2l_col = bits[:, 1 + 2 * width] == 1
    port2_col = bits[:, 2 + 2 * width] == 1
    base_dp = kernel.datapath
    for i in range(count):
        dependent = bool(dependent_col[i])
        block_col = int(block_cols[i])
        block_row = int(block_rows[i])
        r2l = bool(r2l_col[i])
        port2 = bool(port2_col[i])
        if kernel is KernelType.SYMGS:
            dp = DataPathType.D_SYMGS if dependent else DataPathType.GEMV
            inx_out = block_row * omega if dependent else NO_CACHE_WRITE
        else:
            dp = base_dp
            inx_out = block_row * omega
        table.add(ConfigEntry(
            dp=dp,
            inx_in=block_col * omega,
            inx_out=inx_out,
            order=AccessOrder.R2L if r2l else AccessOrder.L2R,
            op=OperandPort.PORT2 if port2 else OperandPort.PORT1,
            block_row=block_row,
            block_col=block_col,
        ))
    return kernel, table


def program_size_bytes(table: ConfigTable) -> int:
    """Size of the encoded binary, header included."""
    header = struct.calcsize(">IBIHI")
    per_entry = 2 * _index_width(table) + 3
    return header + -(-len(table) * per_entry // 8)

"""Device memory image: the *data interface* of Figure 7.

Alongside the program binary (:mod:`repro.core.binary`), the host writes
"the formatted data into the physical memory space of the accelerator
through the data interface".  This module defines that image: a header,
the separately stored diagonal (SymGS layouts), and the raw payload —
the blocks' values laid out in exactly the stream order, so the
accelerator's memory controller can replay it as a pure sequential
stream.

Together with the program binary, a device image makes a converted
kernel fully self-contained: (binary, image) round-trips through bytes
and reprograms an accelerator that produces bit-identical results.

Because the payload carries no runtime meta-data, a corrupted image is
indistinguishable from a valid one by inspection — so images written by
this module also record a CRC32 per payload block (plus one for the
separately stored diagonal), and :func:`decode_image` verifies them,
raising :class:`~repro.errors.CorruptionError` on mismatch.  Images
without the checksum section (the pre-resilience layout) still decode.
"""

from __future__ import annotations

import struct
import zlib
from typing import Optional

import numpy as np

from repro.errors import CorruptionError, FormatError
from repro.formats.alrescha import AlreschaMatrix
from repro.sim.faults import block_crcs

#: Image magic: "ALRD".
MAGIC = 0x414C5244

_HEADER = ">IIIHBxH"  # magic, n_rows, n_cols, omega, flags, pad, reserved
_FLAG_SYMGS = 0x1
#: The image carries per-block (and diagonal) CRC32 checksums.
_FLAG_CHECKSUMS = 0x2


#: One block-directory record: block row, block column, diagonal flag,
#: reversed flag.
_DIRECTORY = np.dtype([("row", ">u4"), ("col", ">u4"),
                       ("diag", "u1"), ("rev", "u1")])


def encode_image(matrix: AlreschaMatrix) -> bytes:
    """Serialise an Alrescha-formatted matrix to the device image."""
    n_rows, n_cols = matrix.shape
    flags = _FLAG_SYMGS if matrix.symgs_layout else 0
    flags |= _FLAG_CHECKSUMS
    header = struct.pack(_HEADER, MAGIC, n_rows, n_cols, matrix.omega,
                         flags, 0)
    # Block directory: count, then (row, col, diag-flag, reversed-flag)
    # per block.  The directory is *programming-time* data (it shadows
    # the configuration table) and is not streamed at runtime.
    directory = np.empty(matrix.n_blocks, dtype=_DIRECTORY)
    directory["row"] = matrix.block_row
    directory["col"] = matrix.block_col
    directory["diag"] = matrix.is_diagonal
    directory["rev"] = matrix.reversed_cols
    payload = np.ascontiguousarray(matrix.blocks, dtype=">f8").tobytes()
    # Checksum table: one CRC32 per payload block in stream order, plus
    # one for the diagonal in SymGS layouts.  Programming-time data,
    # like the directory — the accelerator verifies streamed payload
    # against it, the decoder verifies the image at rest.
    crcs = block_crcs(payload, matrix.omega * matrix.omega * 8)
    parts = [header, struct.pack(">I", matrix.n_blocks), directory.tobytes(),
             np.asarray(crcs, dtype=">u4").tobytes()]
    if matrix.symgs_layout:
        diag_bytes = np.ascontiguousarray(matrix.diagonal,
                                          dtype=">f8").tobytes()
        parts.append(struct.pack(">I", zlib.crc32(diag_bytes)))
        parts.append(diag_bytes)
    parts.append(payload)
    return b"".join(parts)


def decode_image(data: bytes) -> AlreschaMatrix:
    """Reconstruct the Alrescha matrix from a device image.

    Raises :class:`~repro.errors.FormatError` for structural damage
    (bad magic, truncation) and :class:`~repro.errors.CorruptionError`
    when a checksummed image's payload fails verification.  The
    payload decodes into the matrix's block stack in one read.
    """
    header_size = struct.calcsize(_HEADER)
    if len(data) < header_size:
        raise FormatError("device image too short for header")
    magic, n_rows, n_cols, omega, flags, _rsvd = struct.unpack(
        _HEADER, data[:header_size])
    if magic != MAGIC:
        raise FormatError(f"bad device-image magic 0x{magic:08x}")
    symgs = bool(flags & _FLAG_SYMGS)
    checksummed = bool(flags & _FLAG_CHECKSUMS)
    pos = header_size
    (n_blocks,) = struct.unpack(">I", data[pos:pos + 4])
    pos += 4
    need = _DIRECTORY.itemsize * n_blocks
    if pos + need > len(data):
        raise FormatError("device image truncated in block directory")
    directory = np.frombuffer(data, count=n_blocks, offset=pos,
                              dtype=_DIRECTORY)
    pos += need
    stored_crcs: Optional[np.ndarray] = None
    diag_crc: Optional[int] = None
    if checksummed:
        need = 4 * n_blocks + (4 if symgs else 0)
        if pos + need > len(data):
            raise FormatError("device image truncated in checksum table")
        stored_crcs = np.frombuffer(data, dtype=">u4", count=n_blocks,
                                    offset=pos)
        pos += 4 * n_blocks
        if symgs:
            diag_crc = struct.unpack(">I", data[pos:pos + 4])[0]
            pos += 4
    diagonal: Optional[np.ndarray] = None
    if symgs:
        need = n_rows * 8
        if pos + need > len(data):
            raise FormatError("device image truncated in diagonal")
        raw = data[pos:pos + need]
        if diag_crc is not None and zlib.crc32(raw) != diag_crc:
            raise CorruptionError(
                "device image diagonal fails its checksum")
        diagonal = np.frombuffer(raw, dtype=">f8").astype(np.float64)
        pos += need
    block_bytes = omega * omega * 8
    need = n_blocks * block_bytes
    if pos + need > len(data):
        raise FormatError("device image truncated in payload")
    payload = memoryview(data)[pos:pos + need]
    if checksummed:
        got = np.asarray(block_crcs(payload, block_bytes), dtype=np.int64)
        bad = np.flatnonzero(got != stored_crcs)
        if bad.size:
            i = int(bad[0])
            raise CorruptionError(
                f"device image payload block {i} (block row "
                f"{int(directory['row'][i])}, col "
                f"{int(directory['col'][i])}) fails its checksum"
            )
    blocks = np.frombuffer(payload, dtype=">f8").astype(np.float64)
    return AlreschaMatrix((n_rows, n_cols), omega,
                          blocks.reshape(n_blocks, omega, omega),
                          directory["row"], directory["col"],
                          directory["diag"] != 0, directory["rev"] != 0,
                          diagonal, symgs)

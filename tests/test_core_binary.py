"""Tests for the binary program interface (§4, Figure 7)."""

import numpy as np
import pytest

from repro.core import KernelType, convert
from repro.core.binary import (
    decode_program,
    encode_program,
    program_size_bytes,
)
from repro.core.config import (
    AccessOrder,
    ConfigEntry,
    ConfigTable,
    DataPathType,
    OperandPort,
)
from repro.errors import ConfigError


def _table(n, omega, rows, kernel=KernelType.SYMGS):
    """A table of ``(dp, block_row, block_col, order, port)`` rows."""
    return ConfigTable(n, omega, [
        ConfigEntry(dp, max(col, 0) * omega, 0, order, port, row, col)
        for dp, row, col, order, port in rows])


class TestBitStream:
    """The packed row fields: each index takes exactly its field width,
    most significant bit first, and the last byte is zero-padded."""

    def test_round_trip_values(self):
        # 1024 block rows: 10-bit index fields.
        table = _table(8 * 1024, 8, [
            (DataPathType.GEMV, 5, 1023, AccessOrder.L2R,
             OperandPort.PORT2),
            (DataPathType.D_SYMGS, 1023, 0, AccessOrder.R2L,
             OperandPort.PORT1)])
        assert table.index_bits() == 10
        _kernel, decoded = decode_program(
            encode_program(KernelType.SYMGS, table))
        assert list(decoded) == list(table)
        np.testing.assert_array_equal(decoded.block_row, [5, 1023])
        np.testing.assert_array_equal(decoded.block_col, [1023, 0])

    def test_value_too_wide_rejected(self):
        # 8 block rows: 3-bit index fields cannot hold 8.
        table = _table(64, 8, [(DataPathType.GEMV, 8, 0, AccessOrder.L2R,
                                OperandPort.PORT1)])
        with pytest.raises(ConfigError, match="value 8 does not fit in 3"):
            encode_program(KernelType.SPMV, table)

    def test_negative_rejected(self):
        table = _table(64, 8, [(DataPathType.GEMV, 1, -1, AccessOrder.L2R,
                                OperandPort.PORT1)])
        with pytest.raises(ConfigError, match="value -1 does not fit"):
            encode_program(KernelType.SPMV, table)

    def test_truncated_read_rejected(self):
        table = _table(64, 8, [(DataPathType.GEMV, 1, 2, AccessOrder.L2R,
                                OperandPort.PORT1)])
        blob = bytearray(encode_program(KernelType.SPMV, table))
        blob[11:15] = (16).to_bytes(4, "big")  # claim 16 rows
        with pytest.raises(ConfigError, match="truncated"):
            decode_program(bytes(blob))

    def test_partial_byte_padding(self):
        # One block row: 1-bit indices, 5-bit rows (dp, col, row, order,
        # port) in one byte, low bits zero.
        table = _table(8, 8, [(DataPathType.D_SYMGS, 0, 0, AccessOrder.R2L,
                               OperandPort.PORT2)])
        data = encode_program(KernelType.SYMGS, table)
        assert len(data) == 15 + 1
        assert data[15] == 0b10011000


class TestProgramRoundTrip:
    @pytest.mark.parametrize("kernel", [
        KernelType.SPMV, KernelType.BFS, KernelType.SSSP,
        KernelType.PAGERANK,
    ])
    def test_straightforward_kernels(self, spd_medium, kernel):
        conv = convert(kernel, spd_medium, omega=8)
        blob = encode_program(kernel, conv.table)
        k2, table2 = decode_program(blob)
        assert k2 is kernel
        assert len(table2) == len(conv.table)
        for a, b in zip(conv.table, table2):
            assert a == b

    def test_symgs_program(self, spd_medium):
        for reorder in (True, False):
            conv = convert(KernelType.SYMGS, spd_medium, omega=8,
                           reorder=reorder)
            blob = encode_program(KernelType.SYMGS, conv.table)
            kernel, table2 = decode_program(blob)
            assert kernel is KernelType.SYMGS
            assert table2.reordered is reorder
            assert len(table2) == len(conv.table)
            for a, b in zip(conv.table, table2):
                assert a == b

    def test_decoded_program_runs_identically(self, spd_medium, rng):
        """A table shipped through the binary produces bit-identical
        kernel results."""
        from repro.core import Alrescha
        from repro.core.convert import ConversionResult

        conv = convert(KernelType.SYMGS, spd_medium, omega=8)
        blob = encode_program(KernelType.SYMGS, conv.table)
        _k, table2 = decode_program(blob)
        conv2 = ConversionResult(
            kernel=conv.kernel, omega=conv.omega, table=table2,
            matrix=conv.matrix,
        )
        assert conv2.reordered is conv.reordered is True
        b = rng.normal(size=70)
        x0 = rng.normal(size=70)
        acc1 = Alrescha()
        acc1.program(conv)
        acc2 = Alrescha()
        acc2.program(conv2)
        x1, _ = acc1.run_symgs_sweep(b, x0)
        x2, _ = acc2.run_symgs_sweep(b, x0)
        np.testing.assert_array_equal(x1, x2)


class TestBinarySize:
    def test_size_matches_paper_bit_budget(self, spd_medium):
        """Payload bits per entry = 2*ceil(log2(n/omega)) + 3 exactly."""
        conv = convert(KernelType.SPMV, spd_medium, omega=8)
        blob = encode_program(KernelType.SPMV, conv.table)
        assert len(blob) == program_size_bytes(conv.table)
        header = 15  # >IBIHI
        payload_bits = (len(blob) - header) * 8
        need = len(conv.table) * conv.table.entry_bits()
        assert need <= payload_bits < need + 8

    def test_program_is_small(self, spd_medium):
        """The one-time program is tiny relative to the payload the
        format would otherwise stream as meta-data every iteration."""
        conv = convert(KernelType.SPMV, spd_medium, omega=8)
        blob = encode_program(KernelType.SPMV, conv.table)
        payload_bytes = conv.matrix.payload_bytes
        assert len(blob) < payload_bytes


class TestBinaryValidation:
    def test_bad_magic(self, spd_small):
        conv = convert(KernelType.SPMV, spd_small, omega=8)
        blob = bytearray(encode_program(KernelType.SPMV, conv.table))
        blob[0] ^= 0xFF
        with pytest.raises(ConfigError):
            decode_program(bytes(blob))

    def test_truncated_header(self):
        with pytest.raises(ConfigError):
            decode_program(b"\x41\x4c")

    def test_truncated_payload(self, spd_medium):
        conv = convert(KernelType.SPMV, spd_medium, omega=8)
        blob = encode_program(KernelType.SPMV, conv.table)
        with pytest.raises(ConfigError):
            decode_program(blob[: len(blob) // 2])

    def test_unknown_kernel_code(self, spd_small):
        conv = convert(KernelType.SPMV, spd_small, omega=8)
        blob = bytearray(encode_program(KernelType.SPMV, conv.table))
        blob[4] = 0xEE  # kernel code byte
        with pytest.raises(ConfigError):
            decode_program(bytes(blob))

    def test_invalid_kernel_rejected(self, spd_small):
        conv = convert(KernelType.SPMV, spd_small, omega=8)
        with pytest.raises(ConfigError):
            encode_program("spmv", conv.table)

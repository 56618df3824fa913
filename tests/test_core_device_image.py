"""Tests for the device memory image (the data interface of Figure 7)."""

import numpy as np
import pytest

from repro.core import KernelType, convert, decode_image, encode_image, \
    image_size_bytes
from repro.core.device_image import roundtrip_check
from repro.errors import FormatError
from repro.formats import AlreschaMatrix


class TestRoundTrip:
    def test_plain_layout(self, spd_medium):
        alr = AlreschaMatrix.from_dense(spd_medium, 8)
        decoded = decode_image(encode_image(alr))
        np.testing.assert_array_equal(decoded.to_dense(), spd_medium)
        assert decoded.omega == 8
        assert not decoded.symgs_layout

    def test_symgs_layout(self, spd_medium):
        alr = AlreschaMatrix.from_dense(spd_medium, 8, symgs_layout=True)
        decoded = decode_image(encode_image(alr))
        np.testing.assert_array_equal(decoded.to_dense(), spd_medium)
        np.testing.assert_array_equal(decoded.diagonal, alr.diagonal)
        assert decoded.symgs_layout

    def test_stream_order_preserved(self, spd_medium):
        alr = AlreschaMatrix.from_dense(spd_medium, 8, symgs_layout=True)
        decoded = decode_image(encode_image(alr))
        for a, b in zip(alr.stream(), decoded.stream()):
            assert (a.block_row, a.block_col) == (b.block_row, b.block_col)
            assert a.is_diagonal == b.is_diagonal
            assert a.reversed_cols == b.reversed_cols
            np.testing.assert_array_equal(a.values, b.values)

    def test_roundtrip_check_helper(self, spd_small):
        alr = AlreschaMatrix.from_dense(spd_small, 8, symgs_layout=True)
        exact, diff = roundtrip_check(alr)
        assert exact
        assert diff == 0.0

    def test_size_accounting(self, spd_medium):
        alr = AlreschaMatrix.from_dense(spd_medium, 8)
        blob = encode_image(alr)
        assert len(blob) == image_size_bytes(alr)


class TestExecutionFromImage:
    def test_image_backed_sweep_is_bit_identical(self, spd_medium, rng):
        """(binary, image) fully reconstructs a runnable kernel."""
        from repro.core import Alrescha
        from repro.core.binary import decode_program, encode_program
        from repro.core.convert import ConversionResult

        conv = convert(KernelType.SYMGS, spd_medium, omega=8)
        program = encode_program(KernelType.SYMGS, conv.table)
        image = encode_image(conv.matrix)

        kernel, table = decode_program(program)
        matrix = decode_image(image)
        conv2 = ConversionResult(
            kernel=kernel, omega=matrix.omega, table=table,
            matrix=matrix,
        )
        assert conv2.nnz == conv.nnz
        b = rng.normal(size=70)
        x0 = rng.normal(size=70)
        acc1 = Alrescha()
        acc1.program(conv)
        acc2 = Alrescha()
        acc2.program(conv2)
        x1, _ = acc1.run_symgs_sweep(b, x0)
        x2, _ = acc2.run_symgs_sweep(b, x0)
        np.testing.assert_array_equal(x1, x2)


class TestValidation:
    def test_bad_magic(self, spd_small):
        alr = AlreschaMatrix.from_dense(spd_small, 8)
        blob = bytearray(encode_image(alr))
        blob[0] ^= 0xFF
        with pytest.raises(FormatError):
            decode_image(bytes(blob))

    def test_truncated_header(self):
        with pytest.raises(FormatError):
            decode_image(b"\x41\x4c\x52")

    @pytest.mark.parametrize("cut", [0.3, 0.7, 0.95])
    def test_truncated_body(self, spd_medium, cut):
        alr = AlreschaMatrix.from_dense(spd_medium, 8, symgs_layout=True)
        blob = encode_image(alr)
        with pytest.raises(FormatError):
            decode_image(blob[: int(len(blob) * cut)])

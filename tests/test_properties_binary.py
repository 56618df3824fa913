"""Property-based tests for the program binary and device image."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import KernelType, convert, decode_image, decode_program, \
    encode_image, encode_program
from repro.core.config import ConfigTable, DataPathType, column_code
from repro.errors import ConfigError


@st.composite
def random_spd_matrices(draw):
    n = draw(st.integers(4, 40))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    density = draw(st.floats(0.02, 0.4))
    a = np.zeros((n, n))
    nnz = max(1, int(density * n * n))
    i = rng.integers(0, n, size=nnz)
    j = rng.integers(0, n, size=nnz)
    a[i, j] = rng.normal(size=nnz)
    a = (a + a.T) / 2
    np.fill_diagonal(a, 0.0)
    a += np.diag(np.abs(a).sum(axis=1) + 1.0)
    return a


@settings(max_examples=25, deadline=None)
@given(random_spd_matrices(),
       st.sampled_from([KernelType.SPMV, KernelType.SYMGS,
                        KernelType.BFS]))
def test_program_binary_round_trips(matrix, kernel):
    conv = convert(kernel, matrix, omega=8)
    kernel2, table2 = decode_program(encode_program(kernel, conv.table))
    assert kernel2 is kernel
    assert list(table2) == list(conv.table)


@settings(max_examples=25, deadline=None)
@given(random_spd_matrices(), st.booleans())
def test_device_image_round_trips(matrix, symgs_layout):
    from repro.formats import AlreschaMatrix
    alr = AlreschaMatrix.from_dense(matrix, 8, symgs_layout=symgs_layout)
    decoded = decode_image(encode_image(alr))
    np.testing.assert_array_equal(decoded.to_dense(), matrix)


@st.composite
def program_tables(draw):
    """A kernel and a table whose block indices take arbitrary values
    of their field width (``2**width`` block rows)."""
    kernel = draw(st.sampled_from(list(KernelType)))
    width = draw(st.integers(1, 12))
    omega = draw(st.sampled_from([2, 8, 16]))
    index = st.integers(0, 2**width - 1)
    rows = draw(st.lists(st.tuples(st.booleans(), index, index,
                                   st.booleans(), st.booleans()),
                         max_size=40))
    if kernel is KernelType.SYMGS:
        dp = [DataPathType.D_SYMGS if dep else DataPathType.GEMV
              for dep, *_ in rows]
    else:
        dp = [kernel.datapath] * len(rows)
    table = ConfigTable.from_columns(
        omega * 2**width, omega, dp=[column_code(path) for path in dp],
        block_row=[r for _d, r, _c, _o, _p in rows],
        block_col=[c for _d, _r, c, _o, _p in rows],
        order=[int(o) for *_x, o, _p in rows],
        port=[int(p) for *_x, p in rows],
        reordered=draw(st.booleans()))
    return kernel, width, table


@settings(max_examples=60, deadline=None)
@given(program_tables())
def test_bitstream_round_trips_arbitrary_fields(drawn):
    """Every field value of its width survives the program binary, and
    one past the widest value is rejected."""
    kernel, width, table = drawn
    assert table.index_bits() == width
    kernel2, table2 = decode_program(encode_program(kernel, table))
    assert kernel2 is kernel
    assert table2.reordered is table.reordered
    for name in ("dp", "block_row", "block_col", "order", "port"):
        np.testing.assert_array_equal(getattr(table2, name),
                                      getattr(table, name))
    if len(table):
        too_wide = ConfigTable.from_columns(
            table.n, table.omega, table.dp, table.block_row,
            np.where(np.arange(len(table)) == 0, 2**width, table.block_col),
            table.order, table.port)
        with pytest.raises(ConfigError, match="does not fit"):
            encode_program(kernel, too_wide)

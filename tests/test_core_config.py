"""Unit tests for the configuration table (§4.1)."""

import pytest

from repro.core import (
    AccessOrder,
    ConfigEntry,
    ConfigTable,
    DataPathType,
    KernelType,
    NO_CACHE_WRITE,
    OperandPort,
)
from repro.errors import ConfigError


def entry(dp=DataPathType.GEMV, inx_in=0, inx_out=0,
          order=AccessOrder.L2R, op=OperandPort.PORT1, row=0, col=0):
    return ConfigEntry(dp, inx_in, inx_out, order, op, row, col)


class TestKernelMapping:
    @pytest.mark.parametrize("kernel,dp", [
        (KernelType.SPMV, DataPathType.GEMV),
        (KernelType.SYMGS, DataPathType.D_SYMGS),
        (KernelType.BFS, DataPathType.D_BFS),
        (KernelType.SSSP, DataPathType.D_SSSP),
        (KernelType.PAGERANK, DataPathType.D_PR),
    ])
    def test_table1_datapath_column(self, kernel, dp):
        assert kernel.datapath is dp

    def test_only_dsymgs_is_dependent(self):
        for dp in DataPathType:
            assert dp.is_dependent == (dp is DataPathType.D_SYMGS)


class TestEntryValidation:
    def test_negative_inx_in_rejected(self):
        with pytest.raises(ConfigError):
            entry(inx_in=-1)

    def test_no_cache_write_sentinel_allowed(self):
        assert entry(inx_out=NO_CACHE_WRITE).inx_out == -1

    def test_invalid_inx_out_rejected(self):
        with pytest.raises(ConfigError):
            entry(inx_out=-2)


class TestBitBudget:
    def test_entry_bits_formula(self):
        """Each row costs 2*ceil(log2(n/omega)) + 3 bits (§4.1)."""
        table = ConfigTable(n=64, omega=8)  # 8 block rows -> 3 bits each
        assert table.entry_bits() == 2 * 3 + 3

    def test_entry_bits_paper_example(self):
        # Figure 8's example: n = 9, omega = 3 -> 3 block rows -> 2 bits.
        table = ConfigTable(n=9, omega=3)
        assert table.entry_bits() == 2 * 2 + 3

    def test_total_bits(self):
        table = ConfigTable(n=64, omega=8)
        table.add(entry())
        table.add(entry(row=1))
        assert table.total_bits() == 2 * table.entry_bits()

    def test_single_block_row(self):
        table = ConfigTable(n=8, omega=8)
        assert table.entry_bits() == 2 * 1 + 3

    def test_invalid_dimensions(self):
        with pytest.raises(ConfigError):
            ConfigTable(n=0, omega=8)
        with pytest.raises(ConfigError):
            ConfigTable(n=8, omega=0)


class TestTableAnalysis:
    def test_switch_count(self):
        table = ConfigTable(n=32, omega=8)
        table.add(entry(dp=DataPathType.GEMV))
        table.add(entry(dp=DataPathType.GEMV))
        table.add(entry(dp=DataPathType.D_SYMGS))
        table.add(entry(dp=DataPathType.GEMV))
        assert table.switch_count() == 2

    def test_no_switches_single_type(self):
        table = ConfigTable(n=32, omega=8)
        for i in range(4):
            table.add(entry(row=i))
        assert table.switch_count() == 0

    def test_dependent_fraction(self):
        table = ConfigTable(n=32, omega=8)
        table.add(entry(dp=DataPathType.GEMV))
        table.add(entry(dp=DataPathType.D_SYMGS))
        assert table.dependent_fraction() == pytest.approx(0.5)

    def test_datapath_counts(self):
        table = ConfigTable(n=32, omega=8)
        table.add(entry(dp=DataPathType.GEMV))
        table.add(entry(dp=DataPathType.GEMV))
        table.add(entry(dp=DataPathType.D_SYMGS))
        counts = table.datapath_counts()
        assert counts[DataPathType.GEMV] == 2
        assert counts[DataPathType.D_SYMGS] == 1

    def test_iteration_and_indexing(self):
        table = ConfigTable(n=32, omega=8)
        e = entry()
        table.add(e)
        assert len(table) == 1
        assert table[0] == e
        assert list(table) == [e]

    def test_empty_table_fraction(self):
        assert ConfigTable(n=8, omega=8).dependent_fraction() == 0.0

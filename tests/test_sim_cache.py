"""Unit tests for the RCU local cache model."""

import pytest

from repro.errors import SimulationError
from repro.sim import LocalCache


class TestGeometry:
    def test_table5_defaults(self):
        c = LocalCache()
        assert c.size_bytes == 1024
        assert c.line_bytes == 64
        assert c.hit_latency == 4
        assert c.elements_per_line == 8

    def test_invalid_geometry(self):
        with pytest.raises(SimulationError):
            LocalCache(size_bytes=100, line_bytes=64)
        with pytest.raises(SimulationError):
            LocalCache(size_bytes=0)
        with pytest.raises(SimulationError):
            LocalCache(ways=3)  # 16 lines not divisible into 3-way sets


class TestHitMiss:
    def test_first_access_misses(self):
        c = LocalCache()
        cost = c.read("x", 0)
        assert cost == pytest.approx(c.miss_latency)
        assert c.counters.get("cache_misses") == 1.0

    def test_second_access_hits(self):
        c = LocalCache()
        c.read("x", 0)
        cost = c.read("x", 3)  # same line (elements 0-7)
        assert cost == pytest.approx(c.hit_latency)
        assert c.counters.get("cache_hits") == 1.0

    def test_chunk_within_line_is_one_access(self):
        c = LocalCache()
        c.read("x", 0, count=8)
        assert c.counters.get("cache_reads") == 1.0

    def test_chunk_spanning_lines(self):
        c = LocalCache()
        c.read("x", 4, count=8)  # elements 4..11 touch lines 0 and 1
        assert c.counters.get("cache_reads") == 2.0

    def test_spaces_do_not_alias(self):
        c = LocalCache()
        c.read("x", 0)
        c.read("y", 0)
        assert c.counters.get("cache_misses") == 2.0


class TestEvictions:
    def test_capacity_eviction(self):
        c = LocalCache(size_bytes=128, line_bytes=64, ways=2)  # 2 lines
        c.read("x", 0)    # line 0
        c.read("x", 8)    # line 1
        c.read("x", 16)   # line 2 -> evicts
        assert c.counters.get("cache_evictions") >= 1.0

    def test_dirty_eviction_writes_back(self):
        c = LocalCache(size_bytes=128, line_bytes=64, ways=2)
        c.write("x", 0)
        c.write("x", 8)
        c.write("x", 16)
        assert c.counters.get("cache_writebacks") >= 1.0

    def test_lru_order(self):
        c = LocalCache(size_bytes=128, line_bytes=64, ways=2)
        c.read("x", 0)     # A
        c.read("x", 8)     # B
        c.read("x", 0)     # touch A -> B is LRU
        c.read("x", 16)    # evicts B
        assert c.read("x", 0) == pytest.approx(c.hit_latency)  # A still hot


class TestFlushAndErrors:
    def test_zero_count_rejected(self):
        with pytest.raises(SimulationError):
            LocalCache().read("x", 0, count=0)

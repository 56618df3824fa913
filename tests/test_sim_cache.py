"""Unit tests for the RCU local cache model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@st.composite
def _geometry_and_accesses(draw):
    """A cache geometry, and accesses over a few spaces spanning one to
    three lines each, reads and writes mixed."""
    line_bytes = draw(st.sampled_from([16, 32, 64]))
    ways = draw(st.sampled_from([1, 2, 4]))
    n_sets = draw(st.sampled_from([1, 2, 4, 8]))
    epl = line_bytes // 8
    access = st.tuples(st.sampled_from(["x", "x_prev", "b0", "out"]),
                       st.integers(0, 24 * epl),
                       st.integers(1, 3 * epl), st.booleans())
    accesses = draw(st.lists(access, max_size=80))
    split = draw(st.integers(0, len(accesses)))
    return (dict(size_bytes=line_bytes * ways * n_sets,
                 line_bytes=line_bytes, ways=ways), accesses, split)


class TestBatchReplay:
    @settings(max_examples=200, deadline=None)
    @given(_geometry_and_accesses())
    def test_batch_equals_one_access_at_a_time(self, case):
        """After the same first ``split`` accesses, replaying the rest
        in one batch leaves what making them one at a time leaves: the
        counter values, their key order and every set's LRU state."""
        geometry, accesses, split = case
        batch, single = LocalCache(**geometry), LocalCache(**geometry)
        for cache in (batch, single):
            for space, index, count, dirty in accesses[:split]:
                (cache.write if dirty else cache.read)(space, index, count)
        rest = accesses[split:]
        cycles = batch.replay(rest)
        assert cycles == sum(
            (single.write if dirty else single.read)(space, index, count)
            for space, index, count, dirty in rest)
        assert list(batch.counters.items()) == \
            list(single.counters.items())
        assert batch._sets == single._sets

    def test_failed_access_keeps_the_batch_before_it(self):
        """A zero-count access raises; the accesses before it stay
        counted, as they would have been one at a time."""
        cache = LocalCache()
        with pytest.raises(SimulationError):
            cache.replay([("x", 0, 8, False), ("x", 8, 0, False)])
        assert cache.counters.as_dict() == {"cache_reads": 1.0,
                                            "cache_misses": 1.0}

"""Unit tests for the streaming-memory model."""

import pytest

from repro.errors import SimulationError
from repro.sim import StreamingMemory


class TestBandwidth:
    def test_table5_bytes_per_cycle(self):
        mem = StreamingMemory()
        # 288 GB/s at 2.5 GHz = 115.2 B/cycle.
        assert mem.bytes_per_cycle == pytest.approx(115.2)

    def test_sequential_stream_cost(self):
        mem = StreamingMemory()
        cycles = mem.stream_cycles(1152, sequential=True)
        assert cycles == pytest.approx(10.0)

    def test_zero_bytes_free(self):
        mem = StreamingMemory()
        assert mem.stream_cycles(0) == 0.0
        assert mem.total_bytes == 0.0


class TestBurstPadding:
    def test_random_access_rounds_to_bursts(self):
        mem = StreamingMemory(burst_bytes=64)
        mem.stream_cycles(8, sequential=False)
        assert mem.total_bytes == pytest.approx(64.0)

    def test_random_access_multiple_bursts(self):
        mem = StreamingMemory(burst_bytes=64)
        mem.stream_cycles(65, sequential=False)
        assert mem.total_bytes == pytest.approx(128.0)

    def test_sequential_pads_to_bursts(self):
        """Regression: sequential requests used to bypass burst padding,
        contradicting the class docstring ("rounding each request up to
        whole bursts") — stream_cycles(200) charged exactly 200 bytes."""
        mem = StreamingMemory(burst_bytes=64)
        cycles = mem.stream_cycles(200, sequential=True)
        assert mem.total_bytes == pytest.approx(256.0)
        assert cycles == pytest.approx(256.0 / mem.bytes_per_cycle)

    def test_burst_aligned_request_unchanged(self):
        mem = StreamingMemory(burst_bytes=64)
        cycles = mem.stream_cycles(512, sequential=True)
        assert mem.total_bytes == pytest.approx(512.0)
        assert cycles == pytest.approx(512.0 / mem.bytes_per_cycle)

    def test_fractional_bytes_round_up(self):
        mem = StreamingMemory(burst_bytes=64)
        mem.stream_cycles(64.2, sequential=True)
        assert mem.total_bytes == pytest.approx(128.0)


class TestCountersAndUtilization:
    def test_request_counting(self):
        mem = StreamingMemory()
        mem.stream_cycles(100)
        mem.stream_cycles(100, sequential=False)
        assert mem.counters.get("dram_requests") == 2.0
        assert mem.counters.get("dram_random_requests") == 1.0


class TestCostQuery:
    def test_cost_matches_stream_cycles_without_charging(self):
        mem = StreamingMemory()
        cost = mem.cost_cycles(1000.0)
        assert mem.counters.get("dram_bytes") == 0.0
        assert mem.counters.get("dram_requests") == 0.0
        assert cost == mem.stream_cycles(1000.0)

    def test_zero_and_negative(self):
        mem = StreamingMemory()
        assert mem.cost_cycles(0.0) == 0.0
        with pytest.raises(SimulationError):
            mem.cost_cycles(-1.0)


class TestErrors:
    def test_negative_bytes(self):
        with pytest.raises(SimulationError):
            StreamingMemory().stream_cycles(-1)

    def test_invalid_bandwidth(self):
        with pytest.raises(SimulationError):
            StreamingMemory(bandwidth_bytes_per_s=0)

    def test_invalid_burst(self):
        with pytest.raises(SimulationError):
            StreamingMemory(burst_bytes=0)

"""Unit tests for the reconfigurable compute unit (§4.3/§4.4)."""

import numpy as np
import pytest

from repro.core import DataPathType, RCUConfig, ReconfigurableComputeUnit
from repro.errors import ReconfigurationError, SimulationError


@pytest.fixture
def rcu():
    return ReconfigurableComputeUnit()


class TestOperands:
    def test_load_and_read_chunk(self, rcu):
        rcu.load_operand("x", np.arange(20.0))
        chunk = rcu.read_chunk("x", 8, 8)
        np.testing.assert_allclose(chunk, np.arange(8.0, 16.0))

    def test_read_past_end_zero_padded(self, rcu):
        rcu.load_operand("x", np.arange(10.0))
        chunk = rcu.read_chunk("x", 8, 8)
        np.testing.assert_allclose(chunk, [8, 9, 0, 0, 0, 0, 0, 0])

    def test_write_chunk(self, rcu):
        rcu.load_operand("x", np.zeros(16))
        rcu.write_chunk("x", 8, np.full(8, 2.0))
        np.testing.assert_allclose(rcu.operand("x")[8:], 2.0)

    def test_write_past_end_truncated(self, rcu):
        rcu.load_operand("x", np.zeros(10))
        rcu.write_chunk("x", 8, np.full(8, 1.0))
        assert rcu.operand("x").size == 10

    def test_operand_is_copied(self, rcu):
        source = np.zeros(4)
        rcu.load_operand("x", source)
        source[0] = 99.0
        assert rcu.operand("x")[0] == 0.0

    def test_missing_operand(self, rcu):
        with pytest.raises(SimulationError):
            rcu.operand("ghost")

    def test_cache_busy_accumulates(self, rcu):
        rcu.load_operand("x", np.arange(64.0))
        rcu.read_chunk("x", 0, 8)
        rcu.read_chunk("x", 8, 8)
        assert rcu.cache_busy_cycles == pytest.approx(2.0)


class TestReconfiguration:
    def test_first_configuration(self, rcu):
        exposed = rcu.reconfigure(DataPathType.GEMV, drain_cycles=0)
        assert exposed == pytest.approx(rcu.config.reconfig_cycles)
        assert rcu.counters.get("config_write") == 1.0

    def test_same_datapath_is_free(self, rcu):
        rcu.reconfigure(DataPathType.GEMV, 0)
        assert rcu.reconfigure(DataPathType.GEMV, 0) == 0.0
        assert rcu.counters.get("config_write") == 1.0

    def test_hidden_under_long_drain(self, rcu):
        """§4.4: configuration latency hides under the tree drain."""
        rcu.reconfigure(DataPathType.GEMV, 0)
        exposed = rcu.reconfigure(DataPathType.D_SYMGS, drain_cycles=9)
        assert exposed == 0.0

    def test_partially_exposed_under_short_drain(self):
        rcu = ReconfigurableComputeUnit(RCUConfig(reconfig_cycles=10))
        rcu.reconfigure(DataPathType.GEMV, 0)
        assert rcu.reconfigure(DataPathType.D_SYMGS, 4) == pytest.approx(6.0)

    def test_ablation_exposes_fully(self):
        rcu = ReconfigurableComputeUnit(
            RCUConfig(reconfig_cycles=8, hide_under_drain=False))
        rcu.reconfigure(DataPathType.GEMV, 0)
        assert rcu.reconfigure(DataPathType.D_SYMGS, 100) == pytest.approx(8.0)

    def test_invalid_datapath(self, rcu):
        with pytest.raises(ReconfigurationError):
            rcu.reconfigure("gemv", 0)

    def test_negative_drain(self, rcu):
        with pytest.raises(ReconfigurationError):
            rcu.reconfigure(DataPathType.GEMV, -1)

    def test_switch_toggles_counted(self, rcu):
        """Toggle counts follow the Figure 9 interconnect
        differences (symmetric difference of connection sets), not a
        flat per-switch constant."""
        from repro.core.switch import CONFIGURATIONS, switch_distance
        rcu.reconfigure(DataPathType.GEMV, 0)
        rcu.reconfigure(DataPathType.D_SYMGS, 9)
        rcu.reconfigure(DataPathType.GEMV, 9)
        expected = len(CONFIGURATIONS[DataPathType.GEMV].connections) \
            + 2 * switch_distance(DataPathType.GEMV,
                                  DataPathType.D_SYMGS)
        assert rcu.counters.get("switch_toggle") == float(expected)

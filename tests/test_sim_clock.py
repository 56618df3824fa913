"""Unit tests for the simulator's clock frequency."""

import pytest

from repro.sim import DEFAULT_FREQUENCY_HZ


class TestClockBasics:
    def test_default_frequency_matches_table5(self):
        assert DEFAULT_FREQUENCY_HZ == pytest.approx(2.5e9)

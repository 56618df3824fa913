"""Unit tests for the fixed compute unit (§4.3)."""

import pytest

from repro.core import FixedComputeUnit
from repro.errors import SimulationError


class TestConstruction:
    def test_defaults(self):
        fcu = FixedComputeUnit()
        assert fcu.omega == 8
        assert fcu.n_alus == 16

    def test_omega_must_be_power_of_two(self):
        with pytest.raises(SimulationError):
            FixedComputeUnit(omega=6)
        with pytest.raises(SimulationError):
            FixedComputeUnit(omega=0)

    def test_alu_row_must_fit_a_slice(self):
        with pytest.raises(SimulationError):
            FixedComputeUnit(omega=16, n_alus=8)

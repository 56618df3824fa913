"""Unit tests for the LIFO link stack."""

import pytest

from repro.errors import SimulationError
from repro.sim import LinkStack


class TestLinkStack:
    def test_lifo_order(self):
        s = LinkStack()
        s.push("gemv1")
        s.push("gemv2")
        assert s.pop() == "gemv2"
        assert s.pop() == "gemv1"

    def test_underflow(self):
        with pytest.raises(SimulationError):
            LinkStack().pop()

    def test_len_and_empty(self):
        s = LinkStack()
        assert s.empty
        s.push(1)
        assert len(s) == 1
        assert not s.empty

    def test_counters_use_name(self):
        s = LinkStack("link")
        s.push(1)
        s.pop()
        assert s.counters.get("link_pushes") == 1.0
        assert s.counters.get("link_pops") == 1.0

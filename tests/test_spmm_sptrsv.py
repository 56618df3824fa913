"""Tests for the multi-vector SpMM and the SpTRSV convenience kernel."""

import numpy as np
import pytest

from repro.core import Alrescha, KernelType
from repro.errors import SimulationError


@pytest.fixture
def spmv_acc(spd_medium):
    return Alrescha.from_matrix(KernelType.SPMV, spd_medium)


class TestSpMM:
    def test_matches_dense_product(self, spmv_acc, spd_medium, rng):
        x = rng.normal(size=(70, 5))
        y, _report = spmv_acc.run_spmv_batch(x)
        np.testing.assert_allclose(y, spd_medium @ x, atol=1e-9)

    def test_single_column_matches_spmv(self, spmv_acc, rng):
        x = rng.normal(size=70)
        y_mm, _ = spmv_acc.run_spmv_batch(x)
        y_mv, _ = spmv_acc.run_spmv(x)
        np.testing.assert_allclose(y_mm[:, 0], y_mv)

    def test_matrix_streams_once(self, spmv_acc, rng):
        """The panel amortises the payload: k columns stream the matrix
        once, not k times."""
        x1 = rng.normal(size=(70, 1))
        x8 = rng.normal(size=(70, 8))
        _y, r1 = spmv_acc.run_spmv_batch(x1)
        _y, r8 = spmv_acc.run_spmv_batch(x8)
        payload1 = r1.counters.get("dram_bytes")
        payload8 = r8.counters.get("dram_bytes")
        # Write-back grows with k but the dominant matrix payload does
        # not: total DRAM bytes grow far slower than 8x.
        assert payload8 < 2.5 * payload1

    def test_throughput_per_column_improves(self, spmv_acc, rng):
        x1 = rng.normal(size=(70, 1))
        x8 = rng.normal(size=(70, 8))
        _y, r1 = spmv_acc.run_spmv_batch(x1)
        _y, r8 = spmv_acc.run_spmv_batch(x8)
        per_col_1 = r1.cycles
        per_col_8 = r8.cycles / 8.0
        assert per_col_8 < per_col_1

    def test_wide_panel_becomes_compute_bound(self, spmv_acc, rng):
        """At large k the ALU row is the limit: cycles grow ~linearly
        in k once compute dominates."""
        _y, r8 = spmv_acc.run_spmv_batch(rng.normal(size=(70, 8)))
        _y, r16 = spmv_acc.run_spmv_batch(rng.normal(size=(70, 16)))
        assert r16.cycles > 1.5 * r8.cycles / 2.0  # superlinear vs /2

    def test_shape_validation(self, spmv_acc):
        with pytest.raises(SimulationError):
            spmv_acc.run_spmv_batch(np.zeros((5, 2)))

    def test_wrong_kernel_rejected(self, spd_medium):
        acc = Alrescha.from_matrix(KernelType.SYMGS, spd_medium)
        with pytest.raises(SimulationError):
            acc.run_spmv_batch(np.zeros((70, 2)))


class TestSpTRSV:
    def test_solves_lower_triangle(self, spd_medium, rng):
        acc = Alrescha.from_matrix(KernelType.SYMGS, spd_medium)
        b = rng.normal(size=70)
        x, report = acc.run_sptrsv(b)
        lower = np.tril(spd_medium)
        np.testing.assert_allclose(lower @ x, b, atol=1e-8)
        assert report.kernel == "sptrsv"

    def test_matches_scipy_triangular_solve(self, banded_spd, rng):
        import scipy.linalg
        acc = Alrescha.from_matrix(KernelType.SYMGS, banded_spd)
        b = rng.normal(size=40)
        x, _ = acc.run_sptrsv(b)
        expected = scipy.linalg.solve_triangular(
            np.tril(banded_spd), b, lower=True)
        np.testing.assert_allclose(x, expected, atol=1e-9)

    def test_sequential_work_reported(self, spd_medium, rng):
        acc = Alrescha.from_matrix(KernelType.SYMGS, spd_medium)
        _x, report = acc.run_sptrsv(rng.normal(size=70))
        assert report.sequential_cycles > 0

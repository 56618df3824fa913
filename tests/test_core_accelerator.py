"""Integration-level tests for the Alrescha accelerator model."""

import numpy as np
import pytest

from repro.core import Alrescha, AlreschaConfig, KernelType, convert
from repro.errors import ConfigError, SimulationError
from repro.kernels import forward_sweep


class TestProgramming:
    def test_from_matrix_round_trip(self, spd_small):
        acc = Alrescha.from_matrix(KernelType.SPMV, spd_small)
        assert acc.n == 17
        assert len(acc.table) > 0

    def test_omega_mismatch_rejected(self, spd_small):
        conv = convert(KernelType.SPMV, spd_small, omega=4)
        acc = Alrescha(AlreschaConfig(omega=8))
        with pytest.raises(ConfigError):
            acc.program(conv)

    def test_unprogrammed_access_rejected(self):
        with pytest.raises(SimulationError):
            Alrescha().run_spmv(np.zeros(4))

    def test_wrong_kernel_rejected(self, spd_small):
        acc = Alrescha.from_matrix(KernelType.SPMV, spd_small)
        with pytest.raises(SimulationError):
            acc.run_symgs_sweep(np.zeros(17), np.zeros(17))

    def test_wrong_operand_shape_rejected(self, spd_small):
        acc = Alrescha.from_matrix(KernelType.SPMV, spd_small)
        with pytest.raises(SimulationError):
            acc.run_spmv(np.zeros(5))


class TestSpMVExecution:
    def test_matches_reference(self, spd_medium, rng):
        acc = Alrescha.from_matrix(KernelType.SPMV, spd_medium)
        x = rng.normal(size=70)
        y, _report = acc.run_spmv(x)
        np.testing.assert_allclose(y, spd_medium @ x)

    def test_repeatable(self, spd_small, rng):
        acc = Alrescha.from_matrix(KernelType.SPMV, spd_small)
        x = rng.normal(size=17)
        y1, r1 = acc.run_spmv(x)
        y2, r2 = acc.run_spmv(x)
        np.testing.assert_allclose(y1, y2)
        assert r1.cycles == pytest.approx(r2.cycles)

    def test_report_sane(self, spd_medium, rng):
        acc = Alrescha.from_matrix(KernelType.SPMV, spd_medium)
        _y, report = acc.run_spmv(rng.normal(size=70))
        assert report.cycles > 0
        assert report.useful_bytes == acc.conversion.nnz * 8
        assert acc.conversion.nnz == np.count_nonzero(spd_medium)
        assert report.streamed_bytes >= report.useful_bytes
        assert 0.0 < report.bandwidth_utilization <= 1.0
        assert report.sequential_cycles == 0.0
        assert report.energy_j > 0.0

    def test_spmv_is_memory_bound(self, spd_medium, rng):
        """With no dependent data paths, execution tracks the stream."""
        acc = Alrescha.from_matrix(KernelType.SPMV, spd_medium)
        _y, report = acc.run_spmv(rng.normal(size=70))
        stream_cycles = report.streamed_bytes / report.bytes_per_cycle
        assert report.cycles == pytest.approx(stream_cycles, rel=0.35)


class TestSymGSExecution:
    def test_matches_reference_sweep(self, spd_medium, rng):
        acc = Alrescha.from_matrix(KernelType.SYMGS, spd_medium)
        b = rng.normal(size=70)
        x0 = rng.normal(size=70)
        x1, _ = acc.run_symgs_sweep(b, x0)
        np.testing.assert_allclose(x1, forward_sweep(spd_medium, b, x0),
                                   atol=1e-10)

    def test_matches_reference_banded(self, banded_spd, rng):
        acc = Alrescha.from_matrix(KernelType.SYMGS, banded_spd)
        b = rng.normal(size=40)
        x0 = np.zeros(40)
        x1, _ = acc.run_symgs_sweep(b, x0)
        np.testing.assert_allclose(x1, forward_sweep(banded_spd, b, x0),
                                   atol=1e-10)

    def test_iterated_sweeps_converge(self, banded_spd, rng):
        """Gauss-Seidel on a diagonally dominant system converges."""
        acc = Alrescha.from_matrix(KernelType.SYMGS, banded_spd)
        x_true = rng.normal(size=40)
        b = banded_spd @ x_true
        x = np.zeros(40)
        for _ in range(60):
            x, _ = acc.run_symgs_sweep(b, x)
        np.testing.assert_allclose(x, x_true, atol=1e-6)

    def test_sequential_cycles_reported(self, spd_medium, rng):
        acc = Alrescha.from_matrix(KernelType.SYMGS, spd_medium)
        _x, report = acc.run_symgs_sweep(rng.normal(size=70),
                                         np.zeros(70))
        assert report.sequential_cycles > 0
        assert 0.0 < report.sequential_fraction < 1.0
        assert "d-symgs" in report.datapath_cycles
        assert "gemv" in report.datapath_cycles

    def test_non_reordered_table_same_result(self, spd_medium, rng):
        """The reordering ablation changes timing, not values."""
        b = rng.normal(size=70)
        x0 = rng.normal(size=70)
        acc_r = Alrescha.from_matrix(KernelType.SYMGS, spd_medium,
                                     reorder=True)
        acc_n = Alrescha.from_matrix(KernelType.SYMGS, spd_medium,
                                     reorder=False)
        x_r, rep_r = acc_r.run_symgs_sweep(b, x0)
        x_n, rep_n = acc_n.run_symgs_sweep(b, x0)
        np.testing.assert_allclose(x_r, x_n)
        # Without reordering the diagonal blocks must be re-fetched, so
        # the natural order streams strictly more and runs longer.
        assert rep_n.streamed_bytes > rep_r.streamed_bytes
        assert rep_n.cycles >= rep_r.cycles

    def test_reconfig_hidden_by_default(self, spd_medium, rng):
        acc = Alrescha.from_matrix(KernelType.SYMGS, spd_medium)
        _x, report = acc.run_symgs_sweep(rng.normal(size=70), np.zeros(70))
        assert report.exposed_reconfig_cycles == 0.0

    def test_reconfig_exposed_when_ablated(self, spd_medium, rng):
        cfg = AlreschaConfig(hide_reconfig_under_drain=False)
        acc = Alrescha.from_matrix(KernelType.SYMGS, spd_medium, config=cfg)
        _x, report = acc.run_symgs_sweep(rng.normal(size=70), np.zeros(70))
        assert report.exposed_reconfig_cycles > 0.0


class TestConfigurationVariants:
    @pytest.mark.parametrize("omega", [4, 8, 16])
    def test_omega_sweep_functionally_identical(self, spd_medium, rng,
                                                omega):
        cfg = AlreschaConfig(omega=omega, n_alus=max(16, omega))
        acc = Alrescha.from_matrix(KernelType.SYMGS, spd_medium, config=cfg)
        b = rng.normal(size=70)
        x1, _ = acc.run_symgs_sweep(b, np.zeros(70))
        np.testing.assert_allclose(
            x1, forward_sweep(spd_medium, b, np.zeros(70)), atol=1e-10
        )

    def test_larger_omega_streams_more_padding(self, spd_medium):
        conv8 = convert(KernelType.SPMV, spd_medium, omega=8)
        conv16 = convert(KernelType.SPMV, spd_medium, omega=16)
        assert conv16.matrix.stored_values >= conv8.matrix.stored_values

    def test_energy_scales_with_work(self, spd_small, spd_medium, rng):
        small = Alrescha.from_matrix(KernelType.SPMV, spd_small)
        large = Alrescha.from_matrix(KernelType.SPMV, spd_medium)
        _y1, r1 = small.run_spmv(rng.normal(size=17))
        _y2, r2 = large.run_spmv(rng.normal(size=70))
        assert r2.energy_j > r1.energy_j

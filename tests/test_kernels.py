"""Unit tests for the golden kernels (SpMV, SymGS, vector ops)."""

import numpy as np
import pytest

from repro.errors import ConfigError, ConvergenceError, ShapeError
from repro.kernels import (
    axpy,
    backward_sweep,
    dot,
    forward_sweep,
    forward_sweep_vectorized,
    norm2,
    spmv,
    symgs,
    to_csr,
    waxpby,
)


class TestVectorOps:
    def test_dot(self):
        assert dot([1.0, 2.0], [3.0, 4.0]) == pytest.approx(11.0)

    def test_waxpby(self):
        np.testing.assert_allclose(
            waxpby(2.0, [1.0, 1.0], 3.0, [1.0, 2.0]), [5.0, 8.0]
        )

    def test_axpy(self):
        np.testing.assert_allclose(axpy(2.0, [1.0, 0.0], [0.0, 1.0]),
                                   [2.0, 1.0])

    def test_norm2(self):
        assert norm2([3.0, 4.0]) == pytest.approx(5.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            dot([1.0], [1.0, 2.0])


class TestSpMV:
    def test_dense_input(self, spd_small, rng):
        x = rng.normal(size=17)
        np.testing.assert_allclose(spmv(spd_small, x), spd_small @ x)

    def test_scipy_input(self, small_digraph, rng):
        x = rng.normal(size=12)
        np.testing.assert_allclose(spmv(small_digraph, x),
                                   small_digraph @ x)

    def test_to_csr_idempotent(self, spd_small):
        csr = to_csr(spd_small)
        assert to_csr(csr) is csr


class TestForwardSweep:
    def test_matches_triangular_solve(self, spd_medium, rng):
        """x_new = (L+D)^{-1} (b - U x_old), checked against numpy."""
        b = rng.normal(size=70)
        x0 = rng.normal(size=70)
        lower = np.tril(spd_medium)
        upper = np.triu(spd_medium, k=1)
        expected = np.linalg.solve(lower, b - upper @ x0)
        np.testing.assert_allclose(forward_sweep(spd_medium, b, x0),
                                   expected, atol=1e-10)

    def test_vectorized_matches_loop(self, spd_medium, rng):
        b = rng.normal(size=70)
        x0 = rng.normal(size=70)
        np.testing.assert_allclose(
            forward_sweep_vectorized(spd_medium, b, x0),
            forward_sweep(spd_medium, b, x0),
            atol=1e-12,
        )

    def test_fixed_point_is_solution(self, banded_spd, rng):
        """The exact solution is a fixed point of the sweep."""
        x_true = rng.normal(size=40)
        b = banded_spd @ x_true
        out = forward_sweep(banded_spd, b, x_true)
        np.testing.assert_allclose(out, x_true, atol=1e-10)

    def test_zero_diagonal_rejected(self):
        a = np.array([[0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ConfigError):
            forward_sweep(a, np.ones(2), np.zeros(2))
        with pytest.raises(ConfigError):
            forward_sweep_vectorized(a, np.ones(2), np.zeros(2))

    def test_shape_checks(self, spd_small):
        with pytest.raises(ShapeError):
            forward_sweep(spd_small, np.zeros(3), np.zeros(17))
        with pytest.raises(ShapeError):
            forward_sweep(np.ones((2, 3)), np.zeros(2), np.zeros(2))


class TestBackwardAndSymmetric:
    def test_backward_matches_triangular_solve(self, spd_medium, rng):
        b = rng.normal(size=70)
        x0 = rng.normal(size=70)
        upper = np.triu(spd_medium)
        lower = np.tril(spd_medium, k=-1)
        expected = np.linalg.solve(upper, b - lower @ x0)
        np.testing.assert_allclose(backward_sweep(spd_medium, b, x0),
                                   expected, atol=1e-10)

    def test_symgs_is_forward_then_backward(self, spd_medium, rng):
        b = rng.normal(size=70)
        x0 = rng.normal(size=70)
        expected = backward_sweep(spd_medium, b,
                                  forward_sweep(spd_medium, b, x0))
        np.testing.assert_allclose(symgs(spd_medium, b, x0), expected)

    def test_sweeps_reduce_residual(self, banded_spd, rng):
        x_true = rng.normal(size=40)
        b = banded_spd @ x_true
        x = np.zeros(40)
        res_prev = np.linalg.norm(b - banded_spd @ x)
        for _ in range(5):
            x = symgs(banded_spd, b, x)
            res = np.linalg.norm(b - banded_spd @ x)
            assert res < res_prev
            res_prev = res

    def test_backward_on_reversed_equals_forward(self, spd_medium, rng):
        """Forward GS on P A P == backward GS on A (the accelerator
        backend's trick for the symmetric smoother)."""
        b = rng.normal(size=70)
        x0 = rng.normal(size=70)
        perm = np.arange(70)[::-1]
        reversed_a = spd_medium[perm][:, perm]
        fwd_on_rev = forward_sweep(reversed_a, b[::-1].copy(),
                                   x0[::-1].copy())
        np.testing.assert_allclose(fwd_on_rev[::-1],
                                   backward_sweep(spd_medium, b, x0),
                                   atol=1e-10)


class TestSweepOverLists:
    """The reference sweep walks Python lists; a loop over numpy scalars,
    as it used to run, must give the same bits."""

    @staticmethod
    def _numpy_scalar_sweep(matrix, b, x, reverse):
        csr = to_csr(matrix)
        out = np.asarray(x, dtype=np.float64).copy()
        n = csr.shape[0]
        for j in (range(n - 1, -1, -1) if reverse else range(n)):
            cols, vals = csr.row(j)
            diag = 0.0
            acc = 0.0
            for c, v in zip(cols, vals):
                if c == j:
                    diag = v
                else:
                    acc += v * out[c]
            if diag == 0.0:
                raise ConfigError(f"zero diagonal at row {j}")
            out[j] = (b[j] - acc) / diag
        return out

    @pytest.mark.parametrize("name", [
        "stencil27", "parabolic_fem", "thermal2", "apache2", "af_shell",
        "offshore", "scircuit", "memplus", "economics", "chem_master"])
    def test_bitwise_equal_on_figure14(self, name):
        from repro.analysis.experiments import SCIENTIFIC_SUITE
        from repro.datasets import load_dataset

        assert name in SCIENTIFIC_SUITE
        matrix = load_dataset(name, scale=0.3).matrix
        gen = np.random.default_rng(17)
        b = gen.normal(size=matrix.shape[0])
        x = gen.normal(size=matrix.shape[0])
        for sweep, reverse in ((forward_sweep, False),
                               (backward_sweep, True)):
            got = sweep(matrix, b, x)
            want = self._numpy_scalar_sweep(matrix, b, x, reverse)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_zero_diagonal_names_the_row(self):
        a = np.diag([2.0, 0.0, 3.0])
        with pytest.raises(ConfigError, match="zero diagonal at row 1"):
            backward_sweep(a, np.ones(3), np.zeros(3))

"""Tests for PCG (Figure 2), CG and the Jacobi smoother."""

import numpy as np
import pytest

from repro.errors import ConfigError, ConvergenceError, ShapeError
from repro.solvers import (
    AcceleratorBackend,
    JacobiBackend,
    ReferenceBackend,
    cg,
    jacobi,
    jacobi_sweep,
    pcg,
)
from tests.test_failure_injection import _FlakyBackend


@pytest.fixture
def system(banded_spd, rng):
    x_true = rng.normal(size=40)
    return banded_spd, banded_spd @ x_true, x_true


class TestPCGReference:
    def test_solves_system(self, system):
        a, b, x_true = system
        result = pcg(ReferenceBackend(a), b, tol=1e-10, max_iter=60)
        assert result.converged
        np.testing.assert_allclose(result.x, x_true, atol=1e-7)

    def test_residuals_monotone_at_convergence(self, system):
        a, b, _ = system
        result = pcg(ReferenceBackend(a), b, tol=1e-10)
        assert result.residual_norms[-1] < result.residual_norms[0]
        assert result.final_residual < 1e-10

    def test_zero_rhs(self, banded_spd):
        result = pcg(ReferenceBackend(banded_spd), np.zeros(40))
        assert result.converged
        np.testing.assert_allclose(result.x, 0.0)

    def test_x0_supported(self, system):
        a, b, x_true = system
        result = pcg(ReferenceBackend(a), b, tol=1e-10,
                     x0=x_true + 1e-3)
        assert result.converged
        assert result.iterations <= 12

    def test_shape_check(self, banded_spd):
        with pytest.raises(ShapeError):
            pcg(ReferenceBackend(banded_spd), np.zeros(3))

    def test_non_spd_detected(self, rng):
        a = np.diag([1.0, -1.0, 1.0, 1.0])
        a[0, 1] = a[1, 0] = 0.1
        with pytest.raises(ConvergenceError):
            pcg(ReferenceBackend(a), rng.normal(size=4), max_iter=50)

    def test_stall_raises_when_asked(self, system):
        a, b, _ = system
        with pytest.raises(ConvergenceError):
            pcg(ReferenceBackend(a), b, tol=1e-16, max_iter=1,
                raise_on_stall=True)


class TestPCGAccelerated:
    def test_matches_reference_solution(self, system):
        a, b, x_true = system
        ref = pcg(ReferenceBackend(a), b, tol=1e-10, max_iter=60)
        acc = pcg(AcceleratorBackend(a), b, tol=1e-10, max_iter=60)
        assert acc.converged
        assert acc.iterations == ref.iterations
        np.testing.assert_allclose(acc.x, ref.x, atol=1e-8)

    def test_report_accumulates_kernels(self, system):
        a, b, _ = system
        backend = AcceleratorBackend(a)
        result = pcg(backend, b, tol=1e-10, max_iter=60)
        assert result.report is not None
        assert result.report.cycles > 0
        breakdown = backend.kernel_breakdown()
        assert {"spmv", "symgs", "vector"} <= set(breakdown)
        # Figure 3: SymGS dominates PCG time.
        assert breakdown["symgs"] > breakdown["spmv"]
        assert breakdown["symgs"] > breakdown["vector"]

    def test_forward_only_smoother_is_single_sweep(self, system):
        """With symmetric_smoother=False the preconditioner is exactly
        one forward sweep from zero (and CG progress, while no longer
        guaranteed by theory, is still visible)."""
        from repro.kernels import forward_sweep
        a, b, _ = system
        backend = AcceleratorBackend(a, symmetric_smoother=False)
        r = np.arange(1.0, 41.0)
        z = backend.precondition(r)
        np.testing.assert_allclose(
            z, forward_sweep(a, r, np.zeros(40)), atol=1e-10
        )
        backend.reset_reports()
        result = pcg(backend, b, tol=1e-9, max_iter=120)
        assert min(result.residual_norms) < 0.05 * result.residual_norms[0]


class TestCG:
    def test_solves_system(self, system):
        a, b, x_true = system
        result = cg(ReferenceBackend(a), b, tol=1e-10, max_iter=200)
        assert result.converged
        np.testing.assert_allclose(result.x, x_true, atol=1e-6)

    def test_needs_more_iterations_than_pcg(self, system):
        """The reason PCG carries the SymGS smoother at all."""
        a, b, _ = system
        plain = cg(ReferenceBackend(a), b, tol=1e-10, max_iter=200)
        precond = pcg(ReferenceBackend(a), b, tol=1e-10, max_iter=200)
        assert precond.iterations < plain.iterations


class _IdentityPreconditioned:
    """``backend`` with the identity preconditioner: PCG on it is CG."""

    def __init__(self, backend):
        self._backend = backend

    def precondition(self, r):
        return r

    def __getattr__(self, name):
        return getattr(self._backend, name)


class TestCGIsIdentityPCG:
    """``cg`` and ``pcg`` with the identity preconditioner take the same
    steps.  The two paths are compared in one process, bit for bit, not
    against recorded floats: answer bits depend on the host's BLAS."""

    @staticmethod
    def assert_same_solve(plain, precond):
        assert plain.x.tobytes() == precond.x.tobytes()
        assert plain.residual_norms == precond.residual_norms
        assert plain.iterations == precond.iterations
        assert plain.restarts == precond.restarts

    def test_reference_backend(self, system, spd_medium, rng):
        a, b, _ = system
        for matrix, rhs in ((a, b), (spd_medium, rng.normal(size=70))):
            self.assert_same_solve(
                cg(ReferenceBackend(matrix), rhs, tol=1e-10,
                   max_iter=200),
                pcg(_IdentityPreconditioned(ReferenceBackend(matrix)),
                    rhs, tol=1e-10, max_iter=200))

    @pytest.mark.parametrize("fault", [dict(fail_on=(4,)),
                                       dict(poison_on=(3,))],
                             ids=["rollback", "poisoned-residual"])
    def test_flaky_backend_recovers_identically(self, spd_small, fault):
        b = np.ones(17)
        kwargs = dict(tol=1e-10, max_iter=200, checkpoint_interval=1)
        plain = cg(_FlakyBackend(spd_small, **fault), b, **kwargs)
        precond = pcg(_IdentityPreconditioned(
            _FlakyBackend(spd_small, **fault)), b, **kwargs)
        assert plain.converged and plain.restarts == 1
        self.assert_same_solve(plain, precond)

    def test_accelerator_backend_answers(self, system):
        a, b, _ = system
        self.assert_same_solve(
            cg(AcceleratorBackend(a), b, tol=1e-9, max_iter=200),
            pcg(_IdentityPreconditioned(AcceleratorBackend(a)), b,
                tol=1e-9, max_iter=200))


class TestJacobi:
    def test_sweep_formula(self, banded_spd, rng):
        b = rng.normal(size=40)
        x = rng.normal(size=40)
        out = jacobi_sweep(banded_spd, b, x)
        expected = x + (b - banded_spd @ x) / np.diag(banded_spd)
        np.testing.assert_allclose(out, expected)

    def test_damped_iterations_reduce_residual(self, system):
        a, b, _ = system
        x = jacobi(a, b, sweeps=30)
        assert np.linalg.norm(b - a @ x) < np.linalg.norm(b)

    def test_zero_diagonal_rejected(self):
        a = np.array([[0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ConfigError):
            jacobi_sweep(a, np.ones(2), np.zeros(2))

    def test_jacobi_preconditioner_weaker_than_symgs(self, system):
        a, b, _ = system
        gs = pcg(ReferenceBackend(a), b, tol=1e-10, max_iter=200)
        jac = pcg(JacobiBackend(a, sweeps=1), b, tol=1e-10, max_iter=200)
        assert gs.iterations <= jac.iterations

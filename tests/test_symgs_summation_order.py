"""The fixed SymGS summation order against the BLAS order it replaced.

D-SymGS used to take its in-block dots with numpy's ``@`` on vectors
shorter than ω, which calls the BLAS ``ddot`` — whose summation order
is that of whichever CPU kernel the BLAS picks at load time.  PCG's
``dot`` and ``norm2`` went through ``np.dot`` the same way.  These
tests keep a copy of that recurrence and of those vector kernels, run
them on the per-block interpreter, and bound how far the fixed order
(:func:`~repro.core.datapaths.dsymgs_upper_dots` and
:func:`~repro.core.datapaths.dsymgs_recurrence`, ``kernels.vector``)
moves the answers on every Figure 14 dataset.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from repro.analysis.experiments import SCIENTIFIC_SUITE
from repro.core import Alrescha, AlreschaConfig, KernelType, interpreter
from repro.datasets import load_dataset
from repro.solvers import AcceleratorBackend, pcg

# The package re-exports the ``pcg`` function under the module's name.
pcg_module = importlib.import_module("repro.solvers.pcg")

#: Largest elementwise relative change one forward sweep may show.
#: At scale 0.3 the worst measured is 4.1e-13 (apache2), and five of
#: the ten datasets are bit-identical.  Ulps make a poor bound here:
#: cancellation turns that into 1,864 ulps on one apache2 entry.
SWEEP_RTOL = 1e-11


def _blas_dsymgs_block(fcu, body, diag, b_chunk, x_old_chunk, acc,
                       valid_rows):
    """The D-SymGS block with its dots taken by BLAS."""
    x_new = np.zeros(fcu.omega)
    for r in range(valid_rows):
        row = body[r]
        dot = float(row[:r] @ x_new[:r]) \
            + float(row[r + 1:] @ x_old_chunk[r + 1:])
        s = float(acc[r]) + dot
        x_new[r] = (float(b_chunk[r]) - s) / float(diag[r])
    return x_new


def _use_blas_order(monkeypatch):
    """Route interpreter runs and PCG's vector kernels through BLAS
    dots, as they ran before the order was fixed."""
    monkeypatch.setattr(interpreter, "dsymgs_block", _blas_dsymgs_block)
    monkeypatch.setattr(pcg_module, "dot",
                        lambda x, y: float(np.dot(x, y)))
    monkeypatch.setattr(pcg_module, "norm2",
                        lambda x: float(np.sqrt(np.dot(x, x))))


def _interpreted():
    return AlreschaConfig(use_plan=False)


@pytest.mark.parametrize("name", SCIENTIFIC_SUITE)
def test_one_sweep_stays_within_the_bound(name, monkeypatch):
    matrix = load_dataset(name, scale=0.3).matrix
    n = matrix.shape[0]
    rng = np.random.default_rng(5)
    b, x_prev = rng.normal(size=n), rng.normal(size=n)
    fixed = Alrescha.from_matrix(KernelType.SYMGS, matrix)
    x_fixed, _ = fixed.run_symgs_sweep(b, x_prev)
    _use_blas_order(monkeypatch)
    blas = Alrescha.from_matrix(KernelType.SYMGS, matrix,
                                config=_interpreted())
    x_blas, _ = blas.run_symgs_sweep(b, x_prev)
    np.testing.assert_allclose(x_fixed, x_blas, rtol=SWEEP_RTOL, atol=0.0)


@pytest.mark.parametrize("name", SCIENTIFIC_SUITE)
def test_pcg_converges_in_the_same_iterations(name, monkeypatch):
    matrix = load_dataset(name, scale=0.1).matrix
    b = np.random.default_rng(3).normal(size=matrix.shape[0])
    fixed = pcg(AcceleratorBackend(matrix), b, tol=1e-10, max_iter=200)
    _use_blas_order(monkeypatch)
    blas = pcg(AcceleratorBackend(matrix, config=_interpreted()), b,
               tol=1e-10, max_iter=200)
    assert fixed.converged and blas.converged
    assert fixed.iterations == blas.iterations
    assert fixed.report.cycles == blas.report.cycles

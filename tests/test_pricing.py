"""The pass pricer equals the per-block interpreter exactly.

:func:`repro.core.pricing.price_pass` prices a pass's clean report and
its fault slack from the programmed table's columns, the block stack
and one cache replay; the interpreter walks the same table block by
block.  On a clean binding with zero operands the two must agree on
every report field, on the counters as an *ordered* item list
(``EnergyModel.energy_pj`` sums them in insertion order), on the
per-path cycles and on the slack ``charge_faults`` takes — across the
Figure 14 datasets, the batch widths, the hardware variants and the
degenerate matrices.
"""

from __future__ import annotations

import functools
from dataclasses import asdict

import numpy as np
import pytest
import scipy.sparse as sp

from repro.analysis import GRAPH_SUITE, SCIENTIFIC_SUITE
from repro.core import Alrescha, AlreschaConfig, KernelType, convert
from repro.core import interpreter
from repro.core.pricing import price_pass
from repro.datasets import load_dataset

SCALE = 0.05

#: Programmed kernel of each pass kind.
KERNELS = {
    "spmv": KernelType.SPMV,
    "symgs": KernelType.SYMGS,
    "bfs": KernelType.BFS,
    "bfs-parents": KernelType.BFS,
    "sssp": KernelType.SSSP,
    "pagerank": KernelType.PAGERANK,
}

#: Hardware variants: ``AlreschaConfig`` overrides, plus ``reorder``.
VARIANTS = {
    "base": {},
    "omega4": {"omega": 4},
    "cache256": {"cache_bytes": 256},
    "exposed": {"hide_reconfig_under_drain": False},
    "element4": {"element_bytes": 4},
    # Half-width lines: an ω-chunk spans two lines, a short row's write
    # may span one.
    "line32": {"cache_line_bytes": 32},
}
#: The §4.1 ablation, SymGS only.
NOREORDER = {"reorder": False}

WIDTHS = (None, 2, 4)


def _cases():
    out = []
    for dataset in SCIENTIFIC_SUITE:
        for kind in ("spmv", "symgs"):
            variants = dict(VARIANTS)
            if kind == "symgs":
                variants["noreorder"] = NOREORDER
            for variant, flips in variants.items():
                for k in WIDTHS:
                    out.append(pytest.param(
                        dataset, kind, flips, k,
                        id=f"{dataset}-{kind}-{variant}-k{k}"))
    for dataset in GRAPH_SUITE:
        for kind in ("bfs", "bfs-parents", "sssp", "pagerank"):
            for variant, flips in VARIANTS.items():
                out.append(pytest.param(dataset, kind, flips, None,
                                        id=f"{dataset}-{kind}-{variant}"))
    return out


@functools.lru_cache(maxsize=None)
def _conversion(source, kernel, omega, reorder):
    """``source``'s conversion: a :data:`DEGENERATE` matrix by name, else
    a dataset at :data:`SCALE`."""
    matrix = (DEGENERATE[source] if source in DEGENERATE
              else load_dataset(source, scale=SCALE).matrix)
    return convert(kernel, matrix, omega=omega, reorder=reorder)


def _bound(source, kind, flips) -> Alrescha:
    """A clean accelerator programmed with ``source`` under ``flips``."""
    flips = dict(flips)
    reorder = flips.pop("reorder", True)
    config = AlreschaConfig(**flips)
    acc = Alrescha(config)
    acc.program(_conversion(source, KERNELS[kind], config.omega, reorder))
    return acc


def _interpreted(acc, kind, k, monkeypatch):
    """The interpreter's clean report of ``kind`` on zero operands, and
    the slack it hands ``charge_faults``."""
    slacks = []
    real = interpreter.charge_faults

    def recording(*args):
        slacks.append(list(args[3]))
        real(*args)

    monkeypatch.setattr(interpreter, "charge_faults", recording)
    _loop, arity = interpreter.ORACLES[kind]
    zeros = np.zeros(acc.n if k is None else (acc.n, k))
    report = interpreter.run(acc, kind, (zeros,) * arity, k)[-1]
    monkeypatch.undo()
    (slack,) = slacks
    return report, slack


def assert_priced_like_interpreter(acc, kind, k, monkeypatch):
    expected, expected_slack = _interpreted(acc, kind, k, monkeypatch)
    report, slack = price_pass(acc.image, acc.config, kind, k)
    assert list(report.counters.items()) == \
        list(expected.counters.items())
    assert list(report.datapath_cycles.items()) == \
        list(expected.datapath_cycles.items())
    assert asdict(report) == asdict(expected)
    assert list(slack) == expected_slack


@pytest.mark.parametrize("dataset,kind,flips,k", _cases())
def test_pricing_equals_interpreter(dataset, kind, flips, k, monkeypatch):
    assert_priced_like_interpreter(_bound(dataset, kind, flips), kind, k,
                                   monkeypatch)


def _off_by_one(n):
    a = np.diag(np.full(n, 4.0))
    a += np.diag(np.full(n - 1, -1.0), k=1) + np.diag(np.full(n - 1, -1.0),
                                                       k=-1)
    return a


def _single_off_diagonal():
    a = np.eye(20) * 2.0
    a[3, 17] = 1.0
    return a


#: Degenerate and boundary matrices, each with the kinds it programs.
DEGENERATE = {
    "empty": np.zeros((8, 8)),
    "one": np.array([[4.0]]),
    "diagonal": np.diag(np.linspace(1.0, 3.0, 20)),
    "single-off-diagonal": _single_off_diagonal(),
    "n7": _off_by_one(7),
    "n9": _off_by_one(9),
    "n65": _off_by_one(65),
    "edgeless": sp.csr_matrix((10, 10)),
}
MATRIX_KINDS = {
    "empty": tuple(KERNELS),
    "one": ("spmv", "symgs"),
    "diagonal": ("spmv", "symgs"),
    "single-off-diagonal": ("spmv", "symgs"),
    "n7": ("spmv", "symgs"),
    "n9": ("spmv", "symgs"),
    "n65": ("spmv", "symgs", "bfs", "pagerank"),
    "edgeless": ("bfs", "bfs-parents", "sssp", "pagerank"),
}


def _degenerate_cases():
    out = []
    for name, kinds in MATRIX_KINDS.items():
        for kind in kinds:
            for k in (WIDTHS if kind in ("spmv", "symgs") else (None,)):
                for flips in ({}, NOREORDER) if kind == "symgs" else ({},):
                    tag = "-noreorder" if flips else ""
                    out.append(pytest.param(
                        name, kind, flips, k,
                        id=f"{name}-{kind}{tag}-k{k}"))
    return out


@pytest.mark.parametrize("name,kind,flips,k", _degenerate_cases())
def test_pricing_equals_interpreter_on_degenerate_matrices(
        name, kind, flips, k, monkeypatch):
    assert_priced_like_interpreter(_bound(name, kind, flips), kind, k,
                                   monkeypatch)

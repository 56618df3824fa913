"""Shared benchmark configuration.

Every benchmark regenerates one table or figure of the paper's
evaluation: it runs the experiment harness once (via
``benchmark.pedantic``), prints the same rows/series the paper reports,
persists them under ``benchmarks/results/`` and asserts the *shape* of
the result (who wins, by roughly what factor) against the paper within
generous bands — our substrate is a behavioural simulator, not the
authors' testbed.

``REPRO_BENCH_SCALE`` (default 0.1) controls dataset scale.  The
committed ``benchmarks/results/`` files were made at the default scale,
so only a default-scale run rewrites them; a run at any other scale
(CI's fast subset uses 0.05) writes its tables to a temporary directory.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

#: Dataset scale the committed result files were made at.
DEFAULT_SCALE = 0.1


def bench_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", str(DEFAULT_SCALE)))


@pytest.fixture(scope="session")
def scale() -> float:
    return bench_scale()


@pytest.fixture(scope="session")
def results_dir(tmp_path_factory) -> Path:
    """``benchmarks/results/`` at the default scale, else a temporary
    directory, so a scaled run never rewrites the committed tables."""
    if bench_scale() != DEFAULT_SCALE:
        return tmp_path_factory.mktemp("results")
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


def save_and_print(results_dir: Path, name: str, text: str) -> None:
    """Write a rendered result table to disk and echo it."""
    path = results_dir / f"{name}.txt"
    path.write_text(text + "\n")
    print()
    print(text)


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, iterations=1, rounds=1)

"""Pinned answers do not depend on the host CPU's BLAS kernel.

A DYNAMIC_ARCH OpenBLAS picks its kernels for the CPU it loads on, and
numpy picks its SIMD loops the same way; a reduction whose order
follows either gives a host with another CPU other answer bits.  This
test reruns the answer-bearing SymGS, SpTRSV and PCG golden cases in a
subprocess on OpenBLAS's Haswell kernels with numpy's AVX-512 loops
switched off — what an AVX2-only host runs — and requires digests
identical to the in-process run's.
"""

from __future__ import annotations

import importlib.util
import json
import os
import pathlib
import platform
import subprocess
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA_DIR = ROOT / "tests" / "data"

#: Kernel-report golden groups whose outputs come from the D-SymGS path.
KERNELS = ("sptrsv", "symgs_sweep", "symgs_batch_k2", "symgs_batch_k4")
#: A model-mode storm whose degraded jobs take the reference sweeps.
STORM_CASE = "model/storm/seed2"
#: A simulate-mode serve with pcg jobs beside spmv and symgs jobs.
SIMULATE_CASE = "pcg_mix"


def _regen(name):
    spec = importlib.util.spec_from_file_location(
        name, DATA_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def case_digests() -> dict:
    """Golden entry of every compared case, by ``golden:case`` id."""
    kernel = _regen("regen_kernel_reports")
    storm = _regen("regen_storm_reports")
    simulate = _regen("regen_simulate_reports")
    out = {f"kernel:{cid}": kernel.run_case(name, matrix, settings)
           for cid, name, matrix, settings in kernel.cases()
           if name in KERNELS}
    out[f"storm:{STORM_CASE}"] = storm.run_case(
        **dict(storm.cases())[STORM_CASE])
    out[f"simulate:{SIMULATE_CASE}"] = simulate.run_case(
        **dict(simulate.cases())[SIMULATE_CASE])
    return out


def _cpu_dispatch():
    """numpy's ``(dispatchable, detected)`` CPU features."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return umath.__cpu_dispatch__, umath.__cpu_features__


def _skip_reason():
    """Why this host cannot switch kernels, or None."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return f"OpenBLAS's Haswell kernels need x86-64, not " \
               f"{platform.machine()}"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "numpy does not report its BLAS build"
    config = str(blas.get("openblas configuration", ""))
    if "DYNAMIC_ARCH" not in config:
        return f"BLAS {blas.get('name')!r} is not a DYNAMIC_ARCH OpenBLAS"
    if not _cpu_dispatch()[1].get("AVX2"):
        return "the CPU cannot run OpenBLAS's Haswell kernels"
    return None


SKIP_REASON = _skip_reason()


def _haswell_env() -> dict:
    dispatch, detected = _cpu_dispatch()
    wide = [f for f in dispatch
            if (f.startswith("AVX512") or f == "X86_V4") and detected.get(f)]
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    if wide:
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(wide)
    return env


@pytest.mark.skipif(SKIP_REASON is not None, reason=str(SKIP_REASON))
def test_haswell_kernels_give_the_same_digests():
    script = ("import json; from tests.test_blas_kernel_independence "
              "import case_digests; print(json.dumps(case_digests()))")
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                          env=_haswell_env(), capture_output=True,
                          text=True, check=False)
    assert proc.returncode == 0, proc.stderr[-2000:]
    haswell = json.loads(proc.stdout.splitlines()[-1])
    here = case_digests()
    assert sorted(haswell) == sorted(here)
    moved = sorted(cid for cid in here if haswell[cid] != here[cid])
    assert not moved, (
        f"{len(moved)} case(s) differ under OpenBLAS's Haswell kernels: "
        + ", ".join(moved[:8]))

"""Content-addressed artifact store: round-trip fidelity.

The store's contract is byte-exactness: an artifact loaded from disk
must reproduce the compile path bit for bit — same program bytes (order
flag included), same device image, same non-zero count — and an
accelerator programmed from a loaded artifact must produce
field-identical :class:`SimReport`\\ s and byte-identical trace
exports.  The hypothesis property sweeps matrix shapes, kernels and
the order flag; the serving tests pin the headline guarantee that a
warm-started serve run performs *zero* compilations while its report
stays byte-identical.  A traced start over the span-less templates an
untraced start priced captures each pass's spans once and stores them
for the next.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import interpreter
from repro.core.accelerator import Alrescha, AlreschaConfig
from repro.core.config import KernelType
from repro.core.convert import convert
from repro.core.device_image import encode_image
from repro.core.report import report_json
from repro.host.compile import encode_program
from repro.observe import Tracer, dumps_chrome_trace
from repro.runtime import serve
from repro.store import (
    ArtifactStore,
    config_fingerprint,
    content_key,
    matrix_crc,
)

from .conftest import make_spd_dense


def _prime(store, matrix, kernel=KernelType.SPMV,
           config=None, reorder=True):
    """Compile-and-store one artifact, returning (conv, key)."""
    return store.conversion(kernel, matrix, config or AlreschaConfig(),
                            reorder=reorder)


class TestContentKey:
    def test_key_is_deterministic(self, spd_small):
        cfg = AlreschaConfig()
        k1 = content_key(KernelType.SPMV, spd_small, cfg)
        k2 = content_key(KernelType.SPMV, spd_small, cfg)
        assert k1 == k2

    def test_key_varies_with_kernel_matrix_config(self, spd_small,
                                                  spd_medium):
        cfg = AlreschaConfig()
        base = content_key(KernelType.SPMV, spd_small, cfg)
        assert content_key(KernelType.SYMGS, spd_small, cfg) != base
        assert content_key(KernelType.SPMV, spd_medium, cfg) != base
        other = AlreschaConfig(omega=4)
        assert content_key(KernelType.SPMV, spd_small, other) != base
        assert content_key(KernelType.SPMV, spd_small, cfg,
                           reorder=False) != base

    def test_fingerprint_ignores_runtime_only_knobs(self):
        """Fault model, tracer, NaN/Inf guard and store attachment must
        not change the content key — all pool devices (and the
        fault-free golden device) share one artifact."""
        from repro.sim.faults import FaultModel
        base = config_fingerprint(AlreschaConfig())
        assert config_fingerprint(AlreschaConfig(
            fault_model=FaultModel(rate=0.5, seed=1))) == base
        assert config_fingerprint(AlreschaConfig(
            guard_nonfinite=True)) == base
        assert config_fingerprint(AlreschaConfig(
            tracer=Tracer())) == base
        assert config_fingerprint(AlreschaConfig(
            artifact_store=object())) == base
        assert config_fingerprint(AlreschaConfig(omega=4)) != base

    def test_matrix_crc_sees_values_not_just_pattern(self, spd_small):
        other = spd_small.copy()
        other[0, 0] += 1.0
        assert matrix_crc(spd_small) != matrix_crc(other)


class TestRoundTripProperty:
    @settings(max_examples=12, deadline=None)
    @given(n=st.integers(min_value=9, max_value=48),
           seed=st.integers(min_value=0, max_value=6),
           kernel=st.sampled_from([KernelType.SPMV, KernelType.SYMGS]),
           reorder=st.booleans())
    def test_store_load_execute_identical(self, tmp_path_factory, n,
                                          seed, kernel, reorder):
        """store -> load -> execute reproduces the compile path exactly:
        byte-identical artifacts, field-identical reports, byte-identical
        trace exports — for the §4.1-order ablation too."""
        matrix = make_spd_dense(n, density=0.2, seed=seed)
        root = tmp_path_factory.mktemp("store")

        cold = ArtifactStore(root)
        conv_cold, key = _prime(cold, matrix, kernel, reorder=reorder)
        assert cold.report().conversions_compiled == 1

        # A fresh store instance on the same directory must load, not
        # compile.
        warm = ArtifactStore(root)
        conv_warm, key2 = _prime(warm, matrix, kernel, reorder=reorder)
        rep = warm.report()
        assert key2 == key
        assert (rep.conversions_compiled, rep.conversions_loaded) == (0, 1)

        # Byte-identical artifacts.
        assert (encode_program(conv_warm.kernel, conv_warm.table)
                == encode_program(conv_cold.kernel, conv_cold.table))
        assert (encode_image(conv_warm.matrix)
                == encode_image(conv_cold.matrix))
        assert conv_warm.nnz == conv_cold.nnz == np.count_nonzero(matrix)
        assert conv_warm.reordered == conv_cold.reordered
        assert conv_cold.reordered is (reorder
                                       or kernel is KernelType.SPMV)

        # Field-identical execution.
        x = np.random.default_rng(seed).normal(size=n)
        acc_cold, acc_warm = Alrescha(), Alrescha()
        acc_cold.program(conv_cold)
        acc_warm.program(conv_warm)
        if kernel is KernelType.SPMV:
            y_cold, rep_cold = acc_cold.run_spmv(x)
            y_warm, rep_warm = acc_warm.run_spmv(x)
        else:
            y_cold, rep_cold = acc_cold.run_symgs_sweep(
                x, np.zeros(n))
            y_warm, rep_warm = acc_warm.run_symgs_sweep(
                x, np.zeros(n))
        np.testing.assert_array_equal(y_cold, y_warm)
        assert rep_cold == rep_warm

        # Byte-identical trace exports.
        traces = []
        for conv in (conv_cold, conv_warm):
            tracer = Tracer()
            acc = Alrescha(AlreschaConfig(tracer=tracer))
            acc.program(conv)
            if kernel is KernelType.SPMV:
                acc.run_spmv(x)
            else:
                acc.run_symgs_sweep(x, np.zeros(n))
            traces.append(dumps_chrome_trace(tracer))
        assert traces[0] == traces[1]

    def test_loaded_artifact_round_trips_through_from_matrix(
            self, spd_small, tmp_path):
        """The high-level entry point (from_matrix with an attached
        store) produces the same answers as the storeless path."""
        x = np.random.default_rng(0).normal(size=spd_small.shape[0])
        plain = Alrescha.from_matrix(KernelType.SPMV, spd_small)
        y_plain, rep_plain = plain.run_spmv(x)

        store = ArtifactStore(tmp_path)
        cfg = AlreschaConfig(artifact_store=store)
        cold = Alrescha.from_matrix(KernelType.SPMV, spd_small,
                                    config=cfg)
        y_cold, rep_cold = cold.run_spmv(x)

        warm_store = ArtifactStore(tmp_path)
        cfg2 = AlreschaConfig(artifact_store=warm_store)
        warm = Alrescha.from_matrix(KernelType.SPMV, spd_small,
                                    config=cfg2)
        y_warm, rep_warm = warm.run_spmv(x)

        assert warm_store.report().conversions_compiled == 0
        np.testing.assert_array_equal(y_plain, y_cold)
        np.testing.assert_array_equal(y_plain, y_warm)
        assert rep_plain == rep_cold == rep_warm


class TestWarmStartServing:
    def _serve(self, store):
        return serve(n_requests=8, n_devices=2, seed=3, scale=0.02,
                     artifact_store=store)

    def test_warm_start_serves_with_zero_compilations(self, tmp_path):
        cold = ArtifactStore(tmp_path)
        _, rep_cold = self._serve(cold)
        assert cold.report().conversions_compiled > 0

        warm = ArtifactStore(tmp_path)
        _, rep_warm = self._serve(warm)
        wrep = warm.report()
        # The headline guarantee: the programming phase is gone.
        assert wrep.conversions_compiled == 0
        assert wrep.templates_captured == 0
        assert wrep.conversions_loaded > 0
        # ... and nothing about the answers changed.
        assert report_json(rep_cold) == report_json(rep_warm)

    def test_storeless_default_is_unperturbed(self, tmp_path):
        """artifact_store=None (the default) must stay field-identical
        to a stored run — attaching a store changes cost of programming,
        never results."""
        _, rep_plain = serve(n_requests=8, n_devices=2, seed=3,
                             scale=0.02)
        _, rep_stored = self._serve(ArtifactStore(tmp_path))
        assert report_json(rep_plain) == report_json(rep_stored)

    def test_store_report_json_is_canonical(self, tmp_path):
        import json
        store = ArtifactStore(tmp_path)
        self._serve(store)
        payload = report_json(store.report())
        assert payload == json.dumps(
            json.loads(payload), sort_keys=True,
            separators=(",", ":")) + "\n"
        assert "conversions_compiled" in payload


class TestTracedStartOverPricedTemplates:
    """Untraced starts price their templates and store them without
    spans; a traced start needs spans, so it captures each pass once
    on the interpreter and stores the richer template for the next."""

    def _start(self, matrix, store, tracer):
        """Program SpMV and SymGS through ``store`` and run each pass
        once under ``tracer``."""
        config = AlreschaConfig(artifact_store=store, tracer=tracer)
        n = matrix.shape[0]
        rng = np.random.default_rng(n)
        spmv = Alrescha.from_matrix(KernelType.SPMV, matrix, config=config)
        symgs = Alrescha.from_matrix(KernelType.SYMGS, matrix,
                                     config=config)
        spmv.run_spmv(rng.normal(size=n))
        symgs.run_symgs_sweep(rng.normal(size=n), rng.normal(size=n))

    def test_traced_start_captures_spans_once(self, spd_medium, tmp_path,
                                              monkeypatch):
        captures = []
        real = interpreter.run

        def counting(acc, kind, operands, k=None):
            captures.append(kind)
            return real(acc, kind, operands, k)

        monkeypatch.setattr(interpreter, "run", counting)
        cold = ArtifactStore(tmp_path)
        self._start(spd_medium, cold, None)
        assert cold.report().templates_captured == 2
        assert captures == []

        primed = ArtifactStore(tmp_path)
        tracer = Tracer()
        self._start(spd_medium, primed, tracer)
        report = primed.report()
        assert report.conversions_compiled == 0
        assert report.templates_loaded == 0
        assert report.templates_captured == 2
        assert captures == ["spmv", "symgs"]
        storeless = Tracer()
        self._start(spd_medium, None, storeless)
        expected = dumps_chrome_trace(storeless)
        assert dumps_chrome_trace(tracer) == expected

        del captures[:]
        again = ArtifactStore(tmp_path)
        tracer = Tracer()
        self._start(spd_medium, again, tracer)
        report = again.report()
        assert report.templates_captured == 0
        assert report.templates_loaded == 2
        assert captures == []
        assert dumps_chrome_trace(tracer) == expected


class TestLRU:
    def _matrices(self, count):
        return [make_spd_dense(12 + 3 * i, density=0.25, seed=i)
                for i in range(count)]

    def test_capacity_bounds_memory_and_evicts_lru(self, tmp_path):
        store = ArtifactStore(tmp_path, capacity=2)
        keys = [
            _prime(store, m)[1] for m in self._matrices(3)
        ]
        rep = store.report()
        assert rep.entries_in_memory == 2
        assert rep.evictions == 1
        # Deterministic order: the first-inserted (least recently used)
        # entry is the one evicted; the disk copy survives.
        assert sorted(store.keys()) == sorted(keys)

    def test_evicted_entry_reloads_from_disk(self, tmp_path):
        store = ArtifactStore(tmp_path, capacity=2)
        mats = self._matrices(3)
        key0 = _prime(store, mats[0])[1]
        _prime(store, mats[1])
        _prime(store, mats[2])  # evicts key0
        before = store.report()
        assert before.memory_hits == 0
        _, again = _prime(store, mats[0])
        after = store.report()
        assert again == key0
        assert after.conversions_loaded == before.conversions_loaded + 1
        assert after.conversions_compiled == 3

    def test_touch_refreshes_recency(self, tmp_path):
        store = ArtifactStore(tmp_path, capacity=2)
        mats = self._matrices(3)
        key0 = _prime(store, mats[0])[1]
        _prime(store, mats[1])
        _prime(store, mats[0])  # memory hit: key0 becomes most recent
        assert store.report().memory_hits == 1
        _prime(store, mats[2])  # must evict mats[1], not key0
        _, hit = _prime(store, mats[0])
        rep = store.report()
        assert hit == key0
        assert rep.memory_hits == 2  # key0 still resident
        assert rep.conversions_loaded == 0

    def test_invalid_capacity_or_policy_rejected(self, tmp_path):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            ArtifactStore(tmp_path, capacity=0)
        with pytest.raises(ConfigError):
            ArtifactStore(tmp_path, on_error="shrug")

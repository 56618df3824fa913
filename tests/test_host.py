"""Tests for the host-side compilation toolchain."""

import numpy as np
import pytest

from repro.core import Alrescha, AlreschaConfig, KernelType
from repro.errors import ConfigError
from repro.host import (
    CompiledKernel,
    compile_kernel,
    load_kernel,
    program_accelerator,
)


class TestCompile:
    def test_artifact_metadata(self, spd_medium):
        compiled = compile_kernel(KernelType.SYMGS, spd_medium)
        assert compiled.kernel is KernelType.SYMGS
        assert compiled.n == 70
        assert compiled.omega == 8
        assert compiled.nnz == int(np.count_nonzero(spd_medium))
        assert compiled.total_bytes == len(compiled.program) \
            + len(compiled.image)

    def test_save_and_load_round_trip(self, spd_medium, tmp_path):
        compiled = compile_kernel(KernelType.SPMV, spd_medium)
        prefix = str(tmp_path / "kernel")
        prog_path, img_path = compiled.save(prefix)
        assert prog_path.exists() and img_path.exists()
        loaded = load_kernel(prefix)
        assert loaded.kernel is KernelType.SPMV
        assert loaded.program == compiled.program
        assert loaded.image == compiled.image

    def test_load_missing_artifacts(self, tmp_path):
        with pytest.raises(ConfigError):
            load_kernel(str(tmp_path / "nope"))

    def test_reordered_program_header_holds_bare_kernel_code(
            self, spd_medium):
        """Only the §4.1-order ablation marks the program header, so a
        reordered program's kernel byte is the plain kernel code."""
        compiled = compile_kernel(KernelType.SYMGS, spd_medium)
        assert compiled.reordered is True
        assert compiled.program[4] == list(KernelType).index(
            KernelType.SYMGS)


class TestProgramAccelerator:
    def test_spmv_bit_identical(self, spd_medium, rng):
        direct = Alrescha.from_matrix(KernelType.SPMV, spd_medium)
        via_bytes = program_accelerator(
            compile_kernel(KernelType.SPMV, spd_medium))
        x = rng.normal(size=70)
        y1, _ = direct.run_spmv(x)
        y2, _ = via_bytes.run_spmv(x)
        np.testing.assert_array_equal(y1, y2)

    def test_symgs_bit_identical(self, spd_medium, rng):
        direct = Alrescha.from_matrix(KernelType.SYMGS, spd_medium)
        via_bytes = program_accelerator(
            compile_kernel(KernelType.SYMGS, spd_medium))
        b = rng.normal(size=70)
        x0 = rng.normal(size=70)
        x1, _ = direct.run_symgs_sweep(b, x0)
        x2, _ = via_bytes.run_symgs_sweep(b, x0)
        np.testing.assert_array_equal(x1, x2)

    def test_disk_round_trip_runs(self, spd_medium, rng, tmp_path):
        compiled = compile_kernel(KernelType.SPMV, spd_medium)
        compiled.save(str(tmp_path / "k"))
        acc = program_accelerator(load_kernel(str(tmp_path / "k")))
        x = rng.normal(size=70)
        y, report = acc.run_spmv(x)
        np.testing.assert_allclose(y, spd_medium @ x, atol=1e-9)
        assert report.cycles > 0

    def test_loaded_ablation_keeps_natural_order(self, tmp_path):
        """A reorder-ablation SymGS kernel saved and reloaded costs what
        the same kernel programmed directly costs: the program bytes
        carry the order flag."""
        from repro.datasets import load_dataset

        matrix = load_dataset("stencil27", scale=0.1).matrix
        n = matrix.shape[0]
        compile_kernel(KernelType.SYMGS, matrix, reorder=False).save(
            str(tmp_path / "natural"))
        loaded = load_kernel(str(tmp_path / "natural"))
        assert loaded.reordered is False
        b, x0 = np.ones(n), np.zeros(n)
        direct = Alrescha.from_matrix(KernelType.SYMGS, matrix,
                                      reorder=False)
        x1, want = direct.run_symgs_sweep(b, x0)
        x2, got = program_accelerator(loaded).run_symgs_sweep(b, x0)
        np.testing.assert_array_equal(x1, x2)
        assert got == want
        assert got.cycles == pytest.approx(3835.3, abs=0.05)
        assert got.counters.get("dram_requests") == 262

    def test_reload_decodes_each_binary_once(self, spd_medium, tmp_path,
                                             monkeypatch):
        """Loading a saved kernel and programming a device from it
        decodes the program and the image once each."""
        import repro.host.compile as host_compile

        calls = {"program": 0, "image": 0}

        def counted(name, decode):
            def wrapper(blob):
                calls[name] += 1
                return decode(blob)
            return wrapper

        monkeypatch.setattr(host_compile, "decode_program",
                            counted("program", host_compile.decode_program))
        monkeypatch.setattr(host_compile, "decode_image",
                            counted("image", host_compile.decode_image))
        compile_kernel(KernelType.SYMGS, spd_medium).save(
            str(tmp_path / "k"))
        program_accelerator(load_kernel(str(tmp_path / "k")))
        assert calls == {"program": 1, "image": 1}

    def test_replaced_artefact_programs_its_own_bytes(self, spd_medium,
                                                      rng, tmp_path):
        """A copy of a loaded artefact with other bytes does not reuse
        the loader's decode."""
        import dataclasses

        compile_kernel(KernelType.SPMV, spd_medium).save(
            str(tmp_path / "k"))
        loaded = load_kernel(str(tmp_path / "k"))
        other = compile_kernel(KernelType.SPMV, 2.0 * spd_medium)
        copy = dataclasses.replace(loaded, program=other.program,
                                   image=other.image)
        x = rng.normal(size=70)
        y, _ = program_accelerator(copy).run_spmv(x)
        np.testing.assert_allclose(y, 2.0 * spd_medium @ x, atol=1e-9)

    def test_metadata_mismatch_detected(self, spd_medium):
        good = compile_kernel(KernelType.SPMV, spd_medium)
        tampered = CompiledKernel(
            kernel=KernelType.SYMGS,  # wrong metadata
            n=good.n, omega=good.omega, nnz=good.nnz,
            reordered=good.reordered,
            program=good.program, image=good.image,
        )
        with pytest.raises(ConfigError):
            program_accelerator(tampered)

    def test_custom_hardware_config(self, spd_medium, rng):
        compiled = compile_kernel(KernelType.SPMV, spd_medium)
        acc = program_accelerator(
            compiled, config=AlreschaConfig(bandwidth_bytes_per_s=576e9))
        x = rng.normal(size=70)
        _y, report = acc.run_spmv(x)
        assert report.bytes_per_cycle == pytest.approx(576e9 / 2.5e9)


class TestPrecisionOption:
    def test_fp32_traffic_halves_streamed_bytes(self, spd_medium, rng):
        x = rng.normal(size=70)
        acc64 = Alrescha.from_matrix(KernelType.SPMV, spd_medium)
        acc32 = Alrescha.from_matrix(
            KernelType.SPMV, spd_medium,
            config=AlreschaConfig(element_bytes=4))
        y64, r64 = acc64.run_spmv(x)
        y32, r32 = acc32.run_spmv(x)
        # Functional results identical (numerics stay fp64).
        np.testing.assert_array_equal(y64, y32)
        # Payload traffic halves; total cycles shrink (until the ALU
        # row becomes the bottleneck).
        assert r32.useful_bytes == pytest.approx(r64.useful_bytes / 2)
        assert r32.cycles < r64.cycles

    def test_fp32_saves_energy(self, spd_medium, rng):
        x = rng.normal(size=70)
        acc64 = Alrescha.from_matrix(KernelType.SPMV, spd_medium)
        acc32 = Alrescha.from_matrix(
            KernelType.SPMV, spd_medium,
            config=AlreschaConfig(element_bytes=4))
        _y, r64 = acc64.run_spmv(x)
        _y, r32 = acc32.run_spmv(x)
        assert r32.energy_j < r64.energy_j

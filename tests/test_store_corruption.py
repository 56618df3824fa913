"""Artifact-store damage handling: a corrupt artifact is never served.

Every load travels through the schema-versioned checksum envelope, so
truncation, bit flips and version skew are caught *before* any payload
is trusted.  Policy decides what happens next: ``on_error="raise"``
surfaces a typed :class:`~repro.errors.StoreError`;
``on_error="recompile"`` (the default) falls back to compiling from
the source matrix — counted in the :class:`~repro.store.StoreReport`
— and never a wrong answer.  ``repro cache verify`` exits nonzero
naming the offending key.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.core.accelerator import AlreschaConfig
from repro.core.config import KernelType
from repro.core.device_image import decode_image, encode_image
from repro.errors import StoreCorruptionError, StoreError, StoreVersionError
from repro.host.compile import encode_program
from repro.store import (
    ArtifactStore,
    STORE_SCHEMA_VERSION,
    pack_envelope,
    unpack_envelope,
)
from repro.cli import main

from .conftest import make_spd_dense


@pytest.fixture
def matrix():
    return make_spd_dense(20, density=0.2, seed=4)


@pytest.fixture
def primed(tmp_path, matrix):
    """A store directory holding one valid artifact; returns (root, key)."""
    store = ArtifactStore(tmp_path)
    _, key = store.conversion(KernelType.SPMV, matrix, AlreschaConfig())
    return tmp_path, key


def _forge_image_payload(path):
    """Double one stored matrix value inside an artifact's device image,
    re-stamping that block's CRC in the image and every envelope CRC:
    no checksum can catch the forgery."""
    manifest, sections = unpack_envelope(path.read_bytes())
    image = decode_image(sections["image"])
    block = next(b for b in image.stream() if b.values.any())
    flat = block.values.reshape(-1)
    flat[np.flatnonzero(flat)[0]] *= 2.0
    forged = encode_image(image)
    assert forged != sections["image"]
    sections["image"] = forged
    manifest.pop("sections", None)
    path.write_bytes(pack_envelope(manifest, sections))


def _bump_version(path):
    """Rewrite the envelope header to claim a future schema version."""
    raw = bytearray(path.read_bytes())
    magic, version, reserved, mlen, mcrc = struct.unpack(
        ">4sHHII", raw[:16])
    raw[:16] = struct.pack(">4sHHII", magic, version + 1, reserved,
                           mlen, mcrc)
    path.write_bytes(bytes(raw))


class TestEnvelope:
    def test_pack_unpack_round_trip(self):
        manifest = {"key": "k", "n": 3}
        sections = {"b": b"world", "a": b"hello"}
        data = pack_envelope(manifest, sections)
        got_manifest, got_sections = unpack_envelope(data)
        assert got_manifest["key"] == "k"
        assert got_sections == sections

    @pytest.mark.parametrize("cut", [0, 3, 15])
    def test_truncated_header_rejected(self, cut):
        data = pack_envelope({"k": 1}, {"s": b"x"})
        with pytest.raises(StoreCorruptionError, match="truncated"):
            unpack_envelope(data[:cut])

    def test_bad_magic_rejected(self):
        data = bytearray(pack_envelope({"k": 1}, {"s": b"x"}))
        data[0] ^= 0xFF
        with pytest.raises(StoreCorruptionError, match="magic"):
            unpack_envelope(bytes(data))

    def test_future_version_is_typed_distinctly(self):
        data = bytearray(pack_envelope({"k": 1}, {"s": b"x"}))
        data[4:6] = struct.pack(">H", STORE_SCHEMA_VERSION + 1)
        with pytest.raises(StoreVersionError) as exc:
            unpack_envelope(bytes(data))
        assert str(STORE_SCHEMA_VERSION + 1) in str(exc.value)

    def test_payload_bit_flip_caught_by_section_crc(self):
        data = bytearray(pack_envelope({"k": 1}, {"s": b"payload"}))
        data[-2] ^= 0x01
        with pytest.raises(StoreCorruptionError, match="checksum"):
            unpack_envelope(bytes(data))


class TestLoadPolicy:
    def _load(self, root, matrix, **kwargs):
        store = ArtifactStore(root, **kwargs)
        conv, key = store.conversion(KernelType.SPMV, matrix,
                                     AlreschaConfig())
        return store, conv

    @pytest.fixture(params=["truncate", "bitflip"])
    def damaged(self, request, primed):
        root, key = primed
        path = root / f"{key}.alra"
        raw = path.read_bytes()
        if request.param == "truncate":
            path.write_bytes(raw[: len(raw) // 2])
        else:
            flipped = bytearray(raw)
            flipped[len(raw) // 2] ^= 0x10
            path.write_bytes(bytes(flipped))
        return root, key

    def test_raise_policy_surfaces_typed_error(self, damaged, matrix):
        root, _ = damaged
        store = ArtifactStore(root, on_error="raise")
        with pytest.raises(StoreError):
            store.conversion(KernelType.SPMV, matrix, AlreschaConfig())

    def test_recompile_policy_degrades_correctly(self, damaged, matrix):
        """Default policy: the damaged artifact is abandoned, the
        conversion recompiles from source, and the fresh artifact
        overwrites the damaged one — never a wrong answer."""
        root, key = damaged
        store, conv = self._load(root, matrix)
        rep = store.report()
        assert rep.corrupt_fallbacks == 1
        assert rep.conversions_compiled == 1
        assert rep.conversions_loaded == 0
        # The recompiled result matches a storeless compile exactly.
        from repro.core.convert import convert
        fresh = convert(KernelType.SPMV, matrix, omega=8)
        assert (encode_program(conv.kernel, conv.table)
                == encode_program(fresh.kernel, fresh.table))
        assert encode_image(conv.matrix) == encode_image(fresh.matrix)
        # ... and the rewritten artifact now loads cleanly.
        retry = ArtifactStore(root)
        retry.conversion(KernelType.SPMV, matrix, AlreschaConfig())
        assert retry.report().conversions_loaded == 1

    def test_version_skew_counted_separately(self, primed, matrix):
        root, key = primed
        _bump_version(root / f"{key}.alra")
        with pytest.raises(StoreVersionError):
            ArtifactStore(root, on_error="raise").conversion(
                KernelType.SPMV, matrix, AlreschaConfig())
        # Default policy: recompile (which also rewrites the artifact
        # at the current schema version).
        store, _ = self._load(root, matrix)
        rep = store.report()
        assert rep.version_fallbacks == 1
        assert rep.corrupt_fallbacks == 0
        assert rep.conversions_compiled == 1
        retry = ArtifactStore(root)
        retry.conversion(KernelType.SPMV, matrix, AlreschaConfig())
        assert retry.report().conversions_loaded == 1


class TestVerify:
    def test_clean_store_verifies(self, primed):
        root, key = primed
        assert ArtifactStore(root).verify() == []

    def test_damaged_artifact_named(self, primed):
        root, key = primed
        path = root / f"{key}.alra"
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x40
        path.write_bytes(bytes(raw))
        problems = ArtifactStore(root).verify()
        assert [k for k, _ in problems] == [key]
        assert "checksum" in problems[0][1]

    def test_forged_content_caught_by_recompile_diff(self, tmp_path):
        """A tampered artifact with *valid* checksums — the envelope
        alone cannot catch it — is exposed by verify's
        recompile-and-byte-diff against the recorded dataset source."""
        from repro.datasets import load_dataset

        mat = load_dataset("stencil27", scale=0.02).matrix
        store = ArtifactStore(tmp_path)
        _, key = store.conversion(
            KernelType.SPMV, mat, AlreschaConfig(),
            source={"dataset": "stencil27", "scale": 0.02})
        assert store.verify() == []

        _forge_image_payload(tmp_path / f"{key}.alra")

        problems = ArtifactStore(tmp_path).verify()
        assert [k for k, _ in problems] == [key]
        assert "'image' differs" in problems[0][1]

    def test_reversed_artifact_recompiles_through_its_transform(
            self, tmp_path):
        """A PCG backend programs its backward sweep on the
        order-reversed matrix and records ``transform: reverse`` in
        that artifact's source; verify recompiles it through the same
        reversal.  af_shell changes under reversal (three distinct
        artifacts, where stencil27 stores two), so a verify that
        skipped the transform would flag the clean artifact."""
        from repro.datasets import load_dataset
        from repro.solvers import AcceleratorBackend

        source = {"dataset": "af_shell", "scale": 0.05}
        store = ArtifactStore(tmp_path)
        AcceleratorBackend(load_dataset("af_shell", scale=0.05).matrix,
                           config=AlreschaConfig(artifact_store=store),
                           source=source)
        sources = {key: store.entry_info(key)["source"]
                   for key in store.keys()}
        assert len(sources) == 3
        reversed_keys = [key for key, src in sources.items()
                         if src.get("transform") == "reverse"]
        assert len(reversed_keys) == 1
        assert sources[reversed_keys[0]] == {**source,
                                             "transform": "reverse"}
        assert store.verify() == []

        _forge_image_payload(tmp_path / f"{reversed_keys[0]}.alra")

        problems = ArtifactStore(tmp_path).verify()
        assert [k for k, _ in problems] == reversed_keys
        assert "'image' differs" in problems[0][1]


class TestCacheVerifyCLI:
    def test_clean_store_exits_zero(self, primed, capsys):
        root, _ = primed
        assert main(["cache", "verify", "--store", str(root)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_damaged_store_exits_one_naming_key(self, primed, capsys):
        root, key = primed
        path = root / f"{key}.alra"
        path.write_bytes(path.read_bytes()[:40])
        assert main(["cache", "verify", "--store", str(root)]) == 1
        err = capsys.readouterr().err
        assert key in err
        assert "FAIL" in err

    def test_specific_key_selection(self, primed, capsys):
        root, key = primed
        assert main(["cache", "verify", "--store", str(root),
                     key]) == 0
        assert main(["cache", "verify", "--store", str(root),
                     "no-such-key"]) == 1
        assert "no-such-key" in capsys.readouterr().err

"""Content-addressed artifact store for compiled accelerator state.

The programming phase — Algorithm 1's conversion, ``encode_image()``,
and the per-pass/per-width template captures — is a pure function of the
matrix content, the compile-relevant hardware configuration, and the
kernel.  This store keys that state by content hash
(``<kernel>-w<ω>-<r|n>-<matrix crc32>-<config crc32>``), persists it to
disk in the checksummed envelope of :mod:`repro.store.envelope`, and
fronts the directory with an in-process LRU — so a warm process (or a
second device in the same one) starts answering traffic with zero
compilations, the paper's one-time-configuration amortization (§4)
extended across process lifetimes.

Trust model: a loaded artifact is *never* assumed intact.  The envelope
verifies a CRC per section before any byte is decoded, the decoded
pieces are cross-checked against the manifest, and corruption or a
schema-version mismatch degrades to recompilation (counted in the
:class:`StoreReport`) under the default ``on_error="recompile"`` policy
— never to a wrong answer.  ``on_error="raise"`` surfaces the typed
:class:`~repro.errors.StoreError` instead, for tests and batch audits.
"""

from __future__ import annotations

import json
import os
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.accelerator import COMPILE_FIELDS
from repro.core.binary import decode_program, encode_program
from repro.core.convert import ConversionResult, convert
from repro.core.device_image import decode_image, encode_image
from repro.errors import (
    ConfigError,
    CorruptionError,
    FormatError,
    ReproError,
    StoreCorruptionError,
    StoreError,
)
from repro.formats import BCSRMatrix
from repro.formats.base import SparseFormat
from repro.store.envelope import pack_envelope, unpack_envelope
from repro.store.templates import decode_templates, encode_templates

#: Stored-file suffix; one file per content key.
ARTIFACT_SUFFIX = ".alra"

#: Sections every artifact must carry.
_REQUIRED_SECTIONS = ("program", "image", "bcsr_indptr", "bcsr_cols",
                      "bcsr_blocks", "templates")


# ---------------------------------------------------------------------
# Content addressing
# ---------------------------------------------------------------------
def matrix_crc(matrix) -> int:
    """CRC32 of a matrix operand's content.

    Deterministic per representation — the same CSR (or dense array, or
    BCSR) always hashes the same across processes; distinct
    representations of equal values may hash differently, which only
    costs a duplicate store entry, never a wrong hit.
    """
    if isinstance(matrix, BCSRMatrix):
        crc = zlib.crc32(
            f"bcsr:{matrix.shape[0]}:{matrix.shape[1]}:"
            f"{matrix.omega}".encode())
        for arr, dt in ((matrix.block_indptr, "<i8"),
                        (matrix.block_cols, "<i8"),
                        (matrix.blocks, "<f8")):
            crc = zlib.crc32(
                np.ascontiguousarray(arr, dtype=dt).tobytes(), crc)
        return crc
    if hasattr(matrix, "tocsr"):  # scipy.sparse, duck-typed
        csr = matrix.tocsr()
        if not csr.has_sorted_indices:
            csr = csr.sorted_indices()
        crc = zlib.crc32(
            f"csr:{csr.shape[0]}:{csr.shape[1]}".encode())
        for arr, dt in ((csr.indptr, "<i8"), (csr.indices, "<i8"),
                        (csr.data, "<f8")):
            crc = zlib.crc32(
                np.ascontiguousarray(arr, dtype=dt).tobytes(), crc)
        return crc
    if isinstance(matrix, SparseFormat):
        dense = matrix.to_dense()
    else:
        dense = np.asarray(matrix, dtype=np.float64)
    dense = np.ascontiguousarray(dense, dtype=np.float64)
    crc = zlib.crc32(
        f"dense:{dense.shape[0]}:{dense.shape[1]}".encode())
    return zlib.crc32(dense.tobytes(), crc)


def config_fingerprint(config) -> int:
    """CRC32 of the compile-relevant ``AlreschaConfig`` surface.

    Canonical JSON over :data:`~repro.core.accelerator.COMPILE_FIELDS`
    plus the energy model (its constants are baked into captured report
    templates); runtime knobs are excluded, so all devices of a pool
    share one artifact regardless of their fault wiring.
    """
    body: Dict[str, object] = {
        f: getattr(config, f) for f in COMPILE_FIELDS}
    body["energy_model"] = {
        "event_energy_pj": dict(
            sorted(config.energy_model.event_energy_pj.items())),
        "static_power_w": config.energy_model.static_power_w,
    }
    raw = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(raw.encode("utf-8"))


def content_key(kernel, matrix, config, reorder: bool = True) -> str:
    """The content address of one ``(kernel, matrix, config)`` artifact."""
    return (f"{kernel.value}-w{config.omega}-"
            f"{'r' if reorder else 'n'}-"
            f"{matrix_crc(matrix):08x}-{config_fingerprint(config):08x}")


# ---------------------------------------------------------------------
# Store accounting
# ---------------------------------------------------------------------
@dataclass(frozen=True)
class StoreReport:
    """Counters of one :class:`ArtifactStore`'s lifetime.

    The warm-start contract is asserted on two of these: a serve
    against a primed store must finish with ``conversions_compiled == 0``
    and ``templates_captured == 0``.
    """

    #: Algorithm-1 conversions actually run (cold compiles).
    conversions_compiled: int = 0
    #: Artifacts loaded (and verified) from disk.
    conversions_loaded: int = 0
    #: Conversions served straight from the in-process LRU.
    memory_hits: int = 0
    #: Device images encoded while storing a cold compile.
    images_encoded: int = 0
    #: Artifacts written to disk (cold compiles persisted).
    artifacts_stored: int = 0
    #: Report/span templates served from the store.
    templates_loaded: int = 0
    #: Templates captured by the interpreter replay (store misses).
    templates_captured: int = 0
    #: Template captures that could not be persisted (artifact file
    #: missing or unreadable at save time); the capture is still used.
    template_store_skips: int = 0
    #: Loads abandoned to recompilation on a checksum/structure failure.
    corrupt_fallbacks: int = 0
    #: Loads abandoned to recompilation on a schema-version mismatch.
    version_fallbacks: int = 0
    #: LRU entries dropped to respect ``capacity``.
    evictions: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    #: Entries resident in the LRU when the report was taken.
    entries_in_memory: int = 0

    def summary(self) -> str:
        """One grep-able line (printed by ``repro serve --store``)."""
        return (f"store: compiled={self.conversions_compiled} "
                f"loaded={self.conversions_loaded} "
                f"mem_hits={self.memory_hits} "
                f"captured={self.templates_captured} "
                f"tmpl_loaded={self.templates_loaded} "
                f"stored={self.artifacts_stored} "
                f"corrupt={self.corrupt_fallbacks} "
                f"version={self.version_fallbacks} "
                f"evicted={self.evictions}")


class _Entry:
    """One resident LRU entry: the conversion plus its template map."""

    __slots__ = ("conv", "templates")

    def __init__(self, conv: ConversionResult,
                 templates: Dict[str, tuple]) -> None:
        self.conv = conv
        self.templates = templates


# ---------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------
class ArtifactStore:
    """Content-addressed artifact store with an in-process LRU.

    Parameters
    ----------
    root:
        Directory holding one ``<key>.alra`` file per artifact; created
        if absent.
    capacity:
        Maximum conversions resident in the in-process LRU.  Eviction
        is deterministic: least-recently-used first.
    on_error:
        ``"recompile"`` (default) degrades corrupt/mismatched loads to a
        fresh compile, counted in the :class:`StoreReport`; ``"raise"``
        surfaces the typed :class:`~repro.errors.StoreError` instead.
    """

    def __init__(self, root, capacity: int = 16,
                 on_error: str = "recompile") -> None:
        if on_error not in ("recompile", "raise"):
            raise ConfigError(
                f"on_error must be 'recompile' or 'raise', "
                f"got {on_error!r}")
        if int(capacity) < 1:
            raise ConfigError(
                f"store capacity must be >= 1, got {capacity!r}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.capacity = int(capacity)
        self.on_error = on_error
        self._mem: "OrderedDict[str, _Entry]" = OrderedDict()
        self._counts: Dict[str, int] = {}

    # -- accounting ----------------------------------------------------
    def _bump(self, name: str, amount: int = 1) -> None:
        self._counts[name] = self._counts.get(name, 0) + amount

    def report(self) -> StoreReport:
        """Snapshot of the store's counters."""
        return StoreReport(entries_in_memory=len(self._mem),
                           **self._counts)

    # -- paths ---------------------------------------------------------
    def path_for(self, key: str) -> Path:
        return self.root / f"{key}{ARTIFACT_SUFFIX}"

    def keys(self) -> List[str]:
        """Sorted content keys present on disk."""
        return sorted(p.name[:-len(ARTIFACT_SUFFIX)]
                      for p in self.root.glob(f"*{ARTIFACT_SUFFIX}"))

    # -- conversions ---------------------------------------------------
    def conversion(self, kernel, matrix, config, reorder: bool = True,
                   source: Optional[Dict[str, object]] = None
                   ) -> Tuple[ConversionResult, str]:
        """Resolve one programming-phase conversion through the store.

        Memory LRU first, then the verified disk artifact, then a cold
        ``convert()`` whose outcome is persisted.  ``source`` (e.g.
        ``{"dataset": ..., "scale": ...}``) is recorded in the manifest
        so ``repro cache verify`` can recompile and byte-diff later.
        Returns ``(conversion, key)``.
        """
        key = content_key(kernel, matrix, config, reorder)
        entry = self._mem.get(key)
        if entry is not None:
            self._mem.move_to_end(key)
            self._bump("memory_hits")
            return entry.conv, key
        path = self.path_for(key)
        if path.exists():
            entry = self._load_entry(path, key)
            if entry is not None:
                self._bump("conversions_loaded")
                self._remember(key, entry)
                return entry.conv, key
        conv = convert(kernel, matrix, omega=config.omega,
                       reorder=reorder)
        self._bump("conversions_compiled")
        self._store_artifact(key, conv, source)
        self._remember(key, _Entry(conv, {}))
        return conv, key

    # -- templates -----------------------------------------------------
    @staticmethod
    def _template_name(kind: str, k: Optional[int]) -> str:
        return kind if k is None else f"{kind}@k{int(k)}"

    def load_template(self, key: str, kind: str,
                      k: Optional[int] = None,
                      want_spans: bool = False):
        """A stored ``(report, spans)`` template, or None on miss.

        ``want_spans`` is set by traced accelerators; a template stored
        without spans is then a miss (the capture re-runs traced and the
        richer template overwrites the stored one).
        """
        entry = self._mem.get(key)
        if entry is None:
            path = self.path_for(key)
            if not path.exists():
                return None
            entry = self._load_entry(path, key)
            if entry is None:
                return None
            self._bump("conversions_loaded")
            self._remember(key, entry)
        else:
            self._mem.move_to_end(key)
        stored = entry.templates.get(self._template_name(kind, k))
        if stored is None:
            return None
        report, spans = stored
        if want_spans and spans is None:
            return None
        self._bump("templates_loaded")
        return report.clone(), (list(spans) if spans is not None else [])

    def save_template(self, key: str, kind: str, report, spans,
                      k: Optional[int] = None) -> None:
        """Persist a freshly captured template into the artifact.

        ``spans`` is the captured span list, or None when the capture
        ran untraced.  The on-disk artifact is updated read-modify-write
        behind an atomic rename; if its file is missing or unreadable
        the persist is skipped (counted) — the in-memory copy still
        serves this process.
        """
        name = self._template_name(kind, k)
        self._bump("templates_captured")
        entry = self._mem.get(key)
        stored_spans = None if spans is None else list(spans)
        if entry is not None:
            entry.templates[name] = (report.clone(), stored_spans)
        path = self.path_for(key)
        try:
            data = path.read_bytes()
            manifest, sections = unpack_envelope(data, context=key)
            templates = decode_templates(
                sections["templates"], context=f"{key} templates")
        except (OSError, KeyError, StoreError):
            self._bump("template_store_skips")
            return
        self._bump("bytes_read", len(data))
        templates[name] = (report, stored_spans)
        sections["templates"] = encode_templates(templates)
        manifest.pop("sections", None)
        self._atomic_write(path, pack_envelope(manifest, sections))

    # -- LRU -----------------------------------------------------------
    def _remember(self, key: str, entry: _Entry) -> None:
        self._mem[key] = entry
        self._mem.move_to_end(key)
        while len(self._mem) > self.capacity:
            self._mem.popitem(last=False)
            self._bump("evictions")

    # -- persistence ---------------------------------------------------
    def _atomic_write(self, path: Path, data: bytes) -> None:
        """Write-temp-then-rename: readers never see a partial file."""
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        tmp.write_bytes(data)
        os.replace(tmp, path)
        self._bump("bytes_written", len(data))

    def _store_artifact(self, key: str, conv: ConversionResult,
                        source: Optional[Dict[str, object]]) -> None:
        program = encode_program(conv.kernel, conv.table)
        image = encode_image(conv.matrix)
        self._bump("images_encoded")
        manifest, sections = _serialize_conversion(key, conv, source)
        sections["program"] = program
        sections["image"] = image
        sections["templates"] = encode_templates({})
        self._atomic_write(self.path_for(key),
                           pack_envelope(manifest, sections))
        self._bump("artifacts_stored")

    def _load_entry(self, path: Path, key: str) -> Optional[_Entry]:
        """Verified load, honouring the error policy (None = fall back)."""
        try:
            data = path.read_bytes()
        except OSError as exc:
            if self.on_error == "raise":
                raise StoreCorruptionError(
                    f"{key}: artifact unreadable ({exc})") from exc
            self._bump("corrupt_fallbacks")
            return None
        self._bump("bytes_read", len(data))
        try:
            conv, templates = _deserialize_artifact(data, key)
        except StoreError as exc:
            if self.on_error == "raise":
                raise
            if isinstance(exc, StoreCorruptionError):
                self._bump("corrupt_fallbacks")
            else:
                self._bump("version_fallbacks")
            return None
        return _Entry(conv, templates)

    # -- management (repro cache) --------------------------------------
    def entry_info(self, key: str) -> Dict[str, object]:
        """Manifest-level facts about one stored artifact (for ``ls``)."""
        path = self.path_for(key)
        data = path.read_bytes()
        manifest, sections = unpack_envelope(data, context=key)
        templates = decode_templates(sections["templates"],
                                     context=f"{key} templates")
        return {
            "key": key,
            "bytes": len(data),
            "kernel": manifest.get("kernel"),
            "n": manifest.get("n"),
            "nnz": manifest.get("nnz"),
            "omega": manifest.get("omega"),
            "reordered": manifest.get("reordered"),
            "source": manifest.get("source"),
            "templates": sorted(templates),
        }

    def gc(self, max_bytes: Optional[int] = None,
           remove_all: bool = False) -> Tuple[List[str], int]:
        """Delete stored artifacts; returns ``(removed keys, freed bytes)``.

        ``remove_all`` empties the store; otherwise artifacts are
        removed oldest-modified-first (ties broken by key) until the
        directory fits ``max_bytes``.  Removed keys are also dropped
        from the in-process LRU, and stray temp files from interrupted
        writers are always swept.
        """
        freed = 0
        for tmp in self.root.glob(f"*{ARTIFACT_SUFFIX}.tmp.*"):
            try:
                freed += tmp.stat().st_size
            except OSError:
                pass
            tmp.unlink(missing_ok=True)
        files = [(p.stat().st_mtime, p.name, p)
                 for p in self.root.glob(f"*{ARTIFACT_SUFFIX}")]
        files.sort(key=lambda t: (t[0], t[1]))
        total = sum(p.stat().st_size for _, _, p in files)
        removed: List[str] = []
        for _, name, p in files:
            if not remove_all and (max_bytes is None
                                   or total <= max_bytes):
                break
            size = p.stat().st_size
            p.unlink()
            key = name[:-len(ARTIFACT_SUFFIX)]
            self._mem.pop(key, None)
            removed.append(key)
            freed += size
            total -= size
        return removed, freed

    def verify(self, keys: Optional[List[str]] = None
               ) -> List[Tuple[str, str]]:
        """Deep-verify stored artifacts; returns ``(key, problem)`` pairs.

        Every artifact is envelope- and checksum-verified and fully
        decoded.  Artifacts whose manifest records a ``source`` are
        additionally *recompiled* — the dataset is reloaded and run back
        through Algorithm 1 — and the stored program, image, and BCSR
        sections byte-diffed against the fresh compile.  Templates are
        checksum- and schema-verified only: the capture depends on the
        full runtime configuration, of which the key stores just a
        fingerprint.
        """
        problems: List[Tuple[str, str]] = []
        for key in (keys if keys is not None else self.keys()):
            path = self.path_for(key)
            if not path.exists():
                problems.append((key, "no such artifact"))
                continue
            try:
                data = path.read_bytes()
                conv, _templates = _deserialize_artifact(data, key)
                manifest, sections = unpack_envelope(data, context=key)
            except (OSError, ReproError) as exc:
                problems.append((key, str(exc)))
                continue
            source = manifest.get("source")
            if not source:
                continue
            try:
                fresh = convert(conv.kernel, _load_source(source),
                                omega=manifest["omega"],
                                reorder=manifest["reordered"])
            except ReproError as exc:
                problems.append(
                    (key, f"source recompile failed: {exc}"))
                continue
            _, fresh_sections = _serialize_conversion(key, fresh, source)
            fresh_sections["program"] = encode_program(fresh.kernel,
                                                       fresh.table)
            fresh_sections["image"] = encode_image(fresh.matrix)
            for name in ("program", "image", "bcsr_indptr", "bcsr_cols",
                         "bcsr_blocks"):
                if sections[name] != fresh_sections[name]:
                    problems.append(
                        (key, f"section {name!r} differs from a fresh "
                              f"recompile of {source!r}"))
        return problems


# ---------------------------------------------------------------------
# Artifact [de]serialization
# ---------------------------------------------------------------------
def _serialize_conversion(key: str, conv: ConversionResult,
                          source: Optional[Dict[str, object]]
                          ) -> Tuple[Dict[str, object], Dict[str, bytes]]:
    """Manifest + BCSR sections of a conversion (program/image/templates
    are added by the caller)."""
    bcsr = conv.bcsr
    manifest: Dict[str, object] = {
        "key": key,
        "kernel": conv.kernel.value,
        "omega": conv.omega,
        "n": conv.matrix.shape[0],
        "shape": [int(conv.matrix.shape[0]), int(conv.matrix.shape[1])],
        "nnz": int(bcsr.nnz),
        "reordered": bool(conv.reordered),
        "source": source,
    }
    sections = {
        "bcsr_indptr": np.ascontiguousarray(
            bcsr.block_indptr, dtype="<i8").tobytes(),
        "bcsr_cols": np.ascontiguousarray(
            bcsr.block_cols, dtype="<i8").tobytes(),
        "bcsr_blocks": np.ascontiguousarray(
            bcsr.blocks, dtype="<f8").tobytes(),
    }
    return manifest, sections


def _deserialize_artifact(data: bytes, key: str
                          ) -> Tuple[ConversionResult, Dict[str, tuple]]:
    """Decode and cross-verify a stored artifact's bytes."""
    manifest, sections = unpack_envelope(data, context=key)
    missing = [s for s in _REQUIRED_SECTIONS if s not in sections]
    if missing:
        raise StoreCorruptionError(
            f"{key}: artifact lacks sections {missing}")
    try:
        kernel, table = decode_program(sections["program"])
        matrix = decode_image(sections["image"])
    except (FormatError, CorruptionError, ConfigError) as exc:
        raise StoreCorruptionError(
            f"{key}: stored binary rejected by its decoder "
            f"({exc})") from exc
    omega = manifest.get("omega")
    shape = manifest.get("shape")
    if (not isinstance(omega, int) or not isinstance(shape, list)
            or len(shape) != 2):
        raise StoreCorruptionError(
            f"{key}: manifest omega/shape malformed")
    indptr = np.frombuffer(sections["bcsr_indptr"],
                           dtype="<i8").astype(np.int64)
    cols = np.frombuffer(sections["bcsr_cols"],
                         dtype="<i8").astype(np.int64)
    raw_blocks = sections["bcsr_blocks"]
    n_blocks = len(cols)
    if len(raw_blocks) != n_blocks * omega * omega * 8:
        raise StoreCorruptionError(
            f"{key}: BCSR block payload has {len(raw_blocks)} bytes, "
            f"expected {n_blocks * omega * omega * 8}")
    blocks = np.frombuffer(raw_blocks, dtype="<f8").astype(
        np.float64).reshape(n_blocks, omega, omega)
    try:
        bcsr = BCSRMatrix((int(shape[0]), int(shape[1])), omega,
                          indptr, cols, blocks)
    except ReproError as exc:
        raise StoreCorruptionError(
            f"{key}: stored BCSR arrays are inconsistent "
            f"({exc})") from exc
    if kernel.value != manifest.get("kernel"):
        raise StoreCorruptionError(
            f"{key}: program kernel {kernel.value!r} disagrees with "
            f"manifest {manifest.get('kernel')!r}")
    if matrix.omega != omega or matrix.shape != (shape[0], shape[1]):
        raise StoreCorruptionError(
            f"{key}: device image geometry disagrees with manifest")
    if int(bcsr.nnz) != manifest.get("nnz"):
        raise StoreCorruptionError(
            f"{key}: BCSR nnz {bcsr.nnz} disagrees with manifest "
            f"{manifest.get('nnz')}")
    conv = ConversionResult(kernel=kernel, omega=omega, table=table,
                            matrix=matrix, bcsr=bcsr,
                            reordered=bool(manifest.get("reordered",
                                                        True)))
    templates = decode_templates(sections["templates"],
                                 context=f"{key} templates")
    return conv, templates


def _load_source(source: Dict[str, object]):
    """Reload the matrix a manifest's ``source`` metadata describes."""
    from repro.datasets import load_dataset
    matrix = load_dataset(str(source["dataset"]),
                          scale=float(source["scale"])).matrix
    if source.get("transform") == "reverse":
        from repro.solvers.backends import reverse_order
        matrix = reverse_order(matrix)
    return matrix

"""Checksummed, schema-versioned container for stored artifacts.

One artifact file holds everything a warm process needs to skip the
programming phase for one ``(matrix, config, kernel)`` content key: the
program binary, the device image and the captured report/span
templates.  Sections are opaque byte strings; this module only frames
them — a fixed header, a canonical-JSON *manifest* (key, identity
metadata, section directory) and the concatenated payloads.

Layout::

    magic "ALRA" | version u16 | reserved u16 | manifest_len u32
    | manifest_crc u32 | manifest JSON | section payloads ...

Every load is verified before any byte is trusted: the magic and schema
version first (:class:`~repro.errors.StoreVersionError` on mismatch),
then the manifest CRC, then one CRC32 per section
(:class:`~repro.errors.StoreCorruptionError` on any damage).  The
manifest is canonical JSON — sorted keys, fixed separators — so
re-encoding an unpacked envelope is byte-identical, which is what lets
``repro cache verify`` diff artifacts at the byte level.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Dict, Tuple

from repro.errors import StoreCorruptionError, StoreVersionError

#: Artifact magic: "ALRA" (ALRescha Artifact).
MAGIC = b"ALRA"

#: Schema version of the artifact container.  Bump on any layout or
#: manifest-shape change; loaders refuse every other version.
STORE_SCHEMA_VERSION = 2

_FIXED = ">4sHHII"  # magic, version, reserved, manifest_len, manifest_crc
_FIXED_SIZE = struct.calcsize(_FIXED)


def pack_envelope(manifest: Dict[str, object],
                  sections: Dict[str, bytes]) -> bytes:
    """Frame ``sections`` behind a checksummed manifest.

    ``manifest`` is augmented (not mutated) with the section directory:
    name, offset into the payload area, length, and CRC32 per section,
    in sorted-name order so the layout is deterministic.
    """
    payloads = []
    directory = []
    offset = 0
    for name in sorted(sections):
        raw = sections[name]
        directory.append({
            "name": name,
            "offset": offset,
            "length": len(raw),
            "crc32": zlib.crc32(raw),
        })
        payloads.append(raw)
        offset += len(raw)
    body = dict(manifest)
    body["sections"] = directory
    manifest_raw = json.dumps(body, sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
    fixed = struct.pack(_FIXED, MAGIC, STORE_SCHEMA_VERSION, 0,
                        len(manifest_raw), zlib.crc32(manifest_raw))
    return b"".join([fixed, manifest_raw] + payloads)


def unpack_envelope(data: bytes,
                    context: str = "artifact"
                    ) -> Tuple[Dict[str, object], Dict[str, bytes]]:
    """Verify and open an envelope; returns ``(manifest, sections)``.

    ``context`` names the artifact (key or path) in error messages.
    Raises :class:`~repro.errors.StoreVersionError` on a schema
    mismatch and :class:`~repro.errors.StoreCorruptionError` on any
    structural damage or checksum failure.
    """
    if len(data) < _FIXED_SIZE:
        raise StoreCorruptionError(
            f"{context}: truncated before the fixed header "
            f"({len(data)} bytes)")
    magic, version, _reserved, manifest_len, manifest_crc = struct.unpack(
        _FIXED, data[:_FIXED_SIZE])
    if magic != MAGIC:
        raise StoreCorruptionError(
            f"{context}: bad artifact magic {magic!r}")
    if version != STORE_SCHEMA_VERSION:
        raise StoreVersionError(
            f"{context}: schema version {version} unsupported "
            f"(this store reads version {STORE_SCHEMA_VERSION})")
    manifest_end = _FIXED_SIZE + manifest_len
    if len(data) < manifest_end:
        raise StoreCorruptionError(
            f"{context}: truncated inside the manifest")
    manifest_raw = data[_FIXED_SIZE:manifest_end]
    if zlib.crc32(manifest_raw) != manifest_crc:
        raise StoreCorruptionError(
            f"{context}: manifest fails its checksum")
    try:
        manifest = json.loads(manifest_raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StoreCorruptionError(
            f"{context}: manifest is not valid JSON ({exc})") from exc
    if not isinstance(manifest, dict) or "sections" not in manifest:
        raise StoreCorruptionError(
            f"{context}: manifest lacks a section directory")
    payload = data[manifest_end:]
    sections: Dict[str, bytes] = {}
    for entry in manifest["sections"]:
        try:
            name = entry["name"]
            off = entry["offset"]
            length = entry["length"]
            crc = entry["crc32"]
        except (TypeError, KeyError) as exc:
            raise StoreCorruptionError(
                f"{context}: malformed section directory entry "
                f"{entry!r}") from exc
        if off + length > len(payload):
            raise StoreCorruptionError(
                f"{context}: section {name!r} truncated "
                f"(needs {off + length} payload bytes, "
                f"have {len(payload)})")
        raw = payload[off:off + length]
        if zlib.crc32(raw) != crc:
            raise StoreCorruptionError(
                f"{context}: section {name!r} fails its checksum")
        sections[name] = raw
    return manifest, sections

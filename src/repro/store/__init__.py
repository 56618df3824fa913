"""Content-addressed artifact store (:class:`ArtifactStore`).

Persists the programming phase — compiled plans' conversion state,
device images, and report/span templates — keyed by content hash, so
warm starts skip compilation entirely.  See :mod:`repro.store.store`.
"""

from repro.store.envelope import (
    STORE_SCHEMA_VERSION,
    pack_envelope,
    unpack_envelope,
)
from repro.store.store import (
    ARTIFACT_SUFFIX,
    ArtifactStore,
    StoreReport,
    config_fingerprint,
    content_key,
    matrix_crc,
)

__all__ = [
    "ARTIFACT_SUFFIX",
    "ArtifactStore",
    "STORE_SCHEMA_VERSION",
    "StoreReport",
    "config_fingerprint",
    "content_key",
    "matrix_crc",
    "pack_envelope",
    "unpack_envelope",
]

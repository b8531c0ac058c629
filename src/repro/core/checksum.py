"""End-to-end brick checksums.

Every brick payload is protected by a 32-bit CRC that is computed by
the server storing the brick as it applies a write
(:func:`repro.backends.base.hash_bricks`), stored in file metadata,
verified on full-brick reads, and re-verified at rest by the scrubber
(:mod:`repro.core.scrub`).  The
same routine protects wire frames (:mod:`repro.net.protocol`).

Algorithm selection: CRC32C (Castagnoli) is the checksum of choice for
storage systems (iSCSI, ext4, GPFS descendants) because commodity CPUs
compute it in hardware.  Python only exposes hardware CRC32C through
third-party extensions, so we pick the best implementation available
and *record the algorithm name in metadata* so stored checksums remain
verifiable even if the environment changes:

``crc32c``
    the C extension (google's ``crc32c`` package) when importable —
    hardware Castagnoli;
``crc32``
    :func:`zlib.crc32` (IEEE polynomial, C speed) — the default
    fallback for data being written *now*;
pure-python Castagnoli
    kept as a slow compatibility path so metadata written under a
    ``crc32c``-capable interpreter still verifies here.

All algorithms return an unsigned 32-bit int; a brick's stored checksum
is only ever compared against a recomputation under the *same* named
algorithm, so mixing environments degrades to a re-scrub, never to a
false corruption verdict.
"""

from __future__ import annotations

import zlib
from typing import Callable

__all__ = [
    "CRC_ALGORITHM",
    "checksum",
    "checksum_fn",
    "crc32c_soft",
]

_CASTAGNOLI = 0x82F63B78


def _build_table() -> list[int]:
    table = []
    for i in range(256):
        c = i
        for _ in range(8):
            c = (c >> 1) ^ _CASTAGNOLI if c & 1 else c >> 1
        table.append(c)
    return table


_SOFT_TABLE = _build_table()


def crc32c_soft(data: bytes, crc: int = 0) -> int:
    """Pure-python CRC32C (Castagnoli) — compatibility path only."""
    crc ^= 0xFFFFFFFF
    table = _SOFT_TABLE
    for b in data:
        crc = table[(crc ^ b) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


def _crc32(data: bytes, crc: int = 0) -> int:
    return zlib.crc32(data, crc) & 0xFFFFFFFF


try:  # pragma: no cover - depends on environment
    from crc32c import crc32c as _crc32c_hw  # type: ignore[import-not-found]

    def _crc32c(data: bytes, crc: int = 0) -> int:
        return _crc32c_hw(data, crc) & 0xFFFFFFFF

    CRC_ALGORITHM = "crc32c"
except ImportError:
    _crc32c = crc32c_soft
    CRC_ALGORITHM = "crc32"

#: name → implementation; every name ever used as a file's ``crc_algo``
#: must stay resolvable here so old metadata keeps verifying
_ALGORITHMS: dict[str, Callable[[bytes, int], int]] = {
    "crc32": _crc32,
    "crc32c": _crc32c,
}


def checksum_fn(algo: str) -> Callable[[bytes, int], int]:
    """Implementation for a named algorithm (KeyError on unknown)."""
    return _ALGORITHMS[algo]


def checksum(data: bytes, algo: str = CRC_ALGORITHM) -> int:
    """32-bit checksum of ``data`` under the named algorithm."""
    return _ALGORITHMS[algo](data, 0)

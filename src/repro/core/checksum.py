"""Payload checksums.

Every wire frame's payload carries a 32-bit CRC (:mod:`repro.net.protocol`),
and the storage servers keep one CRC-32 per 4 KiB chunk of every subfile
(:mod:`repro.backends.chunks`, always :func:`zlib.crc32`).  This module
names the implementations a wire frame may use, and those that the
per-brick checksums of a root written before chunk checksums used, so
such a root can be checked once when it is migrated.

Algorithm selection: CRC32C (Castagnoli) is the checksum of choice for
storage systems (iSCSI, ext4, GPFS descendants) because commodity CPUs
compute it in hardware.  Python only exposes hardware CRC32C through
third-party extensions, so we pick the best implementation available
and *record the algorithm name* next to every checksum:

``crc32c``
    the C extension (google's ``crc32c`` package) when importable —
    hardware Castagnoli;
``crc32``
    :func:`zlib.crc32` (IEEE polynomial, C speed) — the default
    fallback for data being written *now*;
pure-python Castagnoli
    kept as a slow compatibility path so checksums computed under a
    ``crc32c``-capable interpreter still verify here.

All algorithms return an unsigned 32-bit int; a checksum is only ever
compared against a recomputation under the *same* named algorithm, so
mixing environments never yields a false corruption verdict.
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

#: name → implementation; every name a file's stored checksums ever used
#: must stay resolvable here so an old root can be checked as it migrates
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

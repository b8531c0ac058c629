"""Per-chunk checksums stored next to each subfile (its *sidecar*).

One CRC-32 per 4 KiB chunk.  A write re-stamps the chunks it touched
from the bytes they then hold; a read checks every chunk it covers and
raises :class:`~repro.errors.ChecksumError` on a mismatch.  Callers hold
the server's I/O lock.  A *store* has ``name`` and byte-range
``read``/``write`` (the subfile) and ``read_sums``/``write_sums`` (the
sidecar), reads returning fewer bytes past the end.

Entry ``i`` (4 bytes, little-endian) is ``crc32(chunk i) ^ crc32(4 KiB
of zeros)``, so a zero or missing entry vouches only for zeros: a chunk
never written verifies, one whose bytes landed without their entry (a
torn write) fails.  The part of a chunk past the subfile's end hashes as
zeros.  Rot in the untouched part of a partly written chunk is stamped
as good, so repairs rewrite whole chunks (:func:`repro.core.scrub.repair_copy`).
"""

from __future__ import annotations

import struct
import zlib
from collections.abc import Sequence

from ..crashpoints import CP_WRITE_BEFORE_SIDECAR, crashpoint
from ..errors import ChecksumError
from ..util import Extent

__all__ = ["CHUNK_SIZE", "read_chunks", "write_chunks"]

#: bytes covered by one sidecar entry
CHUNK_SIZE = 4096
_ENTRY = 4
_ZERO = zlib.crc32(bytes(CHUNK_SIZE))


def _whole(store, off: int, ln: int) -> tuple[int, bytes]:
    """The first chunk under ``ln`` bytes at ``off``, and every chunk
    they touch, whole, the part past the subfile's end as zeros."""
    first, end = off // CHUNK_SIZE, -(-(off + ln) // CHUNK_SIZE)
    need = (end - first) * CHUNK_SIZE
    raw = store.read(first * CHUNK_SIZE, need)
    return first, raw + bytes(need - len(raw))


def _stamps(raw: bytes) -> bytes:
    """The sidecar entries of whole chunks."""
    view = memoryview(raw)
    return struct.pack(
        f"<{len(view) // CHUNK_SIZE}I",
        *[
            zlib.crc32(view[i : i + CHUNK_SIZE]) ^ _ZERO
            for i in range(0, len(view), CHUNK_SIZE)
        ],
    )


def read_chunks(store, extents: Sequence[Extent], *, verify: bool = True) -> bytes:
    """Read extents, concatenated in list order, after checking every
    chunk they cover against the sidecar (``verify=False``: unchecked,
    for re-stamping a chunk from the bytes it holds)."""
    parts = []
    for off, ln in extents:
        if ln <= 0:
            continue
        first, raw = _whole(store, off, ln)
        if verify:
            got = _stamps(raw)
            want = store.read_sums(first * _ENTRY, len(got))
            if got != want + bytes(len(got) - len(want)):
                raise ChecksumError(
                    f"subfile {store.name!r}: a chunk of {first}.."
                    f"{first + len(got) // _ENTRY - 1} does not match its "
                    f"stored checksum"
                )
        lo = off - first * CHUNK_SIZE
        parts.append(raw[lo : lo + ln])
    return b"".join(parts)


def write_chunks(store, extents: Sequence[Extent], data: bytes | memoryview) -> None:
    """Apply extents of ``data`` in list order, then re-stamp the sidecar
    entry of every chunk they touched from the bytes it now holds."""
    view = memoryview(data)
    pos = 0
    for off, ln in extents:
        store.write(off, view[pos : pos + ln])
        pos += ln
    crashpoint(CP_WRITE_BEFORE_SIDECAR)
    for off, ln in extents:
        if ln > 0:
            first, raw = _whole(store, off, ln)
            store.write_sums(first * _ENTRY, _stamps(raw))

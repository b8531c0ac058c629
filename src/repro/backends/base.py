"""Storage backend interface.

A backend is the set of DPFS *servers* (I/O nodes).  Each server stores
*subfiles* — the per-server local files holding a DPFS file's bricks —
and services extent-list reads/writes against them (§2: "as long as the
server receives the request, it uses the local file system API to
actually perform I/O").

Four implementations:

========== =================================================================
memory     dict-backed, for tests and examples
local      one directory per server on the local file system
remote     real TCP connections to ``dpfs server`` processes (:mod:`repro.net`)
simulated  discrete-event timing model (no real bytes) for the §8 evaluation
========== =================================================================

Every backend hashes the bricks a write touches where the bytes live:
:meth:`StorageBackend.write_extents` takes the touched bricks'
``(local_offset, size)`` and returns one ``(crc, version)`` per brick,
computed under the lock that serialises the server's writes (see
:func:`hash_bricks` and :class:`VersionClock`).
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from collections.abc import Callable, Sequence

from ..core.checksum import CRC_ALGORITHM, checksum_fn
from ..errors import FileSystemError
from ..util import Extent, total_extent_bytes

__all__ = [
    "BrickCrc",
    "ServerInfo",
    "StorageBackend",
    "VersionClock",
    "hash_bricks",
]

#: what a write returns per touched brick: the brick's checksum after
#: the write (None when the algorithm is unknown here) and the version
#: that orders it against other writes' checksums of the same brick
BrickCrc = tuple[int | None, int]


class VersionClock:
    """Per-server version stamps for brick checksums.

    :meth:`next` returns ``max(last + 1, time.time_ns())``: strictly
    increasing on one server, and ordered across its restarts by the
    wall clock.  The caller holds the lock that serialises the server's
    writes, so version order is the order in which the bricks were
    hashed.  Versions from different servers are not compared: each
    server's clock is its own.
    """

    def __init__(self) -> None:
        self._last = 0

    def next(self) -> int:
        self._last = max(self._last + 1, time.time_ns())
        return self._last


def hash_bricks(
    bricks: Sequence[Extent],
    crc_algo: str,
    read_brick: Callable[[int, int], bytes | memoryview],
    clock: VersionClock,
) -> list[BrickCrc]:
    """Checksums of the bricks a just-applied write touched.

    Each brick is read back with ``read_brick(offset, size)``, which may
    return fewer than ``size`` bytes (the sparse tail reads as zeros).
    The caller holds the lock that serialised the write, so the hash
    sees no other writer's half-applied bytes.  One version from
    ``clock`` stamps every brick.
    """
    if not bricks:
        return []
    version = clock.next()
    try:
        crc = checksum_fn(crc_algo)
    except KeyError:
        return [(None, version)] * len(bricks)
    out: list[BrickCrc] = []
    for off, size in bricks:
        chunk = read_brick(off, size)
        try:
            value = crc(chunk, 0)
            missing = size - len(chunk)
        finally:
            if isinstance(chunk, memoryview):
                chunk.release()
        if missing > 0:
            value = crc(bytes(missing), value)
        out.append((value, version))
    return out


@dataclass(frozen=True)
class ServerInfo:
    """What the DPFS-SERVER metadata table records about one I/O node."""

    name: str
    capacity: int          # bytes available
    performance: float     # normalized brick access time (fastest = 1)


class StorageBackend(ABC):
    """Abstract DPFS server pool."""

    #: Whether :meth:`read_extents`/:meth:`write_extents` may be called
    #: concurrently from multiple threads (the parallel dispatch layer
    #: does).  Backends that cannot tolerate that set this False and the
    #: file system drives them with one worker.
    parallel_safe: bool = True

    @property
    @abstractmethod
    def servers(self) -> list[ServerInfo]:
        """Static description of every server, index = server id."""

    @property
    def n_servers(self) -> int:
        return len(self.servers)

    # -- subfile lifecycle -------------------------------------------------
    @abstractmethod
    def create_subfile(self, server: int, name: str) -> None:
        """Create an empty subfile (idempotent)."""

    @abstractmethod
    def delete_subfile(self, server: int, name: str) -> None:
        """Remove a subfile (idempotent)."""

    @abstractmethod
    def subfile_exists(self, server: int, name: str) -> bool:
        ...

    @abstractmethod
    def rename_subfile(self, server: int, old: str, new: str) -> None:
        """Rename a subfile.

        The in-process backends treat a missing old name as a no-op;
        the TCP server raises (surfacing metadata/storage divergence),
        which the remote backend maps to :class:`FileSystemError`.
        """

    @abstractmethod
    def list_subfiles(self, server: int) -> list[str]:
        """Names of every subfile on one server (fsck support)."""

    @abstractmethod
    def subfile_size(self, server: int, name: str) -> int:
        """Current physical size in bytes."""

    # -- I/O ---------------------------------------------------------------
    @abstractmethod
    def read_extents(
        self, server: int, name: str, extents: Sequence[Extent]
    ) -> bytes:
        """Read the given subfile extents, concatenated in list order.

        Reading past the current physical end returns zero bytes for the
        missing tail (sparse-file semantics — bricks are materialised
        lazily on first write).
        """

    @abstractmethod
    def write_extents(
        self,
        server: int,
        name: str,
        extents: Sequence[Extent],
        data: bytes | bytearray | memoryview,
        bricks: Sequence[Extent] = (),
        crc_algo: str = CRC_ALGORITHM,
    ) -> list[BrickCrc]:
        """Write ``data`` across the given extents in list order,
        extending the subfile as needed.

        ``bricks`` lists the ``(local_offset, size)`` of each brick the
        write touches; the return value holds one ``(crc, version)``
        per brick, in that order, hashed under ``crc_algo`` after the
        write applied and under the same lock.  ``data`` is copied,
        never kept.
        """

    # -- shared validation --------------------------------------------------
    def _check_server(self, server: int) -> None:
        if not 0 <= server < self.n_servers:
            raise FileSystemError(
                f"server {server} outside [0, {self.n_servers})"
            )

    @staticmethod
    def _check_payload(extents: Sequence[Extent], data: bytes) -> None:
        need = total_extent_bytes(extents)
        if need != len(data):
            raise FileSystemError(
                f"extent list covers {need} bytes but payload is {len(data)}"
            )

    # -- optional hooks -----------------------------------------------------
    def server_health(self, server: int) -> int:
        """Health of one server: 2 = UP, 1 = DEGRADED, 0 = DOWN.

        In-process backends are always UP; the TCP backend overrides
        this from its connection pools so replicated reads can prefer
        healthy copies.  Values match :class:`repro.net.client.ServerHealth`.
        """
        return 2

    def close(self) -> None:
        """Release resources (network connections...)."""

    def __enter__(self) -> "StorageBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

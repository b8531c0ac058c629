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

Every backend keeps one checksum per 4 KiB chunk of each subfile where
the bytes live, in a sidecar next to it (:mod:`repro.backends.chunks`):
:meth:`StorageBackend.write_extents` re-stamps the chunks it touches and
:meth:`StorageBackend.read_extents` verifies the chunks it covers.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from collections.abc import Sequence

from ..errors import FileSystemError
from ..util import Extent, total_extent_bytes

__all__ = ["ServerInfo", "StorageBackend"]


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
        """Names of every subfile on one server (fsck support); a
        subfile's sidecar is part of it, not a subfile of its own."""

    @abstractmethod
    def subfile_size(self, server: int, name: str) -> int:
        """Current physical size in bytes."""

    # -- I/O ---------------------------------------------------------------
    @abstractmethod
    def read_extents(
        self, server: int, name: str, extents: Sequence[Extent], *, verify: bool = True
    ) -> bytes:
        """Read the given subfile extents, concatenated in list order.

        Reading past the current physical end returns zero bytes for the
        missing tail (sparse-file semantics — bricks are materialised
        lazily on first write).  Every 4 KiB chunk the extents cover is
        checked against the subfile's sidecar first, and a mismatch
        raises :class:`~repro.errors.ChecksumError`; ``verify=False``
        skips that, for re-stamping a chunk from the bytes it holds.
        """

    @abstractmethod
    def write_extents(
        self,
        server: int,
        name: str,
        extents: Sequence[Extent],
        data: bytes | bytearray | memoryview,
    ) -> None:
        """Write ``data`` across the given extents in list order,
        extending the subfile as needed, then re-stamp the sidecar entry
        of every chunk the extents touched, under the lock that
        serialises the server's writes.  ``data`` is copied, never kept.
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

    @staticmethod
    def _check_extents(extents: Sequence[Extent]) -> None:
        for off, ln in extents:
            if off < 0 or ln < 0:
                raise FileSystemError(f"invalid extent ({off}, {ln})")

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

"""In-memory storage backend (tests, examples, quick experiments)."""

from __future__ import annotations

import threading
from collections.abc import Sequence

from ..core.checksum import CRC_ALGORITHM
from ..errors import FileSystemError
from ..util import Extent
from .base import BrickCrc, ServerInfo, StorageBackend, VersionClock, hash_bricks

__all__ = ["MemoryBackend"]


class MemoryBackend(StorageBackend):
    """Each server is a dict of subfile name → bytearray."""

    def __init__(
        self,
        n_servers: int,
        *,
        capacity: int = 1 << 30,
        performance: Sequence[float] | None = None,
        names: Sequence[str] | None = None,
    ) -> None:
        if n_servers < 1:
            raise FileSystemError("need at least one server")
        perf = list(performance) if performance is not None else [1.0] * n_servers
        if len(perf) != n_servers:
            raise FileSystemError("performance list length mismatch")
        if names is None:
            names = [f"mem{i}" for i in range(n_servers)]
        if len(names) != n_servers:
            raise FileSystemError("names list length mismatch")
        self._servers = [
            ServerInfo(name=names[i], capacity=capacity, performance=perf[i])
            for i in range(n_servers)
        ]
        self._store: list[dict[str, bytearray]] = [dict() for _ in range(n_servers)]
        # one lock per server: extents from concurrent dispatch workers
        # may interleave on the same subfile (the grow-then-assign in
        # write_extents is not atomic), mirroring the real server's
        # per-device I/O serialization; brick checksums are hashed and
        # versioned under it too
        self._io_locks = [threading.Lock() for _ in range(n_servers)]
        self._clocks = [VersionClock() for _ in range(n_servers)]

    @property
    def servers(self) -> list[ServerInfo]:
        return list(self._servers)

    # -- lifecycle ---------------------------------------------------------
    def create_subfile(self, server: int, name: str) -> None:
        self._check_server(server)
        self._store[server].setdefault(name, bytearray())

    def delete_subfile(self, server: int, name: str) -> None:
        self._check_server(server)
        self._store[server].pop(name, None)

    def subfile_exists(self, server: int, name: str) -> bool:
        self._check_server(server)
        return name in self._store[server]

    def rename_subfile(self, server: int, old: str, new: str) -> None:
        self._check_server(server)
        blob = self._store[server].pop(old, None)
        if blob is not None:
            self._store[server][new] = blob

    def list_subfiles(self, server: int) -> list[str]:
        self._check_server(server)
        return sorted(self._store[server])

    def subfile_size(self, server: int, name: str) -> int:
        self._check_server(server)
        try:
            return len(self._store[server][name])
        except KeyError:
            raise FileSystemError(
                f"no subfile {name!r} on server {server}"
            ) from None

    # -- I/O ---------------------------------------------------------------
    def read_extents(
        self, server: int, name: str, extents: Sequence[Extent]
    ) -> bytes:
        self._check_server(server)
        with self._io_locks[server]:
            blob = self._store[server].get(name)
            if blob is None:
                raise FileSystemError(f"no subfile {name!r} on server {server}")
            out = bytearray()
            size = len(blob)
            for off, ln in extents:
                if off < 0 or ln < 0:
                    raise FileSystemError(f"invalid extent ({off}, {ln})")
                chunk = bytes(blob[off : min(off + ln, size)])
                if len(chunk) < ln:                   # sparse tail → zeros
                    chunk += b"\x00" * (ln - len(chunk))
                out += chunk
            return bytes(out)

    def write_extents(
        self,
        server: int,
        name: str,
        extents: Sequence[Extent],
        data: bytes | bytearray | memoryview,
        bricks: Sequence[Extent] = (),
        crc_algo: str = CRC_ALGORITHM,
    ) -> list[BrickCrc]:
        self._check_server(server)
        self._check_payload(extents, data)
        view = memoryview(data)
        with self._io_locks[server]:
            blob = self._store[server].get(name)
            if blob is None:
                raise FileSystemError(f"no subfile {name!r} on server {server}")
            pos = 0
            for off, ln in extents:
                if off < 0 or ln < 0:
                    raise FileSystemError(f"invalid extent ({off}, {ln})")
                end = off + ln
                if end > len(blob):
                    blob.extend(b"\x00" * (end - len(blob)))
                blob[off:end] = view[pos : pos + ln]
                pos += ln
            return hash_bricks(
                bricks,
                crc_algo,
                lambda off, size: memoryview(blob)[off : off + size],
                self._clocks[server],
            )

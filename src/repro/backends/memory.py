"""In-memory storage backend (tests, examples, quick experiments)."""

from __future__ import annotations

import threading
from collections.abc import Sequence

from ..errors import FileSystemError
from ..util import Extent
from .base import ServerInfo, StorageBackend
from .chunks import read_chunks, write_chunks

__all__ = ["MemoryBackend"]


def _put(buf: bytearray, off: int, data: bytes | memoryview) -> None:
    end = off + len(data)
    if end > len(buf):
        buf.extend(bytes(end - len(buf)))
    buf[off:end] = data


class _Subfile:
    """A subfile's bytes and its sidecar, each a ``bytearray`` (the
    store :mod:`repro.backends.chunks` reads and writes)."""

    __slots__ = ("name", "blob", "sums")

    def __init__(self, name: str) -> None:
        self.name, self.blob, self.sums = name, bytearray(), bytearray()

    def read(self, off: int, size: int) -> bytes:
        return bytes(self.blob[off : off + size])

    def write(self, off: int, data: bytes | memoryview) -> None:
        _put(self.blob, off, data)

    def read_sums(self, off: int, size: int) -> bytes:
        return bytes(self.sums[off : off + size])

    def write_sums(self, off: int, data: bytes) -> None:
        _put(self.sums, off, data)


class MemoryBackend(StorageBackend):
    """Each server is a dict of subfile name → its bytes and sidecar."""

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
        self._store: list[dict[str, _Subfile]] = [dict() for _ in range(n_servers)]
        # one lock per server: extents from concurrent dispatch workers
        # may interleave on the same subfile (the grow-then-assign in
        # write_extents is not atomic), mirroring the real server's
        # per-device I/O serialization; sidecars are updated under it
        self._io_locks = [threading.Lock() for _ in range(n_servers)]

    @property
    def servers(self) -> list[ServerInfo]:
        return list(self._servers)

    # -- lifecycle ---------------------------------------------------------
    def create_subfile(self, server: int, name: str) -> None:
        self._check_server(server)
        self._store[server].setdefault(name, _Subfile(name))

    def delete_subfile(self, server: int, name: str) -> None:
        self._check_server(server)
        self._store[server].pop(name, None)

    def subfile_exists(self, server: int, name: str) -> bool:
        self._check_server(server)
        return name in self._store[server]

    def rename_subfile(self, server: int, old: str, new: str) -> None:
        self._check_server(server)
        sub = self._store[server].pop(old, None)
        if sub is not None:
            sub.name = new
            self._store[server][new] = sub

    def list_subfiles(self, server: int) -> list[str]:
        self._check_server(server)
        return sorted(self._store[server])

    def subfile_size(self, server: int, name: str) -> int:
        self._check_server(server)
        return len(self._subfile(server, name).blob)

    # -- I/O ---------------------------------------------------------------
    def _subfile(self, server: int, name: str) -> _Subfile:
        try:
            return self._store[server][name]
        except KeyError:
            raise FileSystemError(
                f"no subfile {name!r} on server {server}"
            ) from None

    def read_extents(
        self, server: int, name: str, extents: Sequence[Extent], *, verify: bool = True
    ) -> bytes:
        self._check_server(server)
        self._check_extents(extents)
        with self._io_locks[server]:
            return read_chunks(self._subfile(server, name), extents, verify=verify)

    def write_extents(
        self,
        server: int,
        name: str,
        extents: Sequence[Extent],
        data: bytes | bytearray | memoryview,
    ) -> None:
        self._check_server(server)
        self._check_payload(extents, data)
        self._check_extents(extents)
        with self._io_locks[server]:
            write_chunks(self._subfile(server, name), extents, data)

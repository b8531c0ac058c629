"""Directory-backed storage backend.

Each DPFS server is a directory on the local machine; subfiles are
regular files inside it.  This mirrors the paper's deployment — the
DPFS server "is built on top of the local file system of each storage
resource ... and can take advantage of I/O optimizations such as
caching and prefetching of the local file system" — collapsed onto one
host for reproducibility.

Subfile names (DPFS paths like ``/home/xhshen/dpfs.test``) are escaped
into flat file names.
"""

from __future__ import annotations

import os
import shutil
import threading
from contextlib import suppress
from pathlib import Path
from collections.abc import Sequence

from ..core.checksum import CRC_ALGORITHM
from ..errors import FileSystemError
from ..util import Extent
from .base import BrickCrc, ServerInfo, StorageBackend, VersionClock, hash_bricks

__all__ = [
    "LocalBackend",
    "escape_subfile_name",
    "unescape_subfile_name",
    "write_subfile",
]


def escape_subfile_name(name: str) -> str:
    """Escape a DPFS path into a safe flat file name.

    ``%`` escapes itself so the mapping is injective:
    ``/a/b`` → ``%2Fa%2Fb``-style but readable: we use ``__`` for ``/``
    and ``%`` escapes for the two metacharacters.
    """
    out = []
    for ch in name:
        if ch == "%":
            out.append("%25")
        elif ch == "/":
            out.append("%2F")
        elif ch == "\x00":
            raise FileSystemError("NUL byte in subfile name")
        else:
            out.append(ch)
    return "".join(out) or "%empty"


def unescape_subfile_name(name: str) -> str:
    """Inverse of :func:`escape_subfile_name`."""
    if name == "%empty":
        return ""
    out = []
    i = 0
    while i < len(name):
        if name.startswith("%2F", i):
            out.append("/")
            i += 3
        elif name.startswith("%25", i):
            out.append("%")
            i += 3
        else:
            out.append(name[i])
            i += 1
    return "".join(out)


def write_subfile(
    path: str | os.PathLike[str],
    extents: Sequence[Extent],
    data: bytes | bytearray | memoryview,
    bricks: Sequence[Extent],
    crc_algo: str,
    clock: VersionClock,
) -> list[BrickCrc]:
    """Apply a write to one subfile, then hash the bricks it touched.

    The caller holds the lock that serialises the server's writes, so
    each ``(crc, version)`` describes a state no other write was half
    way through.
    """
    view = memoryview(data)
    pos = 0
    with open(path, "r+b") as fh:
        for off, ln in extents:
            fh.seek(off)
            fh.write(view[pos : pos + ln])
            pos += ln
        fh.flush()
        return hash_bricks(
            bricks,
            crc_algo,
            lambda off, size: os.pread(fh.fileno(), size, off),
            clock,
        )


def _no_subfile(server: int, name: str) -> FileSystemError:
    return FileSystemError(f"no subfile {name!r} on server {server}")


class LocalBackend(StorageBackend):
    """Servers are subdirectories ``server_0 .. server_{n-1}`` of a root."""

    def __init__(
        self,
        root: str | os.PathLike[str],
        n_servers: int,
        *,
        capacity: int = 1 << 30,
        performance: Sequence[float] | None = None,
    ) -> None:
        if n_servers < 1:
            raise FileSystemError("need at least one server")
        perf = list(performance) if performance is not None else [1.0] * n_servers
        if len(perf) != n_servers:
            raise FileSystemError("performance list length mismatch")
        self.root = Path(root)
        self._dirs = [self.root / f"server_{i}" for i in range(n_servers)]
        for d in self._dirs:
            d.mkdir(parents=True, exist_ok=True)
        self._servers = [
            ServerInfo(
                name=f"local:{self._dirs[i].name}",
                capacity=capacity,
                performance=perf[i],
            )
            for i in range(n_servers)
        ]
        # writes to one server are serialised so each write's brick
        # checksums are hashed and versioned before the next write lands
        self._io_locks = [threading.Lock() for _ in range(n_servers)]
        self._clocks = [VersionClock() for _ in range(n_servers)]

    @property
    def servers(self) -> list[ServerInfo]:
        return list(self._servers)

    def _path(self, server: int, name: str) -> str:
        # a str, not a Path: pathlib interns every path part, so each
        # subfile op would add its name to the interpreter's intern
        # table, whose resizes showed up as ~1 MiB of peak client RSS
        self._check_server(server)
        return os.path.join(self._dirs[server], escape_subfile_name(name))

    # -- lifecycle -----------------------------------------------------------
    def create_subfile(self, server: int, name: str) -> None:
        os.close(os.open(self._path(server, name), os.O_CREAT | os.O_WRONLY, 0o666))

    def delete_subfile(self, server: int, name: str) -> None:
        with suppress(FileNotFoundError):
            os.unlink(self._path(server, name))

    def subfile_exists(self, server: int, name: str) -> bool:
        return os.path.exists(self._path(server, name))

    def rename_subfile(self, server: int, old: str, new: str) -> None:
        with suppress(FileNotFoundError):
            os.replace(self._path(server, old), self._path(server, new))

    def list_subfiles(self, server: int) -> list[str]:
        self._check_server(server)
        return sorted(
            unescape_subfile_name(p.name)
            for p in self._dirs[server].iterdir()
            if p.is_file()
        )

    def subfile_size(self, server: int, name: str) -> int:
        try:
            return os.stat(self._path(server, name)).st_size
        except FileNotFoundError:
            raise _no_subfile(server, name) from None

    # -- I/O -----------------------------------------------------------------
    def read_extents(
        self, server: int, name: str, extents: Sequence[Extent]
    ) -> bytes:
        try:
            fh = open(self._path(server, name), "rb")
        except FileNotFoundError:
            raise _no_subfile(server, name) from None
        out = bytearray()
        with fh:
            size = os.fstat(fh.fileno()).st_size
            for off, ln in extents:
                if off < 0 or ln < 0:
                    raise FileSystemError(f"invalid extent ({off}, {ln})")
                if off < size:
                    fh.seek(off)
                    chunk = fh.read(min(ln, size - off))
                else:
                    chunk = b""
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
        path = self._path(server, name)
        self._check_payload(extents, data)
        for off, ln in extents:
            if off < 0 or ln < 0:
                raise FileSystemError(f"invalid extent ({off}, {ln})")
        with self._io_locks[server]:
            try:
                return write_subfile(
                    path, extents, data, bricks, crc_algo, self._clocks[server]
                )
            except FileNotFoundError:
                raise _no_subfile(server, name) from None

    # -- extras ----------------------------------------------------------------
    def wipe(self) -> None:
        """Delete every subfile on every server (format helper)."""
        for d in self._dirs:
            shutil.rmtree(d)
            d.mkdir(parents=True, exist_ok=True)

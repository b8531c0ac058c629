"""Directory-backed storage backend.

Each DPFS server is a directory on the local machine; subfiles are
regular files inside it.  This mirrors the paper's deployment — the
DPFS server "is built on top of the local file system of each storage
resource ... and can take advantage of I/O optimizations such as
caching and prefetching of the local file system" — collapsed onto one
host for reproducibility.

Subfile names are escaped into flat file names.  A subfile's checksum
sidecar (:mod:`repro.backends.chunks`) of up to :data:`XATTR_MAX` bytes
is an extended attribute of it, so a small subfile costs one inode; a
larger one (or any, without attributes) is the file named as the
subfile plus :data:`SIDECAR_SUFFIX`.
The module-level helpers here each act on one subfile path with one
system call (plus the reads or writes themselves) and raise
:class:`FileNotFoundError` for a missing subfile; the TCP server
(:mod:`repro.net.server`) stores its subfiles through the same helpers.
"""

from __future__ import annotations

import errno
import os
import shutil
import threading
from contextlib import suppress
from pathlib import Path
from collections.abc import Sequence

from ..errors import FileSystemError
from ..util import Extent
from .base import ServerInfo, StorageBackend
from .chunks import read_chunks, write_chunks

__all__ = [
    "LocalBackend",
    "SIDECAR_SUFFIX",
    "escape_subfile_name",
    "unescape_subfile_name",
    "create_subfile",
    "delete_subfile",
    "list_subfiles",
    "read_subfile",
    "rename_subfile",
    "write_subfile",
]

#: a sidecar's file name is its subfile's plus this; an escaped name
#: has ``%`` only before ``25`` or ``2F``, so none ends with it
SIDECAR_SUFFIX = "%crc"
#: the extended attribute holding a small sidecar, and its largest size
#: (64 entries: a subfile of up to 256 KiB), which fits within an inode
XATTR = "user.dpfs.crc"
XATTR_MAX = 256
#: what a file system without (room for) the attribute answers
_NO_XATTR = (errno.ENODATA, errno.ENOTSUP, errno.EOPNOTSUPP, errno.ENOSPC, errno.E2BIG)


def escape_subfile_name(name: str) -> str:
    """Escape a subfile name (a file id, or a path in a root not yet
    migrated) into a safe flat file name.

    ``/`` becomes ``%2F`` and ``%`` escapes itself (``%25``), so the
    mapping is injective: ``/a/b`` → ``%2Fa%2Fb``.
    """
    if "\x00" in name:
        raise FileSystemError("NUL byte in subfile name")
    return name.replace("%", "%25").replace("/", "%2F") or "%empty"


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


def _pwrite_all(fd: int, data: bytes | memoryview, off: int) -> None:
    view = memoryview(data)
    while view:
        n = os.pwrite(fd, view, off)
        view, off = view[n:], off + n


class _FileChunks:
    """A subfile and its sidecar, opened for one request: the sidecar
    file when there is one, else the attribute, absent ones empty."""

    def __init__(self, path: str, name: str, *, writing: bool) -> None:
        self.name, self._sums_path = name, path + SIDECAR_SUFFIX
        flags = os.O_RDWR if writing else os.O_RDONLY
        self._fd = os.open(path, flags)
        try:
            self._sums_fd: int | None = os.open(self._sums_path, flags)
        except FileNotFoundError:
            self._sums_fd = None
        except BaseException:
            os.close(self._fd)
            raise

    def __enter__(self) -> "_FileChunks":
        return self

    def __exit__(self, *exc_info) -> None:
        os.close(self._fd)
        if self._sums_fd is not None:
            os.close(self._sums_fd)

    def read(self, off: int, size: int) -> bytes:
        return os.pread(self._fd, size, off)

    def write(self, off: int, data: bytes | memoryview) -> None:
        _pwrite_all(self._fd, data, off)

    def _xattr(self) -> bytes:
        try:
            return os.getxattr(self._fd, XATTR)
        except OSError as exc:
            if exc.errno not in _NO_XATTR:
                raise
            return b""

    def read_sums(self, off: int, size: int) -> bytes:
        if self._sums_fd is not None:
            return os.pread(self._sums_fd, size, off)
        return self._xattr()[off : off + size]

    def write_sums(self, off: int, data: bytes) -> None:
        if self._sums_fd is None:
            sums = bytearray(self._xattr())
            sums += bytes(max(0, off + len(data) - len(sums)))
            sums[off : off + len(data)] = data
            try:
                if len(sums) <= XATTR_MAX:
                    return os.setxattr(self._fd, XATTR, bytes(sums))
            except OSError as exc:
                if exc.errno not in _NO_XATTR:
                    raise
            # outgrown (or no attributes here): the file takes over, and
            # once it exists the attribute is never read again
            self._sums_fd = os.open(self._sums_path, os.O_RDWR | os.O_CREAT, 0o666)
            off, data = 0, bytes(sums)
        _pwrite_all(self._sums_fd, data, off)


def create_subfile(path: str) -> None:
    """Create an empty subfile (an existing one is left as it is)."""
    os.close(os.open(path, os.O_CREAT | os.O_WRONLY, 0o666))


def delete_subfile(path: str) -> None:
    """Delete a subfile, its sidecar first, so a crash in between leaves
    a subfile the orphan pass of fsck lists; a missing one is already
    deleted."""
    for victim in (path + SIDECAR_SUFFIX, path):
        with suppress(FileNotFoundError):
            os.unlink(victim)


def rename_subfile(old: str, new: str) -> None:
    """Rename a subfile and its sidecar; a sidecar left under ``new``
    by an earlier subfile goes when ``old`` has none."""
    os.replace(old, new)
    try:
        os.replace(old + SIDECAR_SUFFIX, new + SIDECAR_SUFFIX)
    except FileNotFoundError:
        with suppress(FileNotFoundError):
            os.unlink(new + SIDECAR_SUFFIX)


def list_subfiles(directory: str | os.PathLike[str]) -> list[str]:
    """Names of the subfiles in one server directory, sidecars left out."""
    return sorted(
        unescape_subfile_name(entry.name)
        for entry in os.scandir(directory)
        if entry.is_file() and not entry.name.endswith(SIDECAR_SUFFIX)
    )


def read_subfile(
    path: str, name: str, extents: Sequence[Extent], *, verify: bool = True
) -> bytes:
    """Read extents of one subfile, concatenated, each chunk they cover
    checked against its sidecar; bytes past its end read as zeros."""
    with _FileChunks(path, name, writing=False) as store:
        return read_chunks(store, extents, verify=verify)


def write_subfile(
    path: str, name: str, extents: Sequence[Extent], data: bytes | memoryview
) -> None:
    """Apply a write to one subfile and re-stamp the chunks it touched
    (the caller holds the lock that serialises the server's writes)."""
    with _FileChunks(path, name, writing=True) as store:
        write_chunks(store, extents, data)


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
        # I/O to one server is serialised, so a write's chunks and their
        # sidecar entries change together as far as any read can tell
        self._io_locks = [threading.Lock() for _ in range(n_servers)]

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
        create_subfile(self._path(server, name))

    def delete_subfile(self, server: int, name: str) -> None:
        delete_subfile(self._path(server, name))

    def subfile_exists(self, server: int, name: str) -> bool:
        return os.path.exists(self._path(server, name))

    def rename_subfile(self, server: int, old: str, new: str) -> None:
        with suppress(FileNotFoundError):
            rename_subfile(self._path(server, old), self._path(server, new))

    def list_subfiles(self, server: int) -> list[str]:
        self._check_server(server)
        return list_subfiles(self._dirs[server])

    def subfile_size(self, server: int, name: str) -> int:
        try:
            return os.stat(self._path(server, name)).st_size
        except FileNotFoundError:
            raise _no_subfile(server, name) from None

    # -- I/O -----------------------------------------------------------------
    def read_extents(
        self, server: int, name: str, extents: Sequence[Extent], *, verify: bool = True
    ) -> bytes:
        path = self._path(server, name)
        self._check_extents(extents)
        with self._io_locks[server]:
            try:
                return read_subfile(path, name, extents, verify=verify)
            except FileNotFoundError:
                raise _no_subfile(server, name) from None

    def write_extents(
        self,
        server: int,
        name: str,
        extents: Sequence[Extent],
        data: bytes | bytearray | memoryview,
    ) -> None:
        path = self._path(server, name)
        self._check_payload(extents, data)
        self._check_extents(extents)
        with self._io_locks[server]:
            try:
                write_subfile(path, name, extents, data)
            except FileNotFoundError:
                raise _no_subfile(server, name) from None

    # -- extras ----------------------------------------------------------------
    def wipe(self) -> None:
        """Delete every subfile on every server (format helper)."""
        for d in self._dirs:
            shutil.rmtree(d)
            d.mkdir(parents=True, exist_ok=True)

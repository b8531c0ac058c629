"""Change stored bytes behind a backend's back, as bit rot would.

The subfile's checksum sidecar keeps the checksums of the old bytes, so
a read covering a changed chunk fails with ``ChecksumError``.  (Writing
through ``write_extents`` instead re-stamps the sidecar: that models a
copy holding other, self-consistent bytes, such as one that missed a
write.)
"""

from repro.backends.local import LocalBackend
from repro.backends.memory import MemoryBackend
from repro.backends.simulated import SimulatedBackend


def rot_file(path, offset: int, data: bytes) -> None:
    """Overwrite bytes of a subfile file on disk."""
    with open(path, "r+b") as fh:
        fh.seek(offset)
        fh.write(data)


def rot(backend, server: int, name: str, offset: int, data: bytes) -> None:
    """Overwrite bytes of a subfile of an in-process backend (or one it
    wraps) without re-stamping its sidecar."""
    while hasattr(backend, "inner"):
        backend = backend.inner
    if isinstance(backend, SimulatedBackend):
        backend = backend._store
    if isinstance(backend, MemoryBackend):
        backend._store[server][name].blob[offset : offset + len(data)] = data
    elif isinstance(backend, LocalBackend):
        rot_file(backend._path(server, name), offset, data)
    else:
        raise TypeError(f"cannot reach the bytes of {type(backend).__name__}")


def rot_sums(backend, server: int, name: str, chunk: int) -> None:
    """Flip the stored checksum of one chunk of a memory-backend subfile,
    leaving its bytes alone."""
    while hasattr(backend, "inner"):
        backend = backend.inner
    sums = backend._store[server][name].sums
    off = 4 * chunk
    sums.extend(bytes(max(0, off + 4 - len(sums))))
    sums[off] ^= 0xFF

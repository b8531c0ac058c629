"""Fault-injection backend wrapper (testing aid).

Wraps any storage backend and fails selected operations on a
deterministic schedule, so tests can verify that errors surface cleanly
and that the metadata layer never ends up inconsistent with storage.

    faulty = FaultyBackend(MemoryBackend(4))
    faulty.fail_next("write", times=1)          # next write raises
    faulty.fail_on("read", server=2)            # every read on server 2
    faulty.fail_next("read", transient=True)    # retryable by dispatch

Faults scheduled with ``transient=True`` raise :class:`TransientFault`,
which the parallel dispatch layer (repro.core.dispatch) retries with
backoff; plain :class:`InjectedFault` is permanent and propagates on
first occurrence.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from dataclasses import dataclass
from collections.abc import Sequence

from ..errors import FileSystemError
from ..util import Extent
from .base import ServerInfo, StorageBackend

__all__ = ["InjectedFault", "TransientFault", "FaultyBackend"]


class InjectedFault(FileSystemError):
    """The error raised by scheduled faults."""


class TransientFault(InjectedFault):
    """A scheduled fault marked safe to retry (``transient=True``)."""

    transient = True


@dataclass
class _Rule:
    op: str
    server: int | None = None        # None = any server
    times: int | None = None         # None = forever
    transient: bool = False
    fired: int = 0

    def matches(self, op: str, server: int) -> bool:
        if self.op != op:
            return False
        if self.server is not None and self.server != server:
            return False
        return self.times is None or self.fired < self.times


class FaultyBackend(StorageBackend):
    """Delegating backend with scheduled failures."""

    def __init__(self, inner: StorageBackend) -> None:
        self.inner = inner
        self._rules: list[_Rule] = []
        # rule matching is check-then-fire; the lock keeps a times=N
        # rule from over-firing under concurrent dispatch workers
        self._rules_lock = threading.Lock()
        self.faults_fired: dict[str, int] = defaultdict(int)

    # -- scheduling -----------------------------------------------------------
    def fail_next(
        self,
        op: str,
        times: int = 1,
        server: int | None = None,
        *,
        transient: bool = False,
    ) -> None:
        """Fail the next ``times`` occurrences of ``op``."""
        with self._rules_lock:
            self._rules.append(_Rule(op, server, times, transient))

    def fail_on(
        self, op: str, server: int | None = None, *, transient: bool = False
    ) -> None:
        """Fail every occurrence of ``op`` until :meth:`heal`."""
        with self._rules_lock:
            self._rules.append(_Rule(op, server, None, transient))

    def heal(self) -> None:
        """Drop every fault rule."""
        with self._rules_lock:
            self._rules.clear()

    def _maybe_fail(self, op: str, server: int) -> None:
        with self._rules_lock:
            for rule in self._rules:
                if rule.matches(op, server):
                    rule.fired += 1
                    self.faults_fired[op] += 1
                    exc_type = TransientFault if rule.transient else InjectedFault
                    kind = "transient " if rule.transient else ""
                    raise exc_type(
                        f"injected {kind}{op} fault on server {server}"
                    )

    # -- delegation ---------------------------------------------------------
    @property
    def parallel_safe(self) -> bool:  # type: ignore[override]
        return self.inner.parallel_safe

    @property
    def servers(self) -> list[ServerInfo]:
        return self.inner.servers

    def create_subfile(self, server: int, name: str) -> None:
        self._maybe_fail("create", server)
        self.inner.create_subfile(server, name)

    def delete_subfile(self, server: int, name: str) -> None:
        self._maybe_fail("delete", server)
        self.inner.delete_subfile(server, name)

    def subfile_exists(self, server: int, name: str) -> bool:
        return self.inner.subfile_exists(server, name)

    def rename_subfile(self, server: int, old: str, new: str) -> None:
        self._maybe_fail("rename", server)
        self.inner.rename_subfile(server, old, new)

    def subfile_size(self, server: int, name: str) -> int:
        return self.inner.subfile_size(server, name)

    def list_subfiles(self, server: int) -> list[str]:
        return self.inner.list_subfiles(server)

    def read_extents(
        self, server: int, name: str, extents: Sequence[Extent], *, verify: bool = True
    ) -> bytes:
        self._maybe_fail("read", server)
        return self.inner.read_extents(server, name, extents, verify=verify)

    def write_extents(
        self,
        server: int,
        name: str,
        extents: Sequence[Extent],
        data: bytes | bytearray | memoryview,
    ) -> None:
        self._maybe_fail("write", server)
        self.inner.write_extents(server, name, extents, data)

    def close(self) -> None:
        self.inner.close()

"""Simulated storage backend: functional I/O plus a simulated clock.

Bytes are stored in memory (so reads return real data), while every
operation is also *priced* on the discrete-event models of
:mod:`repro.netsim` — a sequential client's view of the paper's
hardware.  ``fs.backend.clock`` then tells you the simulated seconds a
workload would have cost, which the examples use to contrast striping
choices without running the full §8 harness.

Operations are priced one at a time (the caller is a single synchronous
client); for multi-client contention experiments use
:mod:`repro.perf`, which simulates all ranks concurrently.

A write is priced as the transfer and disk write of its extents only,
and a read as the transfer and disk read of its extents.  The chunk
checksums a server keeps (:mod:`repro.backends.chunks`) are not priced:
the model has no per-byte CPU cost to charge their hashing to, and the
4-byte sidecar entries are too small to move a disk model.

Pricing runs under a lock so the backend tolerates the parallel
dispatch layer's concurrent workers (the DES environment itself is
single-threaded).  With ``realtime_scale`` set, each operation also
*sleeps* its simulated duration scaled by that factor, outside the
lock — so concurrently dispatched requests to different servers overlap
in wall-clock time, which is what the dispatch benchmarks measure.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Sequence

from ..errors import FileSystemError
from ..netsim.classes import StorageClassParams, build_topology
from ..netsim.node import CostParams, WireRequest, serve_request
from ..sim import Environment
from ..util import Extent, coalesce_extents
from .base import ServerInfo, StorageBackend
from .memory import MemoryBackend

__all__ = ["SimulatedBackend"]


class SimulatedBackend(StorageBackend):
    """Memory-backed data + DES-priced timing."""

    def __init__(
        self,
        classes: Sequence[StorageClassParams],
        costs: CostParams | None = None,
        *,
        realtime_scale: float = 0.0,
    ) -> None:
        if not classes:
            raise FileSystemError("need at least one server")
        if realtime_scale < 0:
            raise FileSystemError("realtime_scale must be >= 0")
        self.classes = list(classes)
        self.costs = costs or CostParams()
        self.realtime_scale = realtime_scale
        self._price_lock = threading.Lock()
        self.env = Environment()
        self.sim_servers = build_topology(self.env, self.classes)
        self._store = MemoryBackend(
            len(self.classes),
            performance=[c.performance for c in self.classes],
            names=[f"sim:c{c.class_id}.s{i}" for i, c in enumerate(self.classes)],
        )

    @property
    def clock(self) -> float:
        """Simulated seconds consumed so far."""
        return self.env.now

    @property
    def servers(self) -> list[ServerInfo]:
        return self._store.servers

    # -- pricing -----------------------------------------------------------
    def _price(self, server: int, extents: Sequence[Extent], *, is_read: bool) -> None:
        merged = tuple(coalesce_extents(extents))
        nbytes = sum(ln for _o, ln in merged)
        request = WireRequest(
            server=server, extents=merged, transfer_bytes=nbytes, is_read=is_read
        )
        with self._price_lock:
            start = self.env.now
            proc = self.env.process(
                serve_request(self.env, self.sim_servers[server], request, self.costs)
            )
            self.env.run(until=proc)
            duration = self.env.now - start
        if self.realtime_scale:
            # replay the priced duration in wall time, outside the lock,
            # so concurrent dispatch to independent servers overlaps
            time.sleep(duration * self.realtime_scale)

    # -- lifecycle (un-priced metadata ops) ----------------------------------
    def create_subfile(self, server: int, name: str) -> None:
        self._store.create_subfile(server, name)

    def delete_subfile(self, server: int, name: str) -> None:
        self._store.delete_subfile(server, name)

    def subfile_exists(self, server: int, name: str) -> bool:
        return self._store.subfile_exists(server, name)

    def rename_subfile(self, server: int, old: str, new: str) -> None:
        self._store.rename_subfile(server, old, new)

    def list_subfiles(self, server: int) -> list[str]:
        return self._store.list_subfiles(server)

    def subfile_size(self, server: int, name: str) -> int:
        return self._store.subfile_size(server, name)

    # -- priced I/O -----------------------------------------------------------
    def read_extents(
        self, server: int, name: str, extents: Sequence[Extent], *, verify: bool = True
    ) -> bytes:
        data = self._store.read_extents(server, name, extents, verify=verify)
        self._price(server, extents, is_read=True)
        return data

    def write_extents(
        self,
        server: int,
        name: str,
        extents: Sequence[Extent],
        data: bytes | bytearray | memoryview,
    ) -> None:
        self._store.write_extents(server, name, extents, data)
        self._price(server, extents, is_read=False)

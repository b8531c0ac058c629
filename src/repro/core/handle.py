"""DPFS file handles — the object DPFS-Open returns (§6).

A handle executes logical reads/writes by

1. translating them to brick slices with the file's striping method,
2. planning wire requests (combined per server, or one per slice —
   §4.2) against the file's brick map, and
3. gathering/scattering payload bytes through the storage backend.

Three addressing styles are offered:

``read``/``write``
    plain byte streams (natural for linear files),
``read_type``/``write_type``
    MPI-IO derived datatypes: the typemap describes *file* layout, the
    payload is packed bytes,
``read_array``/``write_array``
    NumPy arrays against N-d element regions (multidim/array files).

``rank`` identifies the calling process in a parallel program; it seeds
the staggered schedule of combined requests.  ``stats`` counts requests
and bytes for tests and the §8 harness.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..checksum import checksum_fn  # noqa: F401 - perfbench's ledger wraps it here
from ..datatypes import Datatype
from ..errors import (
    BadFileHandle,
    ChecksumError,
    DPFSError,
    FileSystemError,
    StripingError,
)
from ..hpf.regions import Region
from ..obs.registry import MetricsRegistry
from ..obs.trace import span
from ..util import Extent
from .brick import BrickLocation, BrickMap, BrickSlice, ReplicaMap, subfile_names
from .combine import ServerRequest, SlicePlacement, plan_requests
from .metadata import FileRecord
from .scrub import brick_copies, read_fresh_copy, repair_copy
from .striping import FileLevel, LinearStriping, StripingMethod

if TYPE_CHECKING:  # pragma: no cover
    from .filesystem import DPFS

__all__ = ["FileHandle", "IOStats"]


@dataclass
class IOStats:
    """Counters of the traffic a handle generated.

    Updated from dispatcher worker threads, so every mutation goes
    through :meth:`record` under a lock.  Latency accounting is split
    three ways so retries cannot be double-read: per server,
    ``per_server_latency_s`` is total wall time (failed attempts and
    backoff included), ``per_server_service_s`` is the successful
    attempt alone, and ``per_server_backoff_s`` the retry sleeps — so
    ``latency >= service + backoff`` holds per server and the remainder
    is failed-attempt time.  A handle's stats are a handle-scoped view;
    :meth:`bind` forwards the same events into the file system's
    :class:`~repro.obs.registry.MetricsRegistry`, which is the
    system-wide source of truth (``DPFS.metrics``).  Note the registry's
    ``dpfs_dispatch_retries_total`` also counts retries of requests
    that ultimately failed, which no handle ever observes.
    """

    requests: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    bricks_touched: int = 0
    prefetched_bricks: int = 0
    retries: int = 0
    per_server_requests: dict[int, int] = field(default_factory=dict)
    per_server_retries: dict[int, int] = field(default_factory=dict)
    per_server_latency_s: dict[int, float] = field(default_factory=dict)
    per_server_service_s: dict[int, float] = field(default_factory=dict)
    per_server_backoff_s: dict[int, float] = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )
    _fwd: tuple | None = field(default=None, repr=False, compare=False)

    def bind(self, registry: MetricsRegistry) -> "IOStats":
        """Mirror this handle's events into the shared registry.

        Holds the raw series cells (``_cell_for``), not the counter
        objects: :meth:`record` runs once per dispatched request, and a
        direct ``cell.v += n`` under the cell lock is the cheapest
        thread-safe increment available.
        """
        self._fwd = (
            registry.counter(
                "dpfs_io_bytes_read_total", "payload bytes read by handles"
            )._cell_for(()),
            registry.counter(
                "dpfs_io_bytes_written_total", "payload bytes written by handles"
            )._cell_for(()),
            registry.counter(
                "dpfs_io_bricks_touched_total", "bricks covered by handle requests"
            )._cell_for(()),
            registry.counter(
                "dpfs_io_prefetched_bricks_total", "bricks pulled by read-ahead"
            )._cell_for(()),
        )
        return self

    def record(
        self,
        server: int,
        nbytes: int,
        *,
        is_read: bool,
        bricks: int,
        latency_s: float = 0.0,
        retries: int = 0,
        service_s: float = 0.0,
        backoff_s: float = 0.0,
    ) -> None:
        with self._lock:
            self.requests += 1
            self.bricks_touched += bricks
            self.retries += retries
            self.per_server_requests[server] = (
                self.per_server_requests.get(server, 0) + 1
            )
            if retries:
                self.per_server_retries[server] = (
                    self.per_server_retries.get(server, 0) + retries
                )
            if backoff_s:
                self.per_server_backoff_s[server] = (
                    self.per_server_backoff_s.get(server, 0.0) + backoff_s
                )
            self.per_server_latency_s[server] = (
                self.per_server_latency_s.get(server, 0.0) + latency_s
            )
            self.per_server_service_s[server] = (
                self.per_server_service_s.get(server, 0.0) + service_s
            )
            if is_read:
                self.bytes_read += nbytes
            else:
                self.bytes_written += nbytes
        fwd = self._fwd
        if fwd is not None:
            cell = fwd[0] if is_read else fwd[1]
            with cell.lock:
                cell.v += nbytes
            cell = fwd[2]
            with cell.lock:
                cell.v += bricks

    def note_prefetch(self, bricks: int = 1) -> None:
        with self._lock:
            self.prefetched_bricks += bricks
        if self._fwd is not None:
            cell = self._fwd[3]
            with cell.lock:
                cell.v += bricks


class FileHandle:
    """An open DPFS file.  Create via :meth:`repro.core.filesystem.DPFS.open`."""

    def __init__(
        self,
        fs: "DPFS",
        record: FileRecord,
        brick_map: BrickMap,
        striping: StripingMethod,
        mode: str,
        *,
        rank: int = 0,
        combine: bool = True,
        stagger: bool = True,
        replica_map: ReplicaMap | None = None,
    ) -> None:
        self.fs = fs
        self.record = record
        self.brick_map = brick_map
        self.replica_map = replica_map
        self.striping = striping
        self.mode = mode
        self.rank = rank
        self.combine = combine
        self.stagger = stagger
        self.stats = IOStats().bind(fs.metrics)
        self._closed = False
        #: the file's id and its subfile names: a rename after this
        #: handle opened changes neither
        self._id = record.file_id
        self._name, self._rname = subfile_names(record.file_id)
        #: read-ahead state: one past the last brick id fetched by a
        #: cache-enabled read (sequential-pattern detector)
        self._next_expected_brick = 0

    # -- bookkeeping ---------------------------------------------------------
    @property
    def path(self) -> str:
        return self.record.path

    @property
    def level(self) -> FileLevel:
        return self.record.level

    @property
    def size(self) -> int:
        return self.record.size

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """DPFS-Close: invalidate the handle (metadata is already durable)."""
        if not self._closed:
            self._closed = True

    def __enter__(self) -> "FileHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_open(self, *, writing: bool) -> None:
        if self._closed:
            raise BadFileHandle(f"handle for {self.path!r} is closed")
        if writing and self.mode == "r":
            raise FileSystemError(f"{self.path!r} opened read-only")

    # ------------------------------------------------------------------
    # byte-stream API
    # ------------------------------------------------------------------
    def read(self, offset: int, nbytes: int) -> bytes:
        """Read ``nbytes`` at ``offset`` of the logical byte stream."""
        self._check_open(writing=False)
        if nbytes < 0 or offset < 0:
            raise FileSystemError("negative offset/length")
        nbytes = min(nbytes, max(self.record.size - offset, 0))
        if nbytes == 0:
            return b""
        slices = self.striping.slices_for_extents([(offset, nbytes)])
        return self._execute_read(slices, nbytes)

    def write(self, offset: int, data: bytes) -> int:
        """Write ``data`` at byte ``offset``; grows linear files."""
        self._check_open(writing=True)
        if offset < 0:
            raise FileSystemError("negative offset")
        if not data:
            return 0
        end = offset + len(data)
        if end > self.record.size:
            self._grow_to(end)
        slices = self.striping.slices_for_extents([(offset, len(data))])
        self._execute_write(slices, data)
        return len(data)

    def read_extents(self, extents: Sequence[Extent]) -> bytes:
        """Read a list of byte extents, concatenated in list order."""
        self._check_open(writing=False)
        total = sum(ln for _o, ln in extents)
        if total == 0:
            return b""
        slices = self.striping.slices_for_extents(list(extents))
        return self._execute_read(slices, total)

    def write_extents(self, extents: Sequence[Extent], data: bytes) -> int:
        """Write packed ``data`` across a list of byte extents (in order)."""
        self._check_open(writing=True)
        extents = [e for e in extents if e[1] > 0]
        if not extents:
            return 0
        total = sum(ln for _o, ln in extents)
        if total != len(data):
            raise FileSystemError(
                f"extent list covers {total} bytes but payload is {len(data)}"
            )
        end = max(off + ln for off, ln in extents)
        if end > self.record.size:
            self._grow_to(end)
        slices = self.striping.slices_for_extents(list(extents))
        self._execute_write(slices, data)
        return total

    # ------------------------------------------------------------------
    # derived-datatype API
    # ------------------------------------------------------------------
    def read_type(self, datatype: Datatype, offset: int = 0) -> bytes:
        """Read the file bytes selected by ``datatype`` (packed order)."""
        self._check_open(writing=False)
        extents = datatype.flattened(offset)
        return self.read_extents(extents)

    def write_type(self, datatype: Datatype, data: bytes, offset: int = 0) -> int:
        """Write packed ``data`` into the file at the datatype's typemap."""
        self._check_open(writing=True)
        if len(data) != datatype.size:
            raise FileSystemError(
                f"payload is {len(data)} bytes but datatype size is {datatype.size}"
            )
        extents = datatype.flattened(offset)
        if not extents:
            return 0
        end = max(off + ln for off, ln in extents)
        if end > self.record.size:
            self._grow_to(end)
        slices = self.striping.slices_for_extents(extents)
        self._execute_write(slices, data)
        return len(data)

    # ------------------------------------------------------------------
    # array/region API
    # ------------------------------------------------------------------
    def _region_slices(self, region: Region) -> list[BrickSlice]:
        if self.level is FileLevel.LINEAR:
            raise StripingError(
                "region addressing needs a multidim or array file level"
            )
        return self.striping.slices_for_region(region)

    def read_region(self, starts: Sequence[int], shape: Sequence[int]) -> bytes:
        """Read an N-d element region; returns packed row-major bytes."""
        self._check_open(writing=False)
        region = Region(
            tuple(starts), tuple(s + n for s, n in zip(starts, shape))
        )
        slices = self._region_slices(region)
        return self._execute_read(slices, region.volume * self.record.element_size)

    def write_region(self, starts: Sequence[int], shape: Sequence[int], data: bytes) -> int:
        """Write packed row-major bytes into an N-d element region."""
        self._check_open(writing=True)
        region = Region(
            tuple(starts), tuple(s + n for s, n in zip(starts, shape))
        )
        expected = region.volume * self.record.element_size
        if len(data) != expected:
            raise FileSystemError(
                f"payload is {len(data)} bytes but region holds {expected}"
            )
        slices = self._region_slices(region)
        self._execute_write(slices, data)
        return len(data)

    def read_array(self, starts: Sequence[int], shape: Sequence[int], dtype) -> np.ndarray:
        """Read a region into a NumPy array."""
        dt = np.dtype(dtype)
        if dt.itemsize != self.record.element_size:
            raise FileSystemError(
                f"dtype itemsize {dt.itemsize} != file element size "
                f"{self.record.element_size}"
            )
        raw = self.read_region(starts, shape)
        return np.frombuffer(raw, dtype=dt).reshape(tuple(shape)).copy()

    def write_array(self, starts: Sequence[int], array: np.ndarray) -> int:
        """Write a NumPy array at the region anchored at ``starts``."""
        arr = np.ascontiguousarray(array)
        if arr.dtype.itemsize != self.record.element_size:
            raise FileSystemError(
                f"dtype itemsize {arr.dtype.itemsize} != file element size "
                f"{self.record.element_size}"
            )
        return self.write_region(starts, arr.shape, arr.tobytes())

    def read_chunk(self, rank: int | None = None) -> bytes:
        """Array level: read the whole chunk owned by ``rank`` (default:
        this handle's rank) in one request — the checkpoint-restart path."""
        from .striping import ArrayStriping

        if not isinstance(self.striping, ArrayStriping):
            raise StripingError("read_chunk needs an array-level file")
        chunk = self.striping.chunk_of(self.rank if rank is None else rank)
        return self.read_region(chunk.starts, chunk.shape)

    def write_chunk(self, data: bytes, rank: int | None = None) -> int:
        """Array level: write the whole chunk owned by ``rank``."""
        from .striping import ArrayStriping

        if not isinstance(self.striping, ArrayStriping):
            raise StripingError("write_chunk needs an array-level file")
        chunk = self.striping.chunk_of(self.rank if rank is None else rank)
        return self.write_region(chunk.starts, chunk.shape, data)

    # ------------------------------------------------------------------
    # execution engine
    # ------------------------------------------------------------------
    def _plan(self, slices: list[BrickSlice]):
        return plan_requests(
            slices,
            self.brick_map,
            combine=self.combine,
            rank=self.rank,
            stagger=self.stagger,
        )

    # -- replica copy bookkeeping -----------------------------------------
    def _has_replicas(self) -> bool:
        rmap = self.replica_map
        return rmap is not None and any(rmap.bricklists)

    def _choose_copy(self, brick_id: int) -> tuple[int, BrickLocation]:
        """Copy to read, as ``(copy index, location)``: the first copy
        not listed stale on an UP server, else on a DEGRADED one, else
        the first (its read raises); all listed raises ChecksumError."""
        stale = self.fs.stale_copies
        copies = [
            (idx, loc)
            for idx, (loc, _name) in enumerate(
                brick_copies(self._id, self.brick_map, self.replica_map, brick_id)
            )
            if (self._id, brick_id, loc.server) not in stale
        ]
        if not copies:
            raise ChecksumError(
                f"{self.record.path} brick {brick_id}: every copy is listed "
                f"stale (missed a write or failed its checksum)"
            )
        health = [self.fs.backend.server_health(loc.server) for _idx, loc in copies]
        best = max(range(len(copies)), key=lambda i: (min(health[i], 2), -i))
        if copies[best][0] != 0:
            self.fs._note_failover("health")
        return copies[best]

    def _replica_requests(
        self, groups: dict[tuple[int, int], list[SlicePlacement]]
    ) -> list[ServerRequest]:
        """One request per ``(server, replica copy index)`` group."""
        return [
            ServerRequest(server, placements, name=self._rname, copy=idx)
            for (server, idx), placements in sorted(groups.items())
        ]

    def _plan_read(self, slices: list[BrickSlice]) -> list[ServerRequest]:
        """Wire plan with a health- and staleness-aware copy choice per
        brick."""
        if not self._has_replicas() and not self.fs.stale_copies:
            return self._plan(slices)
        primary: list[BrickSlice] = []
        groups: dict[tuple[int, int], list[SlicePlacement]] = {}
        for s in slices:
            idx, loc = self._choose_copy(s.brick_id)
            if idx == 0:
                primary.append(s)
            else:
                groups.setdefault((loc.server, idx), []).append(
                    SlicePlacement(s, loc.server, loc.local_offset + s.offset)
                )
        return (self._plan(primary) if primary else []) + self._replica_requests(groups)

    def _plan_write(self, slices: list[BrickSlice]) -> list[ServerRequest]:
        """Primary plan plus one request per (server, replica copy)."""
        plan = self._plan(slices)
        if not self._has_replicas():
            return plan
        groups: dict[tuple[int, int], list[SlicePlacement]] = {}
        for s in slices:
            for idx, loc in enumerate(self.replica_map.locations(s.brick_id), start=1):
                groups.setdefault((loc.server, idx), []).append(
                    SlicePlacement(s, loc.server, loc.local_offset + s.offset)
                )
        return plan + self._replica_requests(groups)

    def _execute_read(self, slices: list[BrickSlice], total: int) -> bytes:
        with self.fs.tracer.trace(
            "handle.read", path=self.record.path, bytes=total
        ):
            return self._execute_read_inner(slices, total)

    def _execute_read_inner(self, slices: list[BrickSlice], total: int) -> bytes:
        cache = self.fs.cache
        if cache is None:
            payload = bytearray(total)
            self._fetch_into(slices, payload, offset_map=None)
            return bytes(payload)

        payload = bytearray(total)
        missing: list[BrickSlice] = []
        with span("cache.lookup", slices=len(slices)) as cache_span:
            for s in slices:
                cached = cache.get(self._id, s.brick_id)
                if cached is not None:
                    payload[s.buffer_offset : s.buffer_offset + s.length] = cached[
                        s.offset : s.offset + s.length
                    ]
                else:
                    missing.append(s)
            cache_span.tag(hits=len(slices) - len(missing), misses=len(missing))
        if not missing:
            return bytes(payload)

        # Fetch whole bricks for cacheable ones (first-touch order) and
        # exact byte ranges for bricks too large to admit.
        whole: list[BrickSlice] = []
        exact: list[BrickSlice] = []
        seen: set[int] = set()
        fetch_offset = 0
        for s in missing:
            loc = self.brick_map.location(s.brick_id)
            if cache.cacheable(loc.size):
                if s.brick_id not in seen:
                    seen.add(s.brick_id)
                    whole.append(
                        BrickSlice(s.brick_id, 0, loc.size, fetch_offset)
                    )
                    fetch_offset += loc.size
            else:
                exact.append(
                    BrickSlice(s.brick_id, s.offset, s.length, fetch_offset)
                )
                fetch_offset += s.length

        # Read-ahead: when the access continues a sequential brick walk,
        # pull the next few bricks in the same wire plan ("prefetching"
        # is the local-FS optimization the paper credits, §1 fn. 1 —
        # here applied client-side).
        readahead = getattr(self.fs, "readahead_bricks", 0)
        touched = [s.brick_id for s in slices]
        if readahead > 0 and touched:
            lo, hi = min(touched), max(touched)
            if lo <= self._next_expected_brick:
                for brick_id in range(hi + 1, hi + 1 + readahead):
                    if brick_id >= len(self.brick_map):
                        break
                    if brick_id in seen or cache.peek(self._id, brick_id):
                        continue
                    loc = self.brick_map.location(brick_id)
                    if not cache.cacheable(loc.size):
                        continue
                    seen.add(brick_id)
                    whole.append(
                        BrickSlice(brick_id, 0, loc.size, fetch_offset)
                    )
                    fetch_offset += loc.size
                    self.stats.note_prefetch()
            self._next_expected_brick = hi + 1

        fetched = bytearray(fetch_offset)
        self._fetch_into(whole + exact, fetched, offset_map=None)

        bricks: dict[int, bytes] = {}
        for w in whole:
            data = bytes(fetched[w.buffer_offset : w.buffer_offset + w.length])
            bricks[w.brick_id] = data
            cache.put(self._id, w.brick_id, data)
        exact_by_key = {
            (e.brick_id, e.offset, e.length): e.buffer_offset for e in exact
        }
        for s in missing:
            if s.brick_id in bricks:
                payload[s.buffer_offset : s.buffer_offset + s.length] = bricks[
                    s.brick_id
                ][s.offset : s.offset + s.length]
            else:
                src = exact_by_key[(s.brick_id, s.offset, s.length)]
                payload[s.buffer_offset : s.buffer_offset + s.length] = fetched[
                    src : src + s.length
                ]
        return bytes(payload)

    def _fetch_into(
        self,
        slices: list[BrickSlice],
        payload: bytearray,
        offset_map,
    ) -> None:
        """Run the wire plan for ``slices``, scattering into ``payload``
        at each slice's buffer_offset.

        Per-server requests are fanned out through the file system's
        shared dispatcher; scattering happens in the worker since every
        request owns disjoint buffer_offset ranges by construction.
        """
        backend = self.fs.backend
        with span("combine.plan", slices=len(slices)) as plan_span:
            plan = self._plan_read(slices)
            plan_span.tag(requests=len(plan), combine=self.combine)

        def fetch(req) -> int:
            name = req.name if req.name is not None else self._name
            try:
                data = backend.read_extents(req.server, name, req.extents)
            except (DPFSError, OSError) as exc:
                if not self._has_replicas():
                    raise
                self._fail_over(req, exc, payload)
                return sum(p.slice.length for p in req.placements)
            view = memoryview(data)
            pos = 0
            for p in req.placements:
                ln = p.slice.length
                payload[p.slice.buffer_offset : p.slice.buffer_offset + ln] = view[
                    pos : pos + ln
                ]
                pos += ln
            return len(data)

        def done(req, result) -> None:
            self.stats.record(
                req.server,
                result.value,
                is_read=True,
                bricks=len(set(req.brick_ids)),
                latency_s=result.latency_s,
                retries=result.retries,
                service_s=result.service_s,
                backoff_s=result.backoff_s,
            )

        self.fs.dispatcher.run(plan, fetch, on_result=done)

    # -- failover and read-repair ------------------------------------------
    def _fail_over(
        self, req: ServerRequest, exc: Exception, payload: bytearray
    ) -> None:
        """Serve a failed read request's slices from other copies; after a
        checksum failure, rewrite its bricks on the failed copy (inline
        read-repair), listing stale those that cannot be rewritten."""
        corrupt = isinstance(exc, ChecksumError)
        if corrupt:
            self.fs._note_checksum_error()
        self.fs._note_failover("checksum" if corrupt else "error")
        for p in req.placements:
            s = p.slice
            payload[s.buffer_offset : s.buffer_offset + s.length] = read_fresh_copy(
                self.fs, self._id, self.brick_map, self.replica_map,
                s.brick_id, exclude=req.server, offset=s.offset, length=s.length,
            )
        if corrupt:
            self.fs._list_stale({
                (self._id, brick_id, req.server)
                for brick_id in set(req.brick_ids)
                if not repair_copy(
                    self.fs, self._id, self.brick_map, self.replica_map,
                    brick_id, req.server,
                )
            })

    def _execute_write(self, slices: list[BrickSlice], data: bytes) -> None:
        with self.fs.tracer.trace(
            "handle.write", path=self.record.path, bytes=len(data)
        ):
            self._execute_write_inner(slices, data)

    def _execute_write_inner(self, slices: list[BrickSlice], data: bytes) -> None:
        backend = self.fs.backend
        with span("combine.plan", slices=len(slices)) as plan_span:
            plan = self._plan_write(slices)
            plan_span.tag(requests=len(plan), combine=self.combine)

        view = memoryview(data)
        succeeded: list[ServerRequest] = []
        results_lock = threading.Lock()

        def put(req) -> int:
            placements = req.placements
            if len(placements) == 1:
                s = placements[0].slice
                blob = view[s.buffer_offset : s.buffer_offset + s.length]
            else:
                blob = b"".join(
                    view[p.slice.buffer_offset : p.slice.buffer_offset + p.slice.length]
                    for p in placements
                )
            name = req.name if req.name is not None else self._name
            backend.write_extents(req.server, name, req.extents, blob)
            return len(blob)

        def done(req, result) -> None:
            with results_lock:
                succeeded.append(req)
            self.stats.record(
                req.server,
                result.value,
                is_read=False,
                bricks=len(set(req.brick_ids)),
                latency_s=result.latency_s,
                retries=result.retries,
                service_s=result.service_s,
                backoff_s=result.backoff_s,
            )

        try:
            self.fs.dispatcher.run(plan, put, on_result=done)
        except (DPFSError, OSError):
            # Quorum-less degraded write: the write stands as long as
            # every touched brick reached at least one copy.  The copies
            # it missed hold self-consistent old bytes, so they are
            # listed stale before the write returns; reads skip them
            # until scrub, refill or read-repair rewrites them.
            if not self._has_replicas():
                raise
            written: set[int] = set()
            for req in succeeded:
                written.update(req.brick_ids)
            if not {s.brick_id for s in slices} <= written:
                raise
            done_ids = {id(req) for req in succeeded}
            self.fs._list_stale({
                (self._id, brick_id, req.server)
                for req in plan if id(req) not in done_ids
                for brick_id in req.brick_ids
            })
            self.fs._note_degraded_write()
        cache = self.fs.cache
        if cache is not None:
            # write-through coherence: patch any cached image in place
            with span("cache.patch", slices=len(slices)):
                for s in slices:
                    cache.patch(
                        self._id,
                        s.brick_id,
                        s.offset,
                        data[s.buffer_offset : s.buffer_offset + s.length],
                    )

    # ------------------------------------------------------------------
    # growth (linear level)
    # ------------------------------------------------------------------
    def _grow_to(self, new_size: int) -> None:
        if not isinstance(self.striping, LinearStriping):
            raise StripingError(
                f"{self.level.value} files have fixed size "
                f"{self.record.size}; write within the array"
            )
        self.fs._grow_file(self, new_size)

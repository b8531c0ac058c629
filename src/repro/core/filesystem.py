"""The DPFS file system facade — DPFS-Open/Close plus namespace ops.

Binds together a storage backend (the I/O-node pool), the metadata
manager (four SQL tables, §5), the striping methods (§3), the placement
algorithms (§4.1) and the request planner (§4.2).

    fs = DPFS.memory(n_servers=4)
    fs.makedirs("/home/user")
    hint = Hint.multidim((1024, 1024), 8, (128, 128), placement="greedy")
    with fs.open("/home/user/field", "w", hint=hint) as f:
        f.write_array((0, 0), data)
"""

from __future__ import annotations

import ctypes
import os
from typing import Any, Sequence

from ..backends.base import StorageBackend
from ..backends.local import LocalBackend
from ..backends.memory import MemoryBackend
from ..errors import (
    DPFSError,
    FileNotFound,
    FileSystemError,
    InvalidHint,
    MultiServerError,
    PermissionDenied,
)
from ..metadb import Database
from ..obs import MetricsRegistry, Tracer
from .brick import BrickMap, ReplicaMap, subfile_names
from .cache import BrickCache
from .crashpoints import crashpoint, register
from .dispatch import Dispatcher, DispatchPolicy
from .handle import FileHandle
from .hints import Hint
from .intent import IntentLog, RecoveryReport
from .intent import recover as _recover_intents
from .metadata import FileRecord, Holders, MetadataManager, normalize_path
from .placement import Greedy, PlacementPolicy, RoundRobin, make_policy
from .striping import FileLevel, LinearStriping

__all__ = ["DPFS"]

#: default permission bits for new files (the paper's example uses 744)
DEFAULT_PERMISSION = 0o744

#: glibc ``mallopt`` parameters, and the value both are pinned at
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MALLOC_THRESHOLD = 128 * 1024


def _pin_malloc_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds at their 128 KiB defaults.

    Left alone, glibc raises its mmap threshold to the size of the
    largest mapped block freed so far.  Once a client has freed one
    multi-MiB write buffer, later buffers of that size come from the
    heap, and a freed one stays resident there as a hole.  Whether the
    next buffer fits that hole depends on whether small allocations of
    a later mount landed in it, which changes with thread timing, so
    the process's footprint differed by a whole buffer from one run to
    the next.  Pinned, every block of 128 KiB or more gets its own
    mapping and is returned to the system when freed; the price is
    that such a block is mapped afresh each time, which slows large
    reads.  Process-wide, idempotent, and a no-op where the C library
    has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, _MALLOC_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _MALLOC_THRESHOLD)


# -- crash points ------------------------------------------------------------
# One per boundary that separates two different durable states of a
# multi-step operation; the systematic crash sweep
# (tests/core/test_crash_sweep.py) arms each of these in turn and
# proves a remount plus ``fsck --repair`` restores a clean namespace.
# The ``mid_subfiles``/``mid_copy`` points sit *inside* the per-server
# fan-out, after one server's work, so they model a crash with the
# mutation half-applied across the cluster.  The ``in_commit`` points
# sit inside the commit transaction: a crash there means the
# transaction never became durable, so the operation never happened.
# A boundary with no durable change between it and its neighbour (or
# the operation's start or end) has no point: a crash there leaves the
# same state as one at the neighbour.
CP_CREATE_IN_COMMIT = register("filesystem.create.in_commit")
CP_CREATE_AFTER_COMMIT = register("filesystem.create.after_commit")
CP_CREATE_MID_SUBFILES = register("filesystem.create.mid_subfiles")
CP_REMOVE_IN_COMMIT = register("filesystem.remove.in_commit")
CP_REMOVE_AFTER_METADATA = register("filesystem.remove.after_metadata")
CP_REMOVE_MID_SUBFILES = register("filesystem.remove.mid_subfiles")
CP_REMOVE_AFTER_SUBFILES = register("filesystem.remove.after_subfiles")
CP_RENAME_IN_COMMIT = register("filesystem.rename.in_commit")
CP_GROW_MID_SUBFILES = register("filesystem.grow.mid_subfiles")
CP_GROW_IN_COMMIT = register("filesystem.grow.in_commit")
CP_REFILL_AFTER_INTENT = register("filesystem.refill.after_intent")
CP_REFILL_MID_COPY = register("filesystem.refill.mid_copy")
CP_REFILL_AFTER_COPY = register("filesystem.refill.after_copy")


class _SubsetPolicy(PlacementPolicy):
    """Restrict any policy to a subset of servers (the user's suggested
    number of I/O nodes, a DPFS-Open argument)."""

    def __init__(self, inner: PlacementPolicy, subset: Sequence[int], n_total: int) -> None:
        super().__init__(n_total)
        self.inner = inner
        self.subset = list(subset)

    @property
    def name(self) -> str:
        return self.inner.name

    def assign_next(self) -> int:
        return self.subset[self.inner.assign_next()]

    def assign_excluding(self, exclude: set[int]) -> int:
        inner_exclude = {
            i for i, s in enumerate(self.subset) if s in exclude
        }
        return self.subset[self.inner.assign_excluding(inner_exclude)]

    def assign_replicas(self, n_copies: int) -> list[int]:
        if n_copies > len(self.subset):
            raise InvalidHint(
                f"{n_copies} replicas need {n_copies} distinct servers but "
                f"io_nodes restricts placement to {len(self.subset)}"
            )
        return super().assign_replicas(n_copies)


class DPFS:
    """One mounted DPFS instance."""

    def __init__(
        self,
        backend: StorageBackend,
        db: Database | None = None,
        *,
        owner: str = "dpfs",
        default_combine: bool = True,
        cache_bytes: int = 0,
        readahead_bricks: int = 0,
        io_workers: int = 4,
        io_timeout_s: float | None = None,
        io_retries: int = 3,
        io_backoff_s: float = 0.002,
        tracing: bool = False,
        auto_recover: bool = True,
    ) -> None:
        _pin_malloc_thresholds()
        self.backend = backend
        self.db = db if db is not None else Database()
        self.meta = MetadataManager(self.db)
        self.meta.register_servers(backend.servers)
        #: journal of removes and refills still owing server work
        #: (dpfs_intent table)
        self.intents = IntentLog(self.db)
        self._rename_legacy_subfiles()
        self.owner = owner
        self.default_combine = default_combine
        #: unified observability: one registry per instance is the
        #: source of truth for every counter/histogram (``dpfs stats``),
        #: and the tracer records per-request span trees when enabled
        #: (``tracing=True`` / ``dpfs trace``).  Disabled tracing is a
        #: no-op fast path.
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(enabled=tracing)
        #: shared per-server request scheduler (repro.core.dispatch).
        #: ``io_workers`` caps the fan-out; backends that declare
        #: ``parallel_safe = False`` are driven sequentially regardless.
        workers = io_workers if getattr(backend, "parallel_safe", True) else 1
        self.dispatcher = Dispatcher(
            DispatchPolicy(
                max_workers=workers,
                timeout_s=io_timeout_s,
                retries=io_retries,
                backoff_s=io_backoff_s,
            ),
            registry=self.metrics,
        )
        #: optional client-side brick cache shared by every handle
        self.cache: BrickCache | None = (
            BrickCache(cache_bytes, registry=self.metrics) if cache_bytes else None
        )
        #: backends that understand metrics (the net RemoteBackend)
        #: adopt the instance registry so wire-level series land here
        bind = getattr(backend, "bind_metrics", None)
        if callable(bind):
            bind(self.metrics)
        #: bricks to prefetch ahead of sequential reads (cache required;
        #: note BrickCache defines __len__, so test identity, not truth)
        self.readahead_bricks = (
            readahead_bricks if self.cache is not None else 0
        )
        self._server_names = [info.name for info in backend.servers]
        #: copies that failed checksum verification and have not been
        #: repaired yet: (file_id, brick_id, server).  Copy selection
        #: skips these; read-repair and the scrubber clear them.
        self.quarantine: set[tuple[int, int, int]] = set()
        self._c_failover = self.metrics.counter(
            "dpfs_read_failovers_total",
            "reads served from a non-preferred brick copy, by reason",
        )
        self._c_repairs = self.metrics.counter(
            "dpfs_repairs_total", "brick copies rewritten from a good copy"
        )
        self._c_checksum = self.metrics.counter(
            "dpfs_checksum_errors_total",
            "brick payloads that failed checksum verification",
        )
        self._c_degraded = self.metrics.counter(
            "dpfs_write_degraded_total",
            "writes that succeeded with fewer than all copies",
        )
        #: crash recovery: roll forward any remove or refill a dead
        #: client left behind before this mount serves its first
        #: request.  Re-running one a live client sharing this metadata
        #: database is still executing repeats idempotent work on ids
        #: no other file will ever have, so every pending intent is
        #: swept.  ``auto_recover=False`` plus an explicit
        #: :meth:`recover` controls the sweep entirely.
        self.last_recovery: RecoveryReport | None = None
        if auto_recover:
            self.last_recovery = self.recover()

    # -- constructors --------------------------------------------------------
    @classmethod
    def memory(cls, n_servers: int = 4, **kwargs: Any) -> "DPFS":
        """All-in-memory instance (tests / examples)."""
        backend_kw = {
            k: kwargs.pop(k)
            for k in ("capacity", "performance", "names")
            if k in kwargs
        }
        return cls(MemoryBackend(n_servers, **backend_kw), **kwargs)

    @classmethod
    def remote(
        cls,
        addresses: Sequence[tuple[str, int]],
        **kwargs: Any,
    ) -> "DPFS":
        """TCP-backed instance over running ``dpfs server`` processes.

        Net knobs (``pool_size``, ``timeout``, ``down_after``,
        ``ping_interval_s``) are forwarded to
        :class:`~repro.net.client.RemoteBackend`; the rest configure the
        mount as usual, ``io_retries`` / ``io_backoff_s`` among them:
        the dispatcher is the only place a request is retried.
        """
        from ..net.client import RemoteBackend

        backend_kw = {
            k: kwargs.pop(k)
            for k in ("timeout", "pool_size", "down_after", "ping_interval_s")
            if k in kwargs
        }
        return cls(RemoteBackend(addresses, **backend_kw), **kwargs)

    @classmethod
    def local(
        cls,
        root: str | os.PathLike[str],
        n_servers: int = 4,
        *,
        meta_path: str | os.PathLike[str] | None = None,
        **kwargs: Any,
    ) -> "DPFS":
        """Directory-backed instance with a durable metadata database.

        ``meta_path`` defaults to ``<root>/dpfs.meta`` so re-opening the
        same root recovers the full namespace.
        """
        backend_kw = {
            k: kwargs.pop(k) for k in ("capacity", "performance") if k in kwargs
        }
        backend = LocalBackend(root, n_servers, **backend_kw)
        if meta_path is None:
            meta_path = os.path.join(os.fspath(root), "dpfs.meta")
        db = Database(meta_path)
        return cls(backend, db, **kwargs)

    def close(self) -> None:
        self.dispatcher.shutdown()
        self.db.close()
        self.backend.close()

    def __enter__(self) -> "DPFS":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- replication/checksum accounting --------------------------------------
    def _note_failover(self, reason: str) -> None:
        self._c_failover.inc(reason=reason)

    def _note_repair(self) -> None:
        self._c_repairs.inc()

    def _note_checksum_error(self) -> None:
        self._c_checksum.inc()

    def _note_degraded_write(self) -> None:
        self._c_degraded.inc()

    def _forget(self, file_id: int) -> None:
        """Drop every in-memory trace of a removed file."""
        if self.cache is not None:
            self.cache.invalidate_file(file_id)
        self.quarantine = {q for q in self.quarantine if q[0] != file_id}

    # -- recovery --------------------------------------------------------------
    def recover(self) -> RecoveryReport:
        """Roll every pending intent forward (``dpfs recover``)."""
        return _recover_intents(self)

    def _rename_legacy_subfiles(self) -> None:
        """Finish migrating a root written before file ids: rename the
        path-named subfiles on each server to their id names.

        Idempotent: a name already renamed is no longer listed, and a
        server is struck off only once all of its renames are done, so
        a crash or a DOWN server leaves the rest for the next mount.
        That mount raises until then rather than serve files whose
        subfiles still carry their old names.
        """
        failures: list[tuple[int, Exception]] = []
        for server, renames in self.meta.legacy_subfiles().items():
            try:
                present = set(self.backend.list_subfiles(server))
                for old, new in renames:
                    if old in present:
                        self.backend.rename_subfile(server, old, new)
            except (DPFSError, OSError) as exc:
                failures.append((server, exc))
                continue
            self.meta.legacy_subfiles_renamed(server)
        if failures:
            raise MultiServerError("rename path-named subfiles to file ids", failures)

    # -- namespace ------------------------------------------------------------
    def mkdir(self, path: str) -> None:
        self.meta.mkdir(path)

    def makedirs(self, path: str) -> None:
        self.meta.makedirs(path)

    def rmdir(self, path: str) -> None:
        self.meta.rmdir(path)

    def listdir(self, path: str = "/") -> tuple[list[str], list[str]]:
        """(sub_dirs, files)."""
        return self.meta.listdir(path)

    def exists(self, path: str) -> bool:
        norm = normalize_path(path)
        return self.meta.file_exists(norm) or self.meta.dir_exists(norm)

    def isdir(self, path: str) -> bool:
        return self.meta.dir_exists(normalize_path(path))

    def isfile(self, path: str) -> bool:
        return self.meta.file_exists(normalize_path(path))

    def stat(self, path: str) -> dict[str, Any]:
        return self.meta.stat(path)

    def chmod(self, path: str, permission: int) -> None:
        self.meta.set_permission(path, permission)

    def remove(self, path: str) -> None:
        """rm — journalled: drop metadata (the commit point), then delete
        the file's subfiles (replicas too) on the servers its rows named.

        The metadata drop and the intent that records what is left to
        do are one SQL transaction.  The intent names the file's id and
        servers, so recovery deletes the same subfiles.  The deletes
        fan out through the dispatcher and run on every one of those
        servers even when some fail, so one DOWN server does not strand
        the rest.  Failures surface as one :class:`MultiServerError`
        and leave the intent journalled for a later recovery sweep.
        """
        norm = normalize_path(path)
        with self.db.transaction():
            file_id, servers = self.meta.remove_file(norm)
            crashpoint(CP_REMOVE_IN_COMMIT)
            intent = self.intents.begin(
                "remove", {"path": norm, "file_id": file_id, "servers": servers}
            )
        crashpoint(CP_REMOVE_AFTER_METADATA)
        self._forget(file_id)
        self._redo_remove_subfiles(file_id, servers)  # raises MultiServerError, intent kept
        crashpoint(CP_REMOVE_AFTER_SUBFILES)
        self.intents.retire(intent)

    def rename(self, old: str, new: str) -> None:
        """mv — one metadata transaction.  Subfiles are named by the
        file's id, so no server is reached and nothing is journalled."""
        old_norm = normalize_path(old)
        new_norm = normalize_path(new)
        if old_norm == new_norm:
            return
        with self.db.transaction():
            self.meta.rename_file(old_norm, new_norm)
            crashpoint(CP_RENAME_IN_COMMIT)

    # -- per-server fan-out (shared with crash recovery) -----------------------
    def _fanout_subfiles(self, op: str, fn, servers: Sequence[int]) -> None:
        """Run ``fn(server)`` on each of ``servers`` through the dispatcher.

        Unlike a plain dispatch, failures don't stop the batch: every
        server is attempted, then the failures — if any — are raised as
        one aggregate :class:`MultiServerError`.
        """
        results = self.dispatcher.run(
            servers, fn, server_of=lambda s: s, collect_errors=True
        )
        errors = [
            (s, r) for s, r in zip(servers, results) if isinstance(r, Exception)
        ]
        if errors:
            raise MultiServerError(op, errors)

    def _redo_create_subfiles(
        self,
        file_id: int,
        primary: Sequence[int],
        replica: Sequence[int],
        point: str = CP_CREATE_MID_SUBFILES,
    ) -> None:
        """Make the primary subfile on ``primary`` and the replica
        subfile on ``replica`` servers (``point``: the crash point after
        each server's work; grow passes its own)."""
        name, rname = subfile_names(file_id)

        def make(server: int) -> None:
            if server in primary:
                self.backend.create_subfile(server, name)
            if server in replica:
                self.backend.create_subfile(server, rname)
            crashpoint(point)

        self._fanout_subfiles("create", make, sorted({*primary, *replica}))

    def _redo_remove_subfiles(self, file_id: int, servers: Sequence[int]) -> None:
        names = subfile_names(file_id)

        def delete(server: int) -> None:
            for name in names:
                self.backend.delete_subfile(server, name)
            crashpoint(CP_REMOVE_MID_SUBFILES)

        self._fanout_subfiles("remove", delete, servers)

    # -- replica refill (journalled; fsck --repair entry point) ----------------
    def refill_replica_subfile(self, path: str, server: int) -> bool:
        """Recreate a lost replica subfile and refill it from primaries.

        Journalled, and rolled forward by recovery: re-running a refill
        from scratch is idempotent.  Returns False (keeping the intent
        pending for the next sweep) when a server is unreachable.
        """
        record, bmap = self.meta.load_file(path)
        intent = self.intents.begin(
            "refill", {"path": path, "file_id": record.file_id, "server": server}
        )
        crashpoint(CP_REFILL_AFTER_INTENT)
        try:
            rmap = self.meta.load_replica_map(record)
            self._copy_replica_bricks(record.file_id, bmap, rmap, server)
        except (DPFSError, OSError):
            return False
        crashpoint(CP_REFILL_AFTER_COPY)
        self.intents.retire(intent)
        return True

    def _copy_replica_bricks(
        self, file_id: int, bmap: BrickMap, rmap: ReplicaMap, server: int
    ) -> None:
        """(Re)write every replica brick one server holds, from primaries."""
        name, rname = subfile_names(file_id)
        self.backend.create_subfile(server, rname)
        for rloc in (
            rl
            for b in rmap.bricklists[server]
            for rl in rmap.locations(b)
            if rl.server == server
        ):
            ploc = bmap.location(rloc.brick_id)
            data = self.backend.read_extents(
                ploc.server, name, [(ploc.local_offset, ploc.size)]
            )
            self.backend.write_extents(
                server, rname, [(rloc.local_offset, rloc.size)], bytes(data)
            )
            crashpoint(CP_REFILL_MID_COPY)

    def _redo_refill_replicas(self, file_id: int, server: int) -> None:
        """Crash-recovery redo: refill one server's replica subfile."""
        try:
            record, bmap = self.meta.load_file(file_id)
        except FileNotFound:
            return  # the file is gone; nothing left to refill
        rmap = self.meta.load_replica_map(record)
        self._copy_replica_bricks(file_id, bmap, rmap, server)

    def du(self, path: str = "/") -> int:
        """Total logical bytes of all files at or under ``path``."""
        return self.meta.tree_usage(path)

    def df(self) -> list[dict[str, Any]]:
        """Per-server capacity report: the DPFS-SERVER table (whose
        ``used`` is the physical bytes each server's bricks occupy) plus
        the bytes still ``available``."""
        return [
            {**row, "available": max(row["capacity"] - row["used"], 0)}
            for row in self.meta.servers()
        ]

    def servers(self) -> list[dict[str, Any]]:
        """The DPFS-SERVER table contents."""
        return self.meta.servers()

    # -- open/create ---------------------------------------------------------
    def open(
        self,
        path: str,
        mode: str = "r",
        hint: Hint | None = None,
        *,
        rank: int = 0,
        combine: bool | None = None,
        stagger: bool = True,
    ) -> FileHandle:
        """DPFS-Open.

        Modes: ``"r"`` read existing, ``"r+"`` read/write existing,
        ``"w"`` create new (requires a hint; fails if the file exists —
        the paper's write-mode open is a create).
        """
        if mode not in ("r", "r+", "w"):
            raise FileSystemError(f"unsupported mode {mode!r}")
        norm = normalize_path(path)
        use_combine = self.default_combine if combine is None else combine

        if mode == "w":
            record, brick_map, replica_map = self._create(norm, hint or Hint())
        else:
            record, brick_map = self.meta.load_file(norm)
            wanted = 0o400 if mode == "r" else 0o600
            if (record.permission & wanted) != wanted:
                raise PermissionDenied(
                    f"{norm}: permission {oct(record.permission)} denies "
                    f"mode {mode!r}"
                )
            replica_map = (
                self.meta.load_replica_map(record)
                if record.replicas > 1
                else None
            )

        striping = self._striping_for(record)
        return FileHandle(
            self,
            record,
            brick_map,
            striping,
            mode,
            rank=rank,
            combine=use_combine,
            stagger=stagger,
            replica_map=replica_map,
        )

    def _striping_for(self, record: FileRecord):
        hint = Hint(
            level=record.level,
            array_shape=record.array_shape,
            element_size=record.element_size,
            brick_shape=record.brick_shape,
            brick_size=record.brick_size,
            pattern=record.pattern,
            nprocs=record.nprocs,
            pgrid=record.pgrid,
            file_size=record.size,
        )
        return hint.striping()

    def _placement_policy(self, hint: Hint) -> PlacementPolicy:
        n = self.backend.n_servers
        performance = [info.performance for info in self.backend.servers]
        if hint.io_nodes is not None:
            if not 1 <= hint.io_nodes <= n:
                raise InvalidHint(
                    f"io_nodes {hint.io_nodes} outside [1, {n}]"
                )
            # Use the suggested number of I/O nodes, preferring the
            # fastest (smallest performance number).
            ranked = sorted(range(n), key=lambda i: (performance[i], i))
            subset = sorted(ranked[: hint.io_nodes])
            inner = make_policy(
                hint.placement,
                len(subset),
                [performance[i] for i in subset],
            )
            return _SubsetPolicy(inner, subset, n)
        return make_policy(hint.placement, n, performance)

    def _create(
        self, norm: str, hint: Hint
    ) -> tuple[FileRecord, BrickMap, ReplicaMap | None]:
        hint = hint.validate()
        if hint.replicas > self.backend.n_servers:
            raise InvalidHint(
                f"replicas={hint.replicas} exceeds the {self.backend.n_servers} "
                f"available servers (copies of a brick live on distinct servers)"
            )
        striping = hint.striping()
        policy = self._placement_policy(hint)
        sizes = striping.brick_sizes()
        brick_map = BrickMap(n_servers=self.backend.n_servers)
        replica_map: ReplicaMap | None = None
        if hint.replicas > 1:
            replica_map = ReplicaMap.empty(self.backend.n_servers, list(sizes))
            for brick_id, size in enumerate(sizes):
                servers = policy.assign_replicas(hint.replicas)
                brick_map.append(servers[0], size)
                replica_map.append(brick_id, servers[1:], size)
        else:
            for size in sizes:
                brick_map.append(policy.assign_next(), size)
        self._check_capacity(brick_map, replica_map)
        record = FileRecord(
            path=norm,
            owner=self.owner,
            permission=DEFAULT_PERMISSION,
            size=striping.total_bytes(),
            level=hint.level,
            element_size=hint.element_size,
            array_shape=hint.array_shape,
            brick_shape=hint.brick_shape,
            brick_size=hint.brick_size,
            pattern=hint.pattern,
            nprocs=hint.nprocs,
            pgrid=hint.pgrid,
            placement=hint.placement,
            brick_sizes=list(sizes),
            replicas=hint.replicas,
        )
        # commit point: the insert allocates the file's id, and its
        # constraints refuse a taken name or a missing directory before
        # any subfile exists.  The subfiles come after: a crash between
        # leaves a file no byte was written to, whose missing subfiles
        # fsck --repair recreates empty.
        with self.db.transaction():
            self.meta.create_file(record, brick_map, self._server_names, replica_map)
            crashpoint(CP_CREATE_IN_COMMIT)
        crashpoint(CP_CREATE_AFTER_COMMIT)
        self._redo_create_subfiles(record.file_id, *Holders.of(brick_map, replica_map))
        return record, brick_map, replica_map

    def _check_capacity(
        self, brick_map: BrickMap, replica_map: ReplicaMap | None = None
    ) -> None:
        """Reject creations that would exceed a server's capacity (the
        DPFS-SERVER ``capacity`` attribute tells clients how much space
        each node can still take, §5).  Replica copies count in full."""
        usage = self.meta.server_usage()
        for info, server in zip(self.backend.servers, range(self.backend.n_servers)):
            needed = brick_map.subfile_size(server)
            if replica_map is not None:
                needed += replica_map.subfile_size(server)
            used = usage.get(server, 0)
            if needed and used + needed > info.capacity:
                raise FileSystemError(
                    f"server {server} ({info.name}) lacks capacity: "
                    f"{used + needed} > {info.capacity} bytes"
                )

    # -- internal hooks used by FileHandle ------------------------------------
    def _grow_file(self, handle: FileHandle, new_size: int) -> None:
        striping = handle.striping
        assert isinstance(striping, LinearStriping)
        record = handle.record
        old_size = striping.file_size
        new_bricks = striping.grow_to(new_size)
        if not new_bricks:
            # no new bricks: the size update is a single (atomic) statement
            self.meta.update_file_size(record.file_id, new_size)
            record.size = new_size
            return
        # the new bricks go on copies of the maps, installed on the
        # handle only once the grow has committed: a grow that fails
        # leaves the handle as it was, so a retried write grows again
        try:
            brick_map = handle.brick_map.copy()
            replica_map = (
                handle.replica_map.copy() if handle.replica_map is not None else None
            )
            held = Holders.of(brick_map, replica_map)
            counts = brick_map.bricks_per_server()
            if replica_map is not None:
                # greedy accumulated time covers replica bricks too
                for server, bricklist in enumerate(replica_map.bricklists):
                    counts[server] += len(bricklist)
            performance = [info.performance for info in self.backend.servers]
            if record.placement == "greedy":
                policy: PlacementPolicy = Greedy.resume(performance, counts)
            else:
                policy = RoundRobin(
                    self.backend.n_servers,
                    start=len(brick_map) * record.replicas,
                )
            for _ in range(new_bricks):
                if record.replicas > 1 and replica_map is not None:
                    brick_id = len(brick_map)
                    servers = policy.assign_replicas(record.replicas)
                    brick_map.append(servers[0], striping.brick_size)
                    replica_map.append(brick_id, servers[1:], striping.brick_size)
                else:
                    brick_map.append(policy.assign_next(), striping.brick_size)
            brick_sizes = [striping.brick_size] * len(brick_map)
            # a server's first brick of the file needs a row and a
            # subfile; the row comes first, so a grow that never commits
            # leaves a subfile that remove still reaches, and the next
            # grow reuses both
            new = Holders(
                *(
                    [s for s in now if s not in before]
                    for now, before in zip(Holders.of(brick_map, replica_map), held)
                )
            )
            if any(new):
                self.meta.reserve_rows(record.file_id, new, self._server_names)
                self._redo_create_subfiles(record.file_id, *new, CP_GROW_MID_SUBFILES)
            # commit point: ONE transaction (geometry, distribution,
            # replica map, size, usage) and no intent — the new bricks
            # materialise lazily on first write, so after it nothing is
            # left to do
            with self.db.transaction():
                self.meta.grow_file(
                    record.file_id,
                    brick_map,
                    brick_sizes,
                    self._server_names,
                    replica_map if record.replicas > 1 else None,
                    new_size,
                )
                crashpoint(CP_GROW_IN_COMMIT)
        except BaseException:
            striping.file_size = old_size
            raise
        handle.brick_map, handle.replica_map = brick_map, replica_map
        record.brick_sizes = brick_sizes
        record.pad_crcs()
        record.size = new_size

    # -- convenience -----------------------------------------------------------
    def read_file(self, path: str) -> bytes:
        """Whole-file read (shell `cat` / export path)."""
        with self.open(path, "r") as handle:
            return handle.read(0, handle.size)

    def write_file(self, path: str, data: bytes, hint: Hint | None = None) -> None:
        """Create + write a whole file in one call."""
        if hint is None:
            hint = Hint.linear(file_size=len(data))
        with self.open(path, "w", hint=hint) as handle:
            if hint.level is FileLevel.LINEAR:
                handle.write(0, data)
            else:
                striping = handle.striping
                total = striping.total_bytes()
                if len(data) != total:
                    raise FileSystemError(
                        f"array file holds {total} bytes, got {len(data)}"
                    )
                assert hint.array_shape is not None
                handle.write_region(
                    tuple(0 for _ in hint.array_shape), hint.array_shape, data
                )

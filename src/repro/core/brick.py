"""Bricks — the basic striping unit of DPFS (§3) — and brick→server maps.

A DPFS file is a sequence of bricks numbered from 0.  A striping method
(:mod:`repro.core.striping`) translates logical requests into
:class:`BrickSlice` lists; a placement algorithm
(:mod:`repro.core.placement`) assigns each brick to a server; the
resulting :class:`BrickMap` records, for every brick, its server and its
byte offset inside that server's *subfile* (the paper's term for the
per-server local file holding that server's bricks, in assignment
order).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

from ..errors import PlacementError

__all__ = [
    "BrickSlice",
    "BrickLocation",
    "BrickMap",
    "ReplicaMap",
    "subfile_names",
    "file_id_of",
]


def subfile_names(file_id: int) -> tuple[str, str]:
    """The names of a file's primary and replica subfiles on a server.

    A subfile is named by its file's id, which is allocated when the
    file is created and never reused: a rename touches no server, and a
    subfile outliving its file can never pass for a later file's.
    """
    return str(file_id), f"{file_id}.r"


def file_id_of(name: str) -> int | None:
    """The file id a subfile name carries (``None``: not an id name)."""
    head = name.partition(".")[0]
    if head.isascii() and head.isdigit() and name in subfile_names(int(head)):
        return int(head)
    return None


@dataclass(frozen=True)
class BrickSlice:
    """A byte range inside one brick, tied to a position in the payload.

    ``buffer_offset`` is where these bytes sit in the packed user
    payload, so scattering/gathering between user buffer and bricks is
    mechanical for both reads and writes.
    """

    brick_id: int
    offset: int          # byte offset inside the brick
    length: int          # bytes
    buffer_offset: int   # byte offset inside the packed request payload

    def __post_init__(self) -> None:
        if self.brick_id < 0 or self.offset < 0 or self.length <= 0 or self.buffer_offset < 0:
            raise PlacementError(f"invalid brick slice {self!r}")


@dataclass(frozen=True)
class BrickLocation:
    """Where a brick physically lives."""

    brick_id: int
    server: int          # server index
    local_offset: int    # byte offset of the brick inside the subfile
    size: int            # brick size in bytes


@dataclass
class BrickMap:
    """Brick → (server, subfile offset, size) for one DPFS file.

    Built by feeding brick sizes through a placement policy; can be
    *extended* later (linear files grow), continuing the same policy.
    """

    n_servers: int
    locations: list[BrickLocation] = field(default_factory=list)
    _server_tail: list[int] = field(default_factory=list)  # next free subfile offset

    def __post_init__(self) -> None:
        if self.n_servers < 1:
            raise PlacementError("brick map needs at least one server")
        if not self._server_tail:
            self._server_tail = [0] * self.n_servers
        if len(self._server_tail) != self.n_servers:
            raise PlacementError("server tail list length mismatch")

    # -- construction ------------------------------------------------------
    def append(self, server: int, size: int) -> BrickLocation:
        """Place the next brick on ``server`` with the given byte size."""
        if not 0 <= server < self.n_servers:
            raise PlacementError(
                f"server {server} outside [0, {self.n_servers})"
            )
        if size <= 0:
            raise PlacementError(f"brick size must be positive, got {size}")
        loc = BrickLocation(
            brick_id=len(self.locations),
            server=server,
            local_offset=self._server_tail[server],
            size=size,
        )
        self.locations.append(loc)
        self._server_tail[server] += size
        return loc

    # -- queries ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self.locations)

    def location(self, brick_id: int) -> BrickLocation:
        try:
            return self.locations[brick_id]
        except IndexError:
            raise PlacementError(
                f"brick {brick_id} outside map of {len(self.locations)} bricks"
            ) from None

    def server_of(self, brick_id: int) -> int:
        return self.location(brick_id).server

    def bricklist(self, server: int) -> list[int]:
        """Brick ids held by ``server`` in subfile order (the paper's
        DPFS-FILE-DISTRIBUTION ``bricklist`` attribute)."""
        return [loc.brick_id for loc in self.locations if loc.server == server]

    def subfile_size(self, server: int) -> int:
        if not 0 <= server < self.n_servers:
            raise PlacementError(f"server {server} outside [0, {self.n_servers})")
        return self._server_tail[server]

    def holders(self) -> list[int]:
        """Servers holding at least one brick, ascending."""
        return [s for s in range(self.n_servers) if self._server_tail[s]]

    def copy(self) -> "BrickMap":
        """A map that :meth:`append` can extend without touching this one."""
        return BrickMap(self.n_servers, list(self.locations), list(self._server_tail))

    def bricks_per_server(self) -> list[int]:
        counts = [0] * self.n_servers
        for loc in self.locations:
            counts[loc.server] += 1
        return counts

    # -- (de)serialisation for the metadata tables -------------------------
    def to_lists(self) -> list[list[int]]:
        """Per-server brick id lists (what gets stored in the database)."""
        return [self.bricklist(s) for s in range(self.n_servers)]

    @classmethod
    def from_lists(
        cls, bricklists: Sequence[Sequence[int]], sizes: Sequence[int]
    ) -> "BrickMap":
        """Rebuild a map from per-server bricklists + per-brick sizes.

        Brick ``bricklists[s][i]`` lives on server ``s`` at the subfile
        offset implied by the sizes of the bricks before it in the list.
        """
        n_servers = len(bricklists)
        total = sum(len(bl) for bl in bricklists)
        if total != len(sizes):
            raise PlacementError(
                f"bricklists hold {total} bricks but {len(sizes)} sizes given"
            )
        owner: dict[int, tuple[int, int]] = {}
        for server, bricklist in enumerate(bricklists):
            offset = 0
            for brick_id in bricklist:
                if brick_id in owner:
                    raise PlacementError(f"brick {brick_id} appears twice")
                owner[brick_id] = (server, offset)
                offset += sizes[brick_id]
        if set(owner) != set(range(total)):
            raise PlacementError("bricklists are not a permutation of 0..n-1")
        bmap = cls(n_servers=n_servers)
        for brick_id in range(total):
            server, offset = owner[brick_id]
            bmap.locations.append(
                BrickLocation(brick_id, server, offset, sizes[brick_id])
            )
        for server, bricklist in enumerate(bricklists):
            bmap._server_tail[server] = sum(sizes[b] for b in bricklist)
        return bmap


@dataclass
class ReplicaMap:
    """Extra copies of each brick, beyond the primary :class:`BrickMap`.

    Replica copies live in a *separate* per-server subfile (see
    :func:`subfile_names`) so the primary subfile layout — and the
    permutation invariant of :meth:`BrickMap.from_lists` — is untouched.
    Each server's replica subfile holds that server's replica bricks
    back-to-back in ``bricklists[server]`` order; a brick may appear in
    several servers' lists (one per extra copy) but never twice on one
    server.

    ``locations(brick_id)`` returns the replica copies of a brick as
    :class:`BrickLocation` records against the replica subfile.
    """

    n_servers: int
    bricklists: list[list[int]] = field(default_factory=list)
    _sizes: Sequence[int] = field(default_factory=list)
    _index: dict[int, list[tuple[int, int]]] = field(default_factory=dict)

    @classmethod
    def build(
        cls, n_servers: int, bricklists: Sequence[Sequence[int]],
        sizes: Sequence[int],
    ) -> "ReplicaMap":
        if len(bricklists) != n_servers:
            raise PlacementError(
                f"{len(bricklists)} replica bricklists for {n_servers} servers"
            )
        rmap = cls(n_servers=n_servers, bricklists=[list(bl) for bl in bricklists])
        rmap._sizes = list(sizes)
        rmap._reindex()
        return rmap

    def _reindex(self) -> None:
        self._index = {}
        for server, bricklist in enumerate(self.bricklists):
            offset = 0
            seen: set[int] = set()
            for brick_id in bricklist:
                if not 0 <= brick_id < len(self._sizes):
                    raise PlacementError(
                        f"replica brick {brick_id} has no size entry"
                    )
                if brick_id in seen:
                    raise PlacementError(
                        f"brick {brick_id} replicated twice on server {server}"
                    )
                seen.add(brick_id)
                self._index.setdefault(brick_id, []).append((server, offset))
                offset += self._sizes[brick_id]

    # -- construction ------------------------------------------------------
    def append(self, brick_id: int, servers: Sequence[int], size: int) -> None:
        """Record replica copies of a (new) brick on ``servers``."""
        if len(self._sizes) <= brick_id:
            self._sizes = list(self._sizes) + [0] * (
                brick_id + 1 - len(self._sizes)
            )
        self._sizes[brick_id] = size  # type: ignore[index]
        for server in servers:
            if not 0 <= server < self.n_servers:
                raise PlacementError(
                    f"server {server} outside [0, {self.n_servers})"
                )
            self.bricklists[server].append(brick_id)
        self._reindex()

    # -- queries -----------------------------------------------------------
    def locations(self, brick_id: int) -> list[BrickLocation]:
        """Replica copies of a brick (offsets inside the replica subfile)."""
        return [
            BrickLocation(brick_id, server, offset, self._sizes[brick_id])
            for server, offset in self._index.get(brick_id, [])
        ]

    def servers_of(self, brick_id: int) -> list[int]:
        return [server for server, _ in self._index.get(brick_id, [])]

    def subfile_size(self, server: int) -> int:
        return sum(self._sizes[b] for b in self.bricklists[server])

    def holders(self) -> list[int]:
        """Servers holding at least one replica brick, ascending."""
        return [s for s, bricklist in enumerate(self.bricklists) if bricklist]

    def to_lists(self) -> list[list[int]]:
        return [list(bl) for bl in self.bricklists]

    def copy(self) -> "ReplicaMap":
        """A map that :meth:`append` can extend without touching this one."""
        return ReplicaMap.build(self.n_servers, self.bricklists, self._sizes)

    @classmethod
    def empty(cls, n_servers: int, sizes: Sequence[int]) -> "ReplicaMap":
        return cls.build(n_servers, [[] for _ in range(n_servers)], sizes)

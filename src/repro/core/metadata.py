"""DPFS metadata management on a SQL database (§5).

The paper keeps all file-system metadata in four POSTGRES tables,
manipulated through SQL; transactions guarantee consistency of
multi-table updates.  We reproduce the same four tables (hyphens in the
paper's names become underscores — SQL identifiers):

``dpfs_server``
    server_id, server_name, capacity, performance — the I/O node
    registry the greedy placement algorithm reads.
``dpfs_file_distribution``
    server_name, filename, bricklist (JSON) — how each file's bricks
    are spread over subfiles.
``dpfs_directory``
    main_dir, sub_dirs (JSON), files (JSON) — the directory tree.
``dpfs_file_attr``
    filename, owner, permission, size, filelevel, striping geometry
    (JSON), placement — per-file attributes incl. the §3 file level.

A fifth table, ``dpfs_file_replica``, extends the paper's schema with
per-server *replica* bricklists (same shape as the distribution table)
for files created with ``replicas > 1``; the geometry JSON additionally
carries ``replicas``, the per-brick ``brick_crcs`` checksum list, and
the ``crc_algo`` those checksums were computed under.

:class:`MetadataManager` is the only component that speaks SQL; the
file system above it works with :class:`FileRecord` objects.
"""

from __future__ import annotations

import posixpath
from dataclasses import dataclass, field
from typing import Any

from ..errors import (
    FileExists,
    FileNotFound,
    InvalidPath,
    MetaDBError,
)
from ..metadb import Database
from .brick import BrickMap, ReplicaMap
from .checksum import CRC_ALGORITHM
from .striping import FileLevel

__all__ = ["MetadataManager", "FileRecord", "normalize_path", "split_path"]


def normalize_path(path: str) -> str:
    """Normalise a DPFS path to absolute, no trailing slash (except root)."""
    if not path:
        raise InvalidPath("empty path")
    if "\x00" in path:
        raise InvalidPath("NUL byte in path")
    if not path.startswith("/"):
        path = "/" + path
    norm = posixpath.normpath(path)
    if norm.startswith("/.."):
        raise InvalidPath(f"path escapes root: {path!r}")
    return norm


def split_path(path: str) -> tuple[str, str]:
    """(parent directory, basename) of a normalised path."""
    norm = normalize_path(path)
    if norm == "/":
        raise InvalidPath("root has no parent")
    parent, base = posixpath.split(norm)
    return parent, base


@dataclass
class FileRecord:
    """Everything the metadata layer knows about one DPFS file."""

    path: str
    owner: str
    permission: int
    size: int                       # logical bytes
    level: FileLevel
    element_size: int
    array_shape: tuple[int, ...] | None
    brick_shape: tuple[int, ...] | None
    brick_size: int
    pattern: str | None
    nprocs: int | None
    pgrid: tuple[int, ...] | None
    placement: str
    brick_sizes: list[int]          # per-brick byte sizes (brick-id order)
    #: copies of every brick (1 = unreplicated)
    replicas: int = 1
    #: per-brick payload checksums (brick-id order); ``None`` = never
    #: written / unknown — verification skips those bricks
    brick_crcs: list[int | None] = field(default_factory=list)
    #: algorithm the stored checksums were computed under
    crc_algo: str = CRC_ALGORITHM

    def __post_init__(self) -> None:
        if not self.brick_crcs:
            self.brick_crcs = [None] * len(self.brick_sizes)


# One brick-size row per (server, brick) of every distribution and
# replica bricklist.  CROSS JOIN fixes the join order: expanding the
# bricklist first means an empty list (a server holding none of the
# file's bricks) costs no attr lookup.
_BRICK_SIZES_OF = (
    "SELECT d.server_name AS server_name,"
    " json_extract(a.geometry, '$.brick_sizes[' || b.value || ']') AS size"
    " FROM {} AS d CROSS JOIN json_each(d.bricklist) AS b"
    " CROSS JOIN dpfs_file_attr AS a WHERE a.filename = d.filename"
)
_SERVER_USAGE_SQL = (
    "SELECT server_name, SUM(size) AS used FROM ("
    + _BRICK_SIZES_OF.format("dpfs_file_distribution")
    + " UNION ALL "
    + _BRICK_SIZES_OF.format("dpfs_file_replica")
    + ") GROUP BY server_name"
)


class MetadataManager:
    """All DPFS metadata operations, expressed as SQL transactions."""

    def __init__(self, db: Database) -> None:
        self.db = db
        self._ensure_schema()

    # ------------------------------------------------------------------
    # schema & servers
    # ------------------------------------------------------------------
    def _ensure_schema(self) -> None:
        self.db.execute(
            "CREATE TABLE IF NOT EXISTS dpfs_server ("
            " server_id INTEGER PRIMARY KEY,"
            " server_name TEXT NOT NULL UNIQUE,"
            " capacity INTEGER NOT NULL,"
            " performance REAL NOT NULL)"
        )
        self.db.execute(
            "CREATE TABLE IF NOT EXISTS dpfs_file_distribution ("
            " dist_id TEXT PRIMARY KEY,"      # f"{server}|{filename}"
            " server_name TEXT NOT NULL,"
            " filename TEXT NOT NULL,"
            " bricklist JSON NOT NULL)"
        )
        self.db.execute(
            "CREATE INDEX IF NOT EXISTS dist_by_filename "
            "ON dpfs_file_distribution (filename)"
        )
        self.db.execute(
            "CREATE TABLE IF NOT EXISTS dpfs_file_replica ("
            " dist_id TEXT PRIMARY KEY,"      # f"{server}|{filename}"
            " server_name TEXT NOT NULL,"
            " filename TEXT NOT NULL,"
            " bricklist JSON NOT NULL)"
        )
        self.db.execute(
            "CREATE INDEX IF NOT EXISTS replica_by_filename "
            "ON dpfs_file_replica (filename)"
        )
        self.db.execute(
            "CREATE TABLE IF NOT EXISTS dpfs_directory ("
            " main_dir TEXT PRIMARY KEY,"
            " sub_dirs JSON NOT NULL,"
            " files JSON NOT NULL)"
        )
        self.db.execute(
            "CREATE TABLE IF NOT EXISTS dpfs_file_attr ("
            " filename TEXT PRIMARY KEY,"
            " owner TEXT NOT NULL,"
            " permission INTEGER NOT NULL,"
            " size INTEGER NOT NULL,"
            " filelevel TEXT NOT NULL,"
            " element_size INTEGER NOT NULL,"
            " geometry JSON NOT NULL,"        # shapes / pattern / grid / sizes
            " placement TEXT NOT NULL)"
        )
        if not self._dir_row("/"):
            self.db.execute(
                "INSERT INTO dpfs_directory VALUES ('/', ?, ?)",
                [[], []],
            )

    def register_servers(self, infos: list[Any]) -> None:
        """Record the backend's servers in dpfs_server (idempotent)."""
        with self.db.transaction():
            for idx, info in enumerate(infos):
                existing = self.db.execute(
                    "SELECT server_id FROM dpfs_server WHERE server_id = ?",
                    [idx],
                ).rows
                if existing:
                    self.db.execute(
                        "UPDATE dpfs_server SET server_name = ?, capacity = ?,"
                        " performance = ? WHERE server_id = ?",
                        [info.name, info.capacity, info.performance, idx],
                    )
                else:
                    self.db.execute(
                        "INSERT INTO dpfs_server VALUES (?, ?, ?, ?)",
                        [idx, info.name, info.capacity, info.performance],
                    )

    def servers(self) -> list[dict[str, Any]]:
        return self.db.execute(
            "SELECT server_id, server_name, capacity, performance "
            "FROM dpfs_server ORDER BY server_id"
        ).rows

    def server_performance(self) -> list[float]:
        return [row["performance"] for row in self.servers()]

    # ------------------------------------------------------------------
    # directories
    # ------------------------------------------------------------------
    def _dir_row(self, path: str) -> dict[str, Any] | None:
        rows = self.db.execute(
            "SELECT main_dir, sub_dirs, files FROM dpfs_directory "
            "WHERE main_dir = ?",
            [path],
        ).rows
        return rows[0] if rows else None

    def dir_exists(self, path: str) -> bool:
        return self._dir_row(normalize_path(path)) is not None

    def file_exists(self, path: str) -> bool:
        rows = self.db.execute(
            "SELECT filename FROM dpfs_file_attr WHERE filename = ?",
            [normalize_path(path)],
        ).rows
        return bool(rows)

    def mkdir(self, path: str) -> None:
        """Create one directory (parent must exist) — the §5 update rule:
        parent row gains the child, and a new row is inserted."""
        norm = normalize_path(path)
        if norm == "/":
            raise FileExists("/ always exists")
        parent, base = split_path(norm)
        with self.db.transaction():
            parent_row = self._dir_row(parent)
            if parent_row is None:
                raise FileNotFound(f"no such directory: {parent}")
            if self._dir_row(norm) is not None or self.file_exists(norm):
                raise FileExists(norm)
            subs = list(parent_row["sub_dirs"])
            subs.append(base)
            self.db.execute(
                "UPDATE dpfs_directory SET sub_dirs = ? WHERE main_dir = ?",
                [sorted(subs), parent],
            )
            self.db.execute(
                "INSERT INTO dpfs_directory VALUES (?, ?, ?)", [norm, [], []]
            )

    def makedirs(self, path: str) -> None:
        """mkdir -p."""
        norm = normalize_path(path)
        if norm == "/":
            return
        parts = norm.strip("/").split("/")
        current = ""
        for part in parts:
            current += "/" + part
            if not self.dir_exists(current):
                self.mkdir(current)

    def rmdir(self, path: str) -> None:
        norm = normalize_path(path)
        if norm == "/":
            raise InvalidPath("cannot remove /")
        with self.db.transaction():
            row = self._dir_row(norm)
            if row is None:
                raise FileNotFound(norm)
            if row["sub_dirs"] or row["files"]:
                from ..errors import DirectoryNotEmpty

                raise DirectoryNotEmpty(norm)
            parent, base = split_path(norm)
            parent_row = self._dir_row(parent)
            assert parent_row is not None
            subs = [s for s in parent_row["sub_dirs"] if s != base]
            self.db.execute(
                "UPDATE dpfs_directory SET sub_dirs = ? WHERE main_dir = ?",
                [subs, parent],
            )
            self.db.execute(
                "DELETE FROM dpfs_directory WHERE main_dir = ?", [norm]
            )

    def listdir(self, path: str) -> tuple[list[str], list[str]]:
        """(sub_dirs, files) of a directory."""
        row = self._dir_row(normalize_path(path))
        if row is None:
            raise FileNotFound(path)
        return list(row["sub_dirs"]), list(row["files"])

    # ------------------------------------------------------------------
    # files
    # ------------------------------------------------------------------
    def create_file(
        self,
        record: FileRecord,
        brick_map: BrickMap,
        server_names: list[str],
        replica_map: ReplicaMap | None = None,
    ) -> None:
        """Insert attr + distribution rows and link into the directory."""
        norm = normalize_path(record.path)
        parent, base = split_path(norm)
        with self.db.transaction():
            parent_row = self._dir_row(parent)
            if parent_row is None:
                raise FileNotFound(f"no such directory: {parent}")
            if self.file_exists(norm) or self._dir_row(norm) is not None:
                raise FileExists(norm)
            files = list(parent_row["files"])
            files.append(base)
            self.db.execute(
                "UPDATE dpfs_directory SET files = ? WHERE main_dir = ?",
                [sorted(files), parent],
            )
            geometry = {
                "array_shape": list(record.array_shape) if record.array_shape else None,
                "brick_shape": list(record.brick_shape) if record.brick_shape else None,
                "brick_size": record.brick_size,
                "pattern": record.pattern,
                "nprocs": record.nprocs,
                "pgrid": list(record.pgrid) if record.pgrid else None,
                "brick_sizes": record.brick_sizes,
                "replicas": record.replicas,
                "brick_crcs": record.brick_crcs,
                "crc_algo": record.crc_algo,
            }
            self.db.execute(
                "INSERT INTO dpfs_file_attr VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                [
                    norm,
                    record.owner,
                    record.permission,
                    record.size,
                    record.level.value,
                    record.element_size,
                    geometry,
                    record.placement,
                ],
            )
            for server, bricklist in enumerate(brick_map.to_lists()):
                self.db.execute(
                    "INSERT INTO dpfs_file_distribution VALUES (?, ?, ?, ?)",
                    [
                        f"{server_names[server]}|{norm}",
                        server_names[server],
                        norm,
                        bricklist,
                    ],
                )
            if replica_map is not None:
                for server, bricklist in enumerate(replica_map.to_lists()):
                    if not bricklist:
                        continue
                    self.db.execute(
                        "INSERT INTO dpfs_file_replica VALUES (?, ?, ?, ?)",
                        [
                            f"{server_names[server]}|{norm}",
                            server_names[server],
                            norm,
                            bricklist,
                        ],
                    )

    def load_file(self, path: str) -> tuple[FileRecord, BrickMap]:
        norm = normalize_path(path)
        rows = self.db.execute(
            "SELECT * FROM dpfs_file_attr WHERE filename = ?", [norm]
        ).rows
        if not rows:
            raise FileNotFound(norm)
        attr = rows[0]
        geometry = attr["geometry"]
        record = FileRecord(
            path=norm,
            owner=attr["owner"],
            permission=attr["permission"],
            size=attr["size"],
            level=FileLevel(attr["filelevel"]),
            element_size=attr["element_size"],
            array_shape=tuple(geometry["array_shape"]) if geometry["array_shape"] else None,
            brick_shape=tuple(geometry["brick_shape"]) if geometry["brick_shape"] else None,
            brick_size=geometry["brick_size"],
            pattern=geometry["pattern"],
            nprocs=geometry["nprocs"],
            pgrid=tuple(geometry["pgrid"]) if geometry["pgrid"] else None,
            placement=attr["placement"],
            brick_sizes=list(geometry["brick_sizes"]),
            replicas=geometry.get("replicas", 1),
            brick_crcs=list(
                geometry.get("brick_crcs")
                or [None] * len(geometry["brick_sizes"])
            ),
            crc_algo=geometry.get("crc_algo", CRC_ALGORITHM),
        )
        dist = self.db.execute(
            "SELECT server_name, bricklist FROM dpfs_file_distribution "
            "WHERE filename = ?",
            [norm],
        ).rows
        order = {row["server_name"]: row["server_id"] for row in self.servers()}
        bricklists: list[list[int]] = [[] for _ in order]
        for row in dist:
            try:
                bricklists[order[row["server_name"]]] = list(row["bricklist"])
            except KeyError:
                raise MetaDBError(
                    f"distribution row references unknown server "
                    f"{row['server_name']!r}"
                ) from None
        brick_map = BrickMap.from_lists(bricklists, record.brick_sizes)
        return record, brick_map

    def load_replica_map(self, path: str, record: FileRecord) -> ReplicaMap:
        """The file's replica bricklists (empty map for replicas == 1)."""
        norm = normalize_path(path)
        order = {row["server_name"]: row["server_id"] for row in self.servers()}
        bricklists: list[list[int]] = [[] for _ in order]
        for row in self.db.execute(
            "SELECT server_name, bricklist FROM dpfs_file_replica "
            "WHERE filename = ?",
            [norm],
        ).rows:
            server_id = order.get(row["server_name"])
            if server_id is None:
                raise MetaDBError(
                    f"replica row references unknown server "
                    f"{row['server_name']!r}"
                )
            bricklists[server_id] = list(row["bricklist"])
        return ReplicaMap.build(len(order), bricklists, record.brick_sizes)

    def update_replica_map(
        self, path: str, replica_map: ReplicaMap, server_names: list[str]
    ) -> None:
        """Rewrite replica bricklists after a replicated file grew."""
        norm = normalize_path(path)
        with self.db.transaction():
            self._upsert_replica_rows(norm, replica_map, server_names)

    def _upsert_replica_rows(
        self, norm: str, replica_map: ReplicaMap, server_names: list[str]
    ) -> None:
        """Write replica bricklist rows (caller holds the transaction)."""
        for server, bricklist in enumerate(replica_map.to_lists()):
            if not bricklist:
                continue
            dist_id = f"{server_names[server]}|{norm}"
            existing = self.db.execute(
                "SELECT dist_id FROM dpfs_file_replica WHERE dist_id = ?",
                [dist_id],
            ).rows
            if existing:
                self.db.execute(
                    "UPDATE dpfs_file_replica SET bricklist = ? "
                    "WHERE dist_id = ?",
                    [bricklist, dist_id],
                )
            else:
                self.db.execute(
                    "INSERT INTO dpfs_file_replica VALUES (?, ?, ?, ?)",
                    [dist_id, server_names[server], norm, bricklist],
                )

    def update_brick_crcs(
        self, path: str, crcs: dict[int, int | None]
    ) -> None:
        """Merge freshly computed per-brick checksums into the geometry.

        One transaction per *write call*, not per brick — the handle
        batches every brick a write touched into a single ``crcs`` dict.
        """
        if not crcs:
            return
        norm = normalize_path(path)
        with self.db.transaction():
            rows = self.db.execute(
                "SELECT geometry FROM dpfs_file_attr WHERE filename = ?",
                [norm],
            ).rows
            if not rows:
                raise FileNotFound(norm)
            geometry = dict(rows[0]["geometry"])
            stored = list(
                geometry.get("brick_crcs")
                or [None] * len(geometry["brick_sizes"])
            )
            if len(stored) < len(geometry["brick_sizes"]):
                stored += [None] * (len(geometry["brick_sizes"]) - len(stored))
            for brick_id, crc in crcs.items():
                if not 0 <= brick_id < len(stored):
                    raise MetaDBError(
                        f"brick {brick_id} outside crc table of {len(stored)}"
                    )
                stored[brick_id] = crc
            geometry["brick_crcs"] = stored
            geometry.setdefault("crc_algo", CRC_ALGORITHM)
            self.db.execute(
                "UPDATE dpfs_file_attr SET geometry = ? WHERE filename = ?",
                [geometry, norm],
            )

    def update_file_size(self, path: str, size: int) -> None:
        self.db.execute(
            "UPDATE dpfs_file_attr SET size = ? WHERE filename = ?",
            [size, normalize_path(path)],
        )

    def update_distribution(
        self, path: str, brick_map: BrickMap, brick_sizes: list[int],
        server_names: list[str],
    ) -> None:
        """Rewrite bricklists + geometry after a file grew (linear level)."""
        norm = normalize_path(path)
        with self.db.transaction():
            self._grow_geometry(norm, brick_sizes)
            self._upsert_distribution_rows(norm, brick_map, server_names)

    def _grow_geometry(self, norm: str, brick_sizes: list[int]) -> None:
        """Extend geometry's brick_sizes/brick_crcs (caller holds txn)."""
        rows = self.db.execute(
            "SELECT geometry FROM dpfs_file_attr WHERE filename = ?",
            [norm],
        ).rows
        if not rows:
            raise FileNotFound(norm)
        geometry = dict(rows[0]["geometry"])
        geometry["brick_sizes"] = list(brick_sizes)
        crcs = list(
            geometry.get("brick_crcs") or []
        )
        if len(crcs) < len(brick_sizes):  # new bricks: crc unknown
            crcs += [None] * (len(brick_sizes) - len(crcs))
        geometry["brick_crcs"] = crcs[: len(brick_sizes)]
        self.db.execute(
            "UPDATE dpfs_file_attr SET geometry = ? WHERE filename = ?",
            [geometry, norm],
        )

    def _upsert_distribution_rows(
        self, norm: str, brick_map: BrickMap, server_names: list[str]
    ) -> None:
        """Write distribution bricklist rows (caller holds the transaction)."""
        for server, bricklist in enumerate(brick_map.to_lists()):
            dist_id = f"{server_names[server]}|{norm}"
            existing = self.db.execute(
                "SELECT dist_id FROM dpfs_file_distribution "
                "WHERE dist_id = ?",
                [dist_id],
            ).rows
            if existing:
                self.db.execute(
                    "UPDATE dpfs_file_distribution SET bricklist = ? "
                    "WHERE dist_id = ?",
                    [bricklist, dist_id],
                )
            else:
                self.db.execute(
                    "INSERT INTO dpfs_file_distribution VALUES (?, ?, ?, ?)",
                    [dist_id, server_names[server], norm, bricklist],
                )

    def grow_file(
        self,
        path: str,
        brick_map: BrickMap,
        brick_sizes: list[int],
        server_names: list[str],
        replica_map: ReplicaMap | None,
        new_size: int,
    ) -> None:
        """Every metadata effect of growing a linear file, atomically.

        Historically growth issued three separate transactions
        (distribution, replica map, size) — a crash between them left
        the attr row disagreeing with the bricklists.  One transaction
        makes grow's metadata step all-or-nothing, which is what lets
        the grow intent treat it as its commit point.
        """
        norm = normalize_path(path)
        with self.db.transaction():
            self._grow_geometry(norm, brick_sizes)
            self._upsert_distribution_rows(norm, brick_map, server_names)
            if replica_map is not None:
                self._upsert_replica_rows(norm, replica_map, server_names)
            self.db.execute(
                "UPDATE dpfs_file_attr SET size = ? WHERE filename = ?",
                [new_size, norm],
            )

    def remove_file(self, path: str) -> None:
        norm = normalize_path(path)
        parent, base = split_path(norm)
        with self.db.transaction():
            if not self.file_exists(norm):
                raise FileNotFound(norm)
            parent_row = self._dir_row(parent)
            if parent_row is not None:
                files = [f for f in parent_row["files"] if f != base]
                self.db.execute(
                    "UPDATE dpfs_directory SET files = ? WHERE main_dir = ?",
                    [files, parent],
                )
            self.db.execute(
                "DELETE FROM dpfs_file_attr WHERE filename = ?", [norm]
            )
            self.db.execute(
                "DELETE FROM dpfs_file_distribution WHERE filename = ?",
                [norm],
            )
            self.db.execute(
                "DELETE FROM dpfs_file_replica WHERE filename = ?",
                [norm],
            )

    def rename_file(self, old: str, new: str) -> None:
        """mv: re-key a file's attr/distribution rows and directory links.

        Directories cannot be renamed (children embed the parent path);
        the shell's ``mv`` therefore applies to files only.
        """
        old_norm = normalize_path(old)
        new_norm = normalize_path(new)
        if old_norm == new_norm:
            return
        old_parent, old_base = split_path(old_norm)
        new_parent, new_base = split_path(new_norm)
        with self.db.transaction():
            if not self.file_exists(old_norm):
                if self.dir_exists(old_norm):
                    raise InvalidPath(
                        f"cannot rename directory {old_norm!r} (files only)"
                    )
                raise FileNotFound(old_norm)
            if self.file_exists(new_norm) or self.dir_exists(new_norm):
                raise FileExists(new_norm)
            new_parent_row = self._dir_row(new_parent)
            if new_parent_row is None:
                raise FileNotFound(f"no such directory: {new_parent}")
            # unlink from the old parent
            old_parent_row = self._dir_row(old_parent)
            assert old_parent_row is not None
            if old_parent == new_parent:
                files = [f for f in old_parent_row["files"] if f != old_base]
                files.append(new_base)
                self.db.execute(
                    "UPDATE dpfs_directory SET files = ? WHERE main_dir = ?",
                    [sorted(files), old_parent],
                )
            else:
                self.db.execute(
                    "UPDATE dpfs_directory SET files = ? WHERE main_dir = ?",
                    [
                        [f for f in old_parent_row["files"] if f != old_base],
                        old_parent,
                    ],
                )
                files = list(new_parent_row["files"])
                files.append(new_base)
                self.db.execute(
                    "UPDATE dpfs_directory SET files = ? WHERE main_dir = ?",
                    [sorted(files), new_parent],
                )
            self.db.execute(
                "UPDATE dpfs_file_attr SET filename = ? WHERE filename = ?",
                [new_norm, old_norm],
            )
            for table in ("dpfs_file_distribution", "dpfs_file_replica"):
                rows = self.db.execute(
                    f"SELECT dist_id, server_name FROM {table} "
                    "WHERE filename = ?",
                    [old_norm],
                ).rows
                for row in rows:
                    self.db.execute(
                        f"UPDATE {table} SET dist_id = ?, "
                        "filename = ? WHERE dist_id = ?",
                        [
                            f"{row['server_name']}|{new_norm}",
                            new_norm,
                            row["dist_id"],
                        ],
                    )

    def tree_usage(self, path: str) -> int:
        """Total logical bytes of all files at or under ``path`` (du)."""
        norm = normalize_path(path)
        if self.file_exists(norm):
            return self.stat(norm)["size"]
        if not self.dir_exists(norm):
            raise FileNotFound(norm)
        prefix = norm if norm.endswith("/") else norm + "/"
        total = 0
        for row in self.db.execute(
            "SELECT filename, size FROM dpfs_file_attr"
        ).rows:
            if row["filename"].startswith(prefix):
                total += row["size"]
        return total

    def server_usage(self) -> dict[int, int]:
        """Physical bytes each server holds (sum of its bricks' sizes)."""
        order = {row["server_name"]: row["server_id"] for row in self.servers()}
        usage = {server_id: 0 for server_id in order.values()}
        for row in self.db.execute(_SERVER_USAGE_SQL).rows:
            if row["server_name"] in order:
                usage[order[row["server_name"]]] = row["used"]
        return usage

    def set_permission(self, path: str, permission: int) -> None:
        norm = normalize_path(path)
        if not self.file_exists(norm):
            raise FileNotFound(norm)
        self.db.execute(
            "UPDATE dpfs_file_attr SET permission = ? WHERE filename = ?",
            [permission, norm],
        )

    def stat(self, path: str) -> dict[str, Any]:
        """File or directory attributes as a plain dict (shell `ls -l`)."""
        norm = normalize_path(path)
        rows = self.db.execute(
            "SELECT * FROM dpfs_file_attr WHERE filename = ?", [norm]
        ).rows
        if rows:
            attr = dict(rows[0])
            attr["geometry"] = dict(attr["geometry"])
            attr["is_dir"] = False
            return attr
        if self.dir_exists(norm):
            return {"filename": norm, "is_dir": True}
        raise FileNotFound(norm)

    def iter_files(self) -> list[str]:
        return [
            row["filename"]
            for row in self.db.execute(
                "SELECT filename FROM dpfs_file_attr ORDER BY filename"
            ).rows
        ]

"""DPFS metadata management on a SQL database (§5).

The paper keeps all file-system metadata in four POSTGRES tables,
manipulated through SQL; transactions guarantee consistency of
multi-table updates.  We reproduce the same four tables (hyphens in the
paper's names become underscores — SQL identifiers):

``dpfs_server``
    server_id, server_name, capacity, performance — the I/O node
    registry the greedy placement algorithm reads — plus ``used``, the
    physical bytes of every brick (replica copies in full) the server
    holds.  ``create_file``, ``grow_file`` and ``remove_file`` add or
    subtract the file's own per-server bytes inside their transactions,
    so reading a server's usage costs one row, whatever the namespace
    size; ``fsck`` recounts it from the bricklists (``usage-drift``).
``dpfs_file_distribution``
    file_id, server_name, bricklist (JSON) — how each file's bricks
    are spread over subfiles.  The paper keys a row by file name; here
    it is keyed by the file's id (a foreign key into
    ``dpfs_file_attr``, so dropping the file drops its rows), which a
    rename leaves alone.  A file has a row only on a server holding one
    of its bricks (an older build wrote one, perhaps empty, on every
    server), and its subfiles exist exactly where a row does, named by
    the id (:func:`~repro.core.brick.subfile_names`).
``dpfs_directory``
    main_dir, parent — the directory tree.  The paper's row holds JSON
    lists of its sub-directories and files; here every directory and
    file row instead names its own ``parent`` (a foreign key to
    ``main_dir``; ``/`` has none), so membership is recorded once and
    the database refuses a statement that would orphan a child.
    ``listdir`` is two indexed SELECTs on ``parent``.
``dpfs_file_attr``
    file_id, filename, owner, permission, size, filelevel, striping
    geometry (JSON), placement, parent — per-file attributes incl. the
    §3 file level.  ``file_id`` is allocated by the create's INSERT and
    never reused (AUTOINCREMENT), even after the file is removed.

A fifth table, ``dpfs_file_replica``, extends the paper's schema with
per-server *replica* bricklists (same shape as the distribution table)
for files created with ``replicas > 1``; the geometry JSON additionally
carries ``replicas``, the per-brick ``brick_crcs`` checksum list, the
``brick_crc_versions`` that order those checksums, and the ``crc_algo``
they were computed under.

:class:`MetadataManager` is the only component that speaks SQL; the
file system above it works with :class:`FileRecord` objects.
"""

from __future__ import annotations

import os
import posixpath
from dataclasses import dataclass, field
from typing import Any, NamedTuple, NoReturn

from ..errors import (
    ConstraintError,
    FileExists,
    FileNotFound,
    InvalidPath,
    MetaDBError,
)
from ..metadb import Database
from .brick import BrickMap, ReplicaMap, subfile_names
from .checksum import CRC_ALGORITHM
from .striping import FileLevel

__all__ = ["MetadataManager", "FileRecord", "Holders", "normalize_path", "split_path"]


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
    #: per-brick ``[server_name, version]`` of each stored checksum, as
    #: stamped by the server that hashed it; ``None`` = not set by a
    #: server write
    brick_crc_versions: list[list | None] = field(default_factory=list)
    #: the file's never-reused id, which names its subfiles (0: not
    #: created yet)
    file_id: int = 0

    def __post_init__(self) -> None:
        self.pad_crcs()

    def pad_crcs(self) -> None:
        """Extend the checksum and version lists to one entry per brick."""
        n = len(self.brick_sizes)
        for crcs in (self.brick_crcs, self.brick_crc_versions):
            crcs += [None] * (n - len(crcs))


_BRICKLIST_TABLES = ("dpfs_file_distribution", "dpfs_file_replica")

# A bricklist row's server id: the backend index ``server_name`` was
# registered under.  CROSS JOIN keeps the row table first in the plan.
_ROW_SERVER = "{} AS d CROSS JOIN dpfs_server AS s ON s.server_name = d.server_name"

# One brick-size row per (server, brick) of every distribution and
# replica bricklist, and one row with a NULL size for an empty list (a
# row an older build wrote for a server holding none of the file's
# bricks).  The CROSS JOINs fix the join order: a file's attr row, its
# bricklist rows (through their key's ``file_id`` prefix), their
# server, then the bricklist expanded.
_BRICK_SIZES_OF = (
    "SELECT s.server_id AS server_id,"
    " json_extract(a.geometry, '$.brick_sizes[' || b.value || ']') AS size"
    " FROM dpfs_file_attr AS a CROSS JOIN {} AS d ON d.file_id = a.file_id"
    " CROSS JOIN dpfs_server AS s ON s.server_name = d.server_name"
    " LEFT JOIN json_each(d.bricklist) AS b"
)
# The same rows for one file: every server holding one of its rows, and
# what its bricks add to that server's ``used`` counter.  Index lookups
# plus one walk of its bricklists.
_FILE_BRICK_SIZES_SQL = " UNION ALL ".join(
    _BRICK_SIZES_OF.format(table) + " WHERE a.file_id = ?"
    for table in _BRICKLIST_TABLES
)

# a file's row servers; ``kind`` indexes :class:`Holders`
_HOLDERS_SQL = " UNION ALL ".join(
    f"SELECT {kind} AS kind, s.server_id AS server_id"
    f" FROM {_ROW_SERVER.format(table)} WHERE d.file_id = ?"
    for kind, table in enumerate(_BRICKLIST_TABLES)
)

# what a root written before file ids holds: rows keyed by file name and
# subfiles named by path, the replica one with this suffix
_LEGACY_REPLICA_SUFFIX = "//r"
# the path-named subfiles a migrated root has yet to rename to id names
_LEGACY_RENAMES = "dpfs_legacy_subfile"
_ATTR_COLUMNS = (
    "filename, owner, permission, size, filelevel, element_size,"
    " geometry, placement, parent"
)

# Every directory and file row names its directory; the foreign key
# (enforced: ``Database`` turns ``foreign_keys`` on) is the only record
# of membership.
_PARENT_COLUMN = "parent TEXT REFERENCES dpfs_directory (main_dir)"
# sqlite's messages for a file attr insert or rename refused by its
# unique name and by its ``parent`` foreign key
_DUPLICATE_FILE = "UNIQUE constraint failed: dpfs_file_attr.filename"
_NO_PARENT = "FOREIGN KEY constraint failed"
_ANY_CHILD_SQL = (
    "SELECT 1 FROM dpfs_directory WHERE parent = ?"
    " UNION ALL SELECT 1 FROM dpfs_file_attr WHERE parent = ? LIMIT 1"
)


def _refused(exc: ConstraintError, norm: str, parent: str) -> NoReturn:
    """Raise what a refused insert or rename of file ``norm`` means: its
    name is taken, or its directory ``parent`` does not exist."""
    if str(exc) == _DUPLICATE_FILE:
        raise FileExists(norm) from exc
    if str(exc) == _NO_PARENT:
        raise FileNotFound(f"no such directory: {parent}") from exc
    raise exc


class Holders(NamedTuple):
    """The servers (backend indices) holding a file's distribution rows
    and its replica rows: where its primary and replica subfiles exist."""

    primary: list[int]
    replica: list[int]

    @classmethod
    def of(cls, brick_map: BrickMap, replica_map: ReplicaMap | None) -> "Holders":
        """The servers holding primary bricks and replica bricks."""
        return cls(
            brick_map.holders(),
            replica_map.holders() if replica_map is not None else [],
        )

    def servers(self) -> list[int]:
        """Every server holding a row of either kind, ascending."""
        return sorted({*self.primary, *self.replica})


def _tuple_or_none(value: list | None) -> tuple | None:
    return tuple(value) if value else None


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
            " performance REAL NOT NULL,"
            " used INTEGER NOT NULL DEFAULT 0)"
        )
        self.db.execute(
            "CREATE TABLE IF NOT EXISTS dpfs_directory ("
            " main_dir TEXT PRIMARY KEY,"
            f" {_PARENT_COLUMN})"
        )
        keyed_by_name = "filename" in self._columns("dpfs_file_distribution")
        if "parent" not in self._columns("dpfs_directory"):
            self._migrate_to_parent_keys()
        if keyed_by_name:
            self._migrate_to_file_ids()
        else:
            self._create_file_tables()
        self.db.execute(
            "CREATE INDEX IF NOT EXISTS dir_by_parent "
            "ON dpfs_directory (parent, main_dir)"
        )
        self.db.execute(
            "CREATE INDEX IF NOT EXISTS file_by_parent "
            "ON dpfs_file_attr (parent, filename)"
        )
        if not self.dir_exists("/"):
            self.db.execute("INSERT INTO dpfs_directory VALUES ('/', NULL)")
        if "used" not in self._columns("dpfs_server"):
            # a root written before the counter existed: add it and
            # fill it once from the bricklists
            from .fsck import rewrite_usage, usage_oracle

            with self.db.transaction():
                self.db.execute(
                    "ALTER TABLE dpfs_server"
                    " ADD COLUMN used INTEGER NOT NULL DEFAULT 0"
                )
                rewrite_usage(self, usage_oracle(self))

    def _create_file_tables(self) -> None:
        fresh = not self._columns("dpfs_file_attr")
        self.db.execute(
            "CREATE TABLE IF NOT EXISTS dpfs_file_attr ("
            " file_id INTEGER PRIMARY KEY AUTOINCREMENT,"
            " filename TEXT NOT NULL UNIQUE,"
            " owner TEXT NOT NULL,"
            " permission INTEGER NOT NULL,"
            " size INTEGER NOT NULL,"
            " filelevel TEXT NOT NULL,"
            " element_size INTEGER NOT NULL,"
            " geometry JSON NOT NULL,"        # shapes / pattern / grid / sizes
            " placement TEXT NOT NULL,"
            f" {_PARENT_COLUMN})"
        )
        if fresh:
            # ids start at a random point of a 62-bit range, so namespaces
            # (metadata databases) that share storage servers do not pick
            # the same subfile names
            self.db.execute(
                "INSERT INTO sqlite_sequence VALUES ('dpfs_file_attr', ?)",
                [int.from_bytes(os.urandom(8), "big") >> 2],
            )
        for table in _BRICKLIST_TABLES:
            self.db.execute(
                f"CREATE TABLE IF NOT EXISTS {table} ("
                " file_id INTEGER NOT NULL"
                " REFERENCES dpfs_file_attr (file_id) ON DELETE CASCADE,"
                " server_name TEXT NOT NULL,"
                " bricklist JSON NOT NULL,"
                " PRIMARY KEY (file_id, server_name))"
            )

    def _columns(self, table: str) -> set[str]:
        rows = self.db.execute(f"PRAGMA table_info({table})").rows
        return {row["name"] for row in rows}

    def _migrate_to_parent_keys(self) -> None:
        """Re-key a root whose directory rows hold ``sub_dirs`` / ``files``
        lists: every row gets ``parent`` from its own path, a missing
        ancestor directory is created, and the lists are dropped (so an
        older build refuses this root instead of mounting stale lists)."""
        with self.db.transaction():
            for table in ("dpfs_directory", "dpfs_file_attr"):
                self.db.execute(f"ALTER TABLE {table} ADD COLUMN {_PARENT_COLUMN}")
            for column in ("sub_dirs", "files"):
                self.db.execute(f"ALTER TABLE dpfs_directory DROP COLUMN {column}")
            dirs = {
                row["main_dir"]
                for row in self.db.execute("SELECT main_dir FROM dpfs_directory")
            }
            files = [
                row["filename"]
                for row in self.db.execute("SELECT filename FROM dpfs_file_attr")
            ]
            for path in [*dirs, *files]:
                while path != "/":
                    path = posixpath.dirname(path)
                    dirs.add(path)
            # sorted: an ancestor is a prefix, so it is keyed first
            for path in sorted(dirs):
                self.db.execute(
                    "INSERT INTO dpfs_directory VALUES (?, ?) ON CONFLICT"
                    " (main_dir) DO UPDATE SET parent = excluded.parent",
                    [path, None if path == "/" else posixpath.dirname(path)],
                )
            for path in files:
                self.db.execute(
                    "UPDATE dpfs_file_attr SET parent = ? WHERE filename = ?",
                    [posixpath.dirname(path), path],
                )

    def _migrate_to_file_ids(self) -> None:
        """Key a root written before file ids: give every file an id,
        re-key its rows by it, and list the path-named subfiles on its
        row servers that :meth:`legacy_subfiles` hands to the mount to
        rename.  Refused while the old intent journal holds anything:
        only the build that wrote an intent knows how to finish it."""
        if "dpfs_intent" in self.db.table_names():
            pending = self.db.execute(
                "SELECT intent_id, op, args FROM dpfs_intent ORDER BY intent_id"
            ).rows
            if pending:
                names = ", ".join(
                    f"{row['intent_id']} ({row['op']} "
                    f"{row['args'].get('path') or row['args'].get('old')})"
                    for row in pending
                )
                raise MetaDBError(
                    f"this root names subfiles by path and its intent journal "
                    f"holds {len(pending)} pending intent(s): {names}; finish "
                    f"them with `dpfs recover` from the build that wrote them, "
                    f"then mount again"
                )
        legacy = ("dpfs_file_attr", *_BRICKLIST_TABLES)
        with self.db.transaction():
            for table in legacy:
                self.db.execute(f"ALTER TABLE {table} RENAME TO legacy_{table}")
            # the renamed tables keep their indexes' names
            for index in ("file_by_parent", "dist_by_filename", "replica_by_filename"):
                self.db.execute(f"DROP INDEX IF EXISTS {index}")
            self.db.execute("DROP TABLE IF EXISTS dpfs_intent")
            self._create_file_tables()
            self.db.execute(
                f"INSERT INTO dpfs_file_attr ({_ATTR_COLUMNS}) SELECT"
                f" {_ATTR_COLUMNS} FROM legacy_dpfs_file_attr ORDER BY filename"
            )
            for table in _BRICKLIST_TABLES:
                self.db.execute(
                    f"INSERT INTO {table} SELECT a.file_id, d.server_name,"
                    f" d.bricklist FROM legacy_{table} AS d"
                    " JOIN dpfs_file_attr AS a USING (filename)"
                )
            self.db.execute(
                f"CREATE TABLE {_LEGACY_RENAMES} (server_id INTEGER NOT NULL,"
                " old TEXT NOT NULL, new TEXT NOT NULL)"
            )
            # an older build reached both of a replicated file's
            # subfiles on every one of its row servers
            for row in self.db.execute(
                "SELECT DISTINCT s.server_id, a.file_id, a.filename,"
                " json_extract(a.geometry, '$.replicas') > 1 AS replicated"
                " FROM (SELECT file_id, server_name FROM dpfs_file_distribution"
                " UNION SELECT file_id, server_name FROM dpfs_file_replica) AS d"
                " JOIN dpfs_server AS s USING (server_name)"
                " JOIN dpfs_file_attr AS a USING (file_id)"
            ).rows:
                path = row["filename"]
                pairs = zip(
                    (path, path + _LEGACY_REPLICA_SUFFIX),
                    subfile_names(row["file_id"])[: 2 if row["replicated"] else 1],
                )
                for old, new in pairs:
                    self.db.execute(
                        f"INSERT INTO {_LEGACY_RENAMES} VALUES (?, ?, ?)",
                        [row["server_id"], old, new],
                    )
            for table in legacy:
                self.db.execute(f"DROP TABLE legacy_{table}")

    def legacy_subfiles(self) -> dict[int, list[tuple[str, str]]]:
        """The ``(path name, id name)`` subfile renames a migrated root
        still needs, by server (empty once every server has done them)."""
        pending: dict[int, list[tuple[str, str]]] = {}
        if self._columns(_LEGACY_RENAMES):
            for row in self.db.execute(
                f"SELECT server_id, old, new FROM {_LEGACY_RENAMES}"
            ).rows:
                pending.setdefault(row["server_id"], []).append(
                    (row["old"], row["new"])
                )
        return pending

    def legacy_subfiles_renamed(self, server: int) -> None:
        """Record that ``server`` holds no path-named subfile any more."""
        with self.db.transaction():
            self.db.execute(
                f"DELETE FROM {_LEGACY_RENAMES} WHERE server_id = ?", [server]
            )
            if not self.db.execute(f"SELECT 1 FROM {_LEGACY_RENAMES} LIMIT 1").rows:
                self.db.execute(f"DROP TABLE {_LEGACY_RENAMES}")

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
                        "INSERT INTO dpfs_server (server_id, server_name,"
                        " capacity, performance) VALUES (?, ?, ?, ?)",
                        [idx, info.name, info.capacity, info.performance],
                    )

    def servers(self) -> list[dict[str, Any]]:
        return self.db.execute(
            "SELECT server_id, server_name, capacity, performance, used "
            "FROM dpfs_server ORDER BY server_id"
        ).rows

    # ------------------------------------------------------------------
    # directories
    # ------------------------------------------------------------------
    def dir_exists(self, path: str) -> bool:
        rows = self.db.execute(
            "SELECT main_dir FROM dpfs_directory WHERE main_dir = ?",
            [normalize_path(path)],
        ).rows
        return bool(rows)

    def file_exists(self, path: str) -> bool:
        rows = self.db.execute(
            "SELECT filename FROM dpfs_file_attr WHERE filename = ?",
            [normalize_path(path)],
        ).rows
        return bool(rows)

    def mkdir(self, path: str) -> None:
        """Create one directory (parent must exist): one row keyed to
        its parent."""
        norm = normalize_path(path)
        if norm == "/":
            raise FileExists("/ always exists")
        parent, _base = split_path(norm)
        with self.db.transaction():
            if not self.dir_exists(parent):
                raise FileNotFound(f"no such directory: {parent}")
            if self.dir_exists(norm) or self.file_exists(norm):
                raise FileExists(norm)
            self.db.execute(
                "INSERT INTO dpfs_directory VALUES (?, ?)", [norm, parent]
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
            if not self.dir_exists(norm):
                raise FileNotFound(norm)
            if self.db.execute(_ANY_CHILD_SQL, [norm, norm]).rows:
                from ..errors import DirectoryNotEmpty

                raise DirectoryNotEmpty(norm)
            self.db.execute(
                "DELETE FROM dpfs_directory WHERE main_dir = ?", [norm]
            )

    def listdir(self, path: str) -> tuple[list[str], list[str]]:
        """(sub_dirs, files) of a directory, each sorted by name."""
        norm = normalize_path(path)
        if not self.dir_exists(norm):
            raise FileNotFound(path)
        subs = self.db.execute(
            "SELECT main_dir FROM dpfs_directory WHERE parent = ?"
            " ORDER BY main_dir",
            [norm],
        ).rows
        files = self.db.execute(
            "SELECT filename FROM dpfs_file_attr WHERE parent = ?"
            " ORDER BY filename",
            [norm],
        ).rows
        return (
            [posixpath.basename(row["main_dir"]) for row in subs],
            [posixpath.basename(row["filename"]) for row in files],
        )

    # ------------------------------------------------------------------
    # files
    # ------------------------------------------------------------------
    def create_file(
        self,
        record: FileRecord,
        brick_map: BrickMap,
        server_names: list[str],
        replica_map: ReplicaMap | None = None,
    ) -> int:
        """Insert attr + bricklist rows, keyed to the parent directory,
        and charge the bricks to their servers' ``used`` counters.  The
        attr row's unique name refuses a second file of the same name
        and its ``parent`` foreign key a missing directory.  Returns the
        file's new id, also set on ``record``."""
        norm = normalize_path(record.path)
        parent, _base = split_path(norm)
        with self.db.transaction():
            if self.dir_exists(norm):
                raise FileExists(norm)
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
                "brick_crc_versions": record.brick_crc_versions,
                "crc_algo": record.crc_algo,
            }
            try:
                file_id = self.db.execute(
                    f"INSERT INTO dpfs_file_attr ({_ATTR_COLUMNS})"
                    " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    [
                        norm,
                        record.owner,
                        record.permission,
                        record.size,
                        record.level.value,
                        record.element_size,
                        {k: v for k, v in geometry.items() if v is not None},
                        record.placement,
                        parent,
                    ],
                ).lastrowid
            except ConstraintError as exc:
                _refused(exc, norm, parent)
            self._write_bricklists(file_id, brick_map, replica_map, server_names)
            for server in range(len(server_names)):
                nbytes = brick_map.subfile_size(server)
                if replica_map is not None:
                    nbytes += replica_map.subfile_size(server)
                if nbytes:
                    self._add_used(server, nbytes)
        record.file_id = file_id
        return file_id

    def load_file(self, path: str | int) -> tuple[FileRecord, BrickMap]:
        """A file's record and brick map, by path or by file id (how an
        open handle finds its file after a rename)."""
        if isinstance(path, int):
            column, key = "file_id", path
        else:
            column, key = "filename", normalize_path(path)
        rows = self.db.execute(
            f"SELECT * FROM dpfs_file_attr WHERE {column} = ?", [key]
        ).rows
        if not rows:
            raise FileNotFound(str(key))
        attr = rows[0]
        geometry = attr["geometry"]
        record = FileRecord(
            path=attr["filename"],
            owner=attr["owner"],
            permission=attr["permission"],
            size=attr["size"],
            level=FileLevel(attr["filelevel"]),
            element_size=attr["element_size"],
            array_shape=_tuple_or_none(geometry.get("array_shape")),
            brick_shape=_tuple_or_none(geometry.get("brick_shape")),
            brick_size=geometry.get("brick_size"),
            pattern=geometry.get("pattern"),
            nprocs=geometry.get("nprocs"),
            pgrid=_tuple_or_none(geometry.get("pgrid")),
            placement=attr["placement"],
            brick_sizes=list(geometry["brick_sizes"]),
            replicas=geometry.get("replicas", 1),
            brick_crcs=list(geometry.get("brick_crcs") or []),
            crc_algo=geometry.get("crc_algo", CRC_ALGORITHM),
            brick_crc_versions=list(geometry.get("brick_crc_versions") or []),
            file_id=attr["file_id"],
        )
        dist = self.db.execute(
            "SELECT server_name, bricklist FROM dpfs_file_distribution "
            "WHERE file_id = ?",
            [record.file_id],
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

    def load_replica_map(self, record: FileRecord) -> ReplicaMap:
        """The file's replica bricklists (empty map for replicas == 1)."""
        order = {row["server_name"]: row["server_id"] for row in self.servers()}
        bricklists: list[list[int]] = [[] for _ in order]
        for row in self.db.execute(
            "SELECT server_name, bricklist FROM dpfs_file_replica "
            "WHERE file_id = ?",
            [record.file_id],
        ).rows:
            server_id = order.get(row["server_name"])
            if server_id is None:
                raise MetaDBError(
                    f"replica row references unknown server "
                    f"{row['server_name']!r}"
                )
            bricklists[server_id] = list(row["bricklist"])
        return ReplicaMap.build(len(order), bricklists, record.brick_sizes)

    def update_brick_crcs(
        self,
        file_id: int,
        crcs: dict[int, int | None],
        versions: dict[int, tuple[str, int]] | None = None,
    ) -> dict[int, int | None]:
        """Merge per-brick checksums into the geometry; returns the ones
        stored.

        One transaction per *write call*, not per brick — the handle
        batches every brick a write touched into a single ``crcs`` dict.
        With ``versions`` (a server write's ``(server_name, version)``
        stamps), a brick's checksum stamped by the same server as the
        stored one is stored only if its version is newer, so a slow
        writer's commit cannot replace a newer writer's checksum.  A
        stamp from another server always replaces the stored one: two
        servers' clocks are never compared.  Without ``versions``
        (scrub, fsck), checksums are stored and the stored stamps kept.
        """
        if not crcs:
            return {}
        with self.db.transaction():
            rows = self.db.execute(
                "SELECT geometry FROM dpfs_file_attr WHERE file_id = ?",
                [file_id],
            ).rows
            if not rows:
                raise FileNotFound(f"file id {file_id}")
            geometry = dict(rows[0]["geometry"])
            n = len(geometry["brick_sizes"])
            stored = list(geometry.get("brick_crcs") or [])
            stored += [None] * (n - len(stored))
            stamps = list(geometry.get("brick_crc_versions") or [])
            stamps += [None] * (n - len(stamps))
            applied: dict[int, int | None] = {}
            for brick_id, crc in crcs.items():
                if not 0 <= brick_id < n:
                    raise MetaDBError(
                        f"brick {brick_id} outside crc table of {n}"
                    )
                if versions is not None:
                    server, version = versions[brick_id]
                    old = stamps[brick_id]
                    if old is not None and old[0] == server and version <= old[1]:
                        continue
                    stamps[brick_id] = [server, version]
                stored[brick_id] = crc
                applied[brick_id] = crc
            if not applied:
                return applied
            geometry["brick_crcs"] = stored
            geometry["brick_crc_versions"] = stamps
            geometry.setdefault("crc_algo", CRC_ALGORITHM)
            self.db.execute(
                "UPDATE dpfs_file_attr SET geometry = ? WHERE file_id = ?",
                [geometry, file_id],
            )
        return applied

    def update_file_size(self, file_id: int, size: int) -> None:
        self.db.execute(
            "UPDATE dpfs_file_attr SET size = ? WHERE file_id = ?",
            [size, file_id],
        )

    def _grow_geometry(self, file_id: int, brick_sizes: list[int]) -> None:
        """Extend geometry's brick_sizes/brick_crcs (caller holds txn)."""
        rows = self.db.execute(
            "SELECT geometry FROM dpfs_file_attr WHERE file_id = ?",
            [file_id],
        ).rows
        if not rows:
            raise FileNotFound(f"file id {file_id}")
        geometry = dict(rows[0]["geometry"])
        geometry["brick_sizes"] = list(brick_sizes)
        n = len(brick_sizes)
        for key in ("brick_crcs", "brick_crc_versions"):
            values = list(geometry.get(key) or [])
            values += [None] * (n - len(values))  # new bricks: crc unknown
            geometry[key] = values[:n]
        self.db.execute(
            "UPDATE dpfs_file_attr SET geometry = ? WHERE file_id = ?",
            [geometry, file_id],
        )

    def _write_bricklists(
        self,
        file_id: int,
        brick_map: BrickMap,
        replica_map: ReplicaMap | None,
        server_names: list[str],
    ) -> None:
        """Insert or replace a file's bricklist rows: one distribution
        row per server holding bricks, one replica row per server
        holding replica bricks (caller holds the transaction)."""
        tables = [("dpfs_file_distribution", brick_map.to_lists())]
        if replica_map is not None:
            tables.append(("dpfs_file_replica", replica_map.to_lists()))
        for table, lists in tables:
            for server, bricklist in enumerate(lists):
                if bricklist:
                    self.db.execute(
                        f"INSERT INTO {table} VALUES (?, ?, ?)"
                        " ON CONFLICT (file_id, server_name)"
                        " DO UPDATE SET bricklist = excluded.bricklist",
                        [file_id, server_names[server], bricklist],
                    )

    def reserve_rows(
        self, file_id: int, holders: Holders, server_names: list[str]
    ) -> None:
        """Give a file an empty row on each of ``holders``' servers
        lacking one, so remove reaches a subfile grow makes there even
        if the grow never commits."""
        with self.db.transaction():
            for table, servers in zip(_BRICKLIST_TABLES, holders):
                for server in servers:
                    self.db.execute(
                        f"INSERT INTO {table} VALUES (?, ?, '[]')"
                        " ON CONFLICT (file_id, server_name) DO NOTHING",
                        [file_id, server_names[server]],
                    )

    def holders(self, file_id: int) -> Holders:
        """The servers holding the file's rows."""
        holders = Holders([], [])
        for row in self.db.execute(_HOLDERS_SQL, [file_id] * 2):
            holders[row["kind"]].append(row["server_id"])
        return holders

    def grow_file(
        self,
        file_id: int,
        brick_map: BrickMap,
        brick_sizes: list[int],
        server_names: list[str],
        replica_map: ReplicaMap | None,
        new_size: int,
    ) -> None:
        """Every metadata effect of growing a linear file, atomically:
        geometry, bricklists, size and the servers' ``used`` counters.

        One transaction makes growth all-or-nothing, which is why grow
        needs no intent: new bricks materialise lazily on first write,
        so after the commit nothing is left to do, and before it at most
        empty rows (:meth:`reserve_rows`) and empty subfiles exist,
        which remove and the next grow reach.
        """
        with self.db.transaction():
            self._charge_usage(file_id, -1)
            self._grow_geometry(file_id, brick_sizes)
            self._write_bricklists(file_id, brick_map, replica_map, server_names)
            self.update_file_size(file_id, new_size)
            self._charge_usage(file_id, 1)

    def _add_used(self, server: int, nbytes: int) -> None:
        self.db.execute(
            "UPDATE dpfs_server SET used = used + ? WHERE server_id = ?",
            [nbytes, server],
        )

    def _charge_usage(self, file_id: int, sign: int) -> list[int]:
        """Add (``sign=1``) or subtract (``-1``) one file's bricks to or
        from each server's ``used`` counter (caller holds the txn).
        Returns every server holding a row of the file, ascending."""
        by_server: dict[int, int] = {}
        for row in self.db.execute(_FILE_BRICK_SIZES_SQL, [file_id] * 2).rows:
            server = row["server_id"]
            by_server[server] = by_server.get(server, 0) + (row["size"] or 0)
        for server, nbytes in by_server.items():
            if nbytes:
                self._add_used(server, sign * nbytes)
        return sorted(by_server)

    def remove_file(self, path: str) -> tuple[int, list[int]]:
        """Drop a file's attr row (its bricklist rows go with it) and
        uncharge its bricks; returns its id and the servers that held
        its rows."""
        norm = normalize_path(path)
        with self.db.transaction():
            file_id = self.db.execute(
                "SELECT file_id FROM dpfs_file_attr WHERE filename = ?", [norm]
            ).scalar()
            if file_id is None:
                raise FileNotFound(norm)
            servers = self._charge_usage(file_id, -1)
            self.db.execute("DELETE FROM dpfs_file_attr WHERE file_id = ?", [file_id])
        return file_id, servers

    def rename_file(self, old: str, new: str) -> None:
        """mv: give a file a new name and parent.  Its id, its rows and
        its subfiles stay as they are.

        Directories cannot be renamed (children embed the parent path);
        the shell's ``mv`` therefore applies to files only.
        """
        old_norm = normalize_path(old)
        new_norm = normalize_path(new)
        new_parent, _base = split_path(new_norm)
        with self.db.transaction():
            if self.dir_exists(new_norm):
                raise FileExists(new_norm)
            try:
                renamed = self.db.execute(
                    "UPDATE dpfs_file_attr SET filename = ?, parent = ?"
                    " WHERE filename = ?",
                    [new_norm, new_parent, old_norm],
                ).rowcount
            except ConstraintError as exc:
                _refused(exc, new_norm, new_parent)
            if not renamed:
                if self.dir_exists(old_norm):
                    raise InvalidPath(
                        f"cannot rename directory {old_norm!r} (files only)"
                    )
                raise FileNotFound(old_norm)

    def tree_usage(self, path: str) -> int:
        """Total logical bytes of all files at or under ``path`` (du)."""
        norm = normalize_path(path)
        if self.file_exists(norm):
            return self.stat(norm)["size"]
        if not self.dir_exists(norm):
            raise FileNotFound(norm)
        # every path under ``/d`` sorts in ['/d/', '/d0'): '0' follows '/'
        prefix = norm.rstrip("/") + "/"
        total = self.db.execute(
            "SELECT SUM(size) FROM dpfs_file_attr"
            " WHERE filename >= ? AND filename < ?",
            [prefix, prefix[:-1] + "0"],
        ).scalar()
        return total or 0

    def server_usage(self) -> dict[int, int]:
        """Physical bytes each server holds: its ``used`` counter."""
        return {row["server_id"]: row["used"] for row in self.servers()}

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

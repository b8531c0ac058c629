"""Rewrite a local root into the layouts older builds wrote.

The build before checksum sidecars kept one checksum per brick in each
file's geometry (``brick_crcs``, ``None`` for a brick never written,
with ``brick_crc_versions`` and the ``crc_algo`` they were computed
under), and no sidecar next to any subfile.  :func:`make_pre_sidecar`
puts a root the current build wrote in that shape, optionally with one
stored byte flipped after its checksum was taken.

The build before file ids also keyed ``dpfs_file_attr`` by file name,
keyed bricklist rows by ``"<server>|<path>"``, named every subfile by
its DPFS path (a replica subfile by the path plus ``//r``), and kept a
write-ahead journal with roll-back columns.  :func:`make_legacy` puts a
root in exactly that shape, so tests can mount what an upgrade finds.
"""

import os
from contextlib import suppress

from repro.backends.local import (
    SIDECAR_SUFFIX,
    XATTR,
    LocalBackend,
    escape_subfile_name,
)
from repro.core import DPFS
from repro.core.brick import subfile_names
from repro.checksum import CRC_ALGORITHM, checksum
from repro.metadb import Database

LEGACY_DDL = (
    "CREATE TABLE dpfs_file_attr ("
    " filename TEXT PRIMARY KEY,"
    " owner TEXT NOT NULL,"
    " permission INTEGER NOT NULL,"
    " size INTEGER NOT NULL,"
    " filelevel TEXT NOT NULL,"
    " element_size INTEGER NOT NULL,"
    " geometry JSON NOT NULL,"
    " placement TEXT NOT NULL,"
    " parent TEXT REFERENCES dpfs_directory (main_dir))",
    "CREATE INDEX file_by_parent ON dpfs_file_attr (parent, filename)",
    "CREATE TABLE dpfs_file_distribution ("
    " dist_id TEXT PRIMARY KEY,"
    " server_name TEXT NOT NULL,"
    " filename TEXT NOT NULL,"
    " bricklist JSON NOT NULL)",
    "CREATE INDEX dist_by_filename ON dpfs_file_distribution (filename)",
    "CREATE TABLE dpfs_file_replica ("
    " dist_id TEXT PRIMARY KEY,"
    " server_name TEXT NOT NULL,"
    " filename TEXT NOT NULL,"
    " bricklist JSON NOT NULL)",
    "CREATE INDEX replica_by_filename ON dpfs_file_replica (filename)",
    "CREATE TABLE dpfs_intent ("
    " intent_id TEXT PRIMARY KEY,"
    " op TEXT NOT NULL,"
    " args JSON NOT NULL,"
    " steps JSON NOT NULL,"
    " done JSON NOT NULL,"
    " commit_step TEXT NOT NULL,"
    " created_at REAL NOT NULL)",
)
_ATTR = (
    "filename, owner, permission, size, filelevel, element_size, geometry,"
    " placement, parent"
)
_TABLES = ("dpfs_file_distribution", "dpfs_file_replica")


def make_pre_sidecar(root, n_servers: int, flip=None) -> None:
    """Rewrite the closed root ``root`` as the build before checksum
    sidecars left it.  ``flip=(path, brick_id, copy)`` then flips one
    byte in the middle of that copy (0: the primary) of that brick."""
    geometries = {}
    with DPFS.local(root, n_servers) as fs:
        for path in fs.meta.iter_files():
            record, bmap = fs.meta.load_file(path)
            name = subfile_names(record.file_id)[0]
            crcs = []
            for brick_id in range(len(bmap)):
                loc = bmap.location(brick_id)
                data = fs.backend.read_extents(
                    loc.server, name, [(loc.local_offset, loc.size)]
                )
                # a brick of zeros passes for one never written
                crcs.append(checksum(data) if data.count(0) < len(data) else None)
            geometry = fs.stat(path)["geometry"]
            geometry.update(
                brick_crcs=crcs,
                brick_crc_versions=[None] * len(crcs),
                crc_algo=CRC_ALGORITHM,
            )
            geometries[path] = geometry
        if flip is not None:
            path, brick_id, copy = flip
            record, bmap = fs.meta.load_file(path)
            loc = bmap.location(brick_id)
            if copy:
                loc = fs.meta.load_replica_map(record).locations(brick_id)[copy - 1]
            name = subfile_names(record.file_id)[1 if copy else 0]
            subfile = root / f"server_{loc.server}" / escape_subfile_name(name)
            with open(subfile, "r+b") as fh:
                fh.seek(loc.local_offset + loc.size // 2)
                byte = fh.read(1)[0]
                fh.seek(-1, os.SEEK_CUR)
                fh.write(bytes([byte ^ 0xFF]))
    db = Database(root / "dpfs.meta")
    for path, geometry in geometries.items():
        db.execute(
            "UPDATE dpfs_file_attr SET geometry = ? WHERE filename = ?",
            [geometry, path],
        )
    db.execute("DROP TABLE dpfs_stale_copy")
    db.close()
    for server in range(n_servers):
        directory = root / f"server_{server}"
        for entry in os.listdir(directory):
            if entry.endswith(SIDECAR_SUFFIX):
                os.unlink(directory / entry)
            else:
                with suppress(OSError):  # no attribute: a sidecar file or none
                    os.removexattr(directory / entry, XATTR)


def make_legacy(root, n_servers: int) -> None:
    """Rewrite the closed root ``root`` into the path-keyed layout, which
    predates checksum sidecars too."""
    make_pre_sidecar(root, n_servers)
    db = Database(root / "dpfs.meta")
    db.execute("PRAGMA foreign_keys=OFF")
    attrs = db.execute(f"SELECT file_id, {_ATTR} FROM dpfs_file_attr").rows
    paths = {attr["file_id"]: attr["filename"] for attr in attrs}
    rows = {
        table: db.execute(f"SELECT file_id, server_name, bricklist FROM {table}").rows
        for table in _TABLES
    }
    for table in (*_TABLES, "dpfs_file_attr", "dpfs_intent"):
        db.execute(f"DROP TABLE {table}")
    for ddl in LEGACY_DDL:
        db.execute(ddl)
    for attr in attrs:
        del attr["file_id"]
        db.execute(
            f"INSERT INTO dpfs_file_attr ({_ATTR}) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            list(attr.values()),
        )
    for table, table_rows in rows.items():
        for row in table_rows:
            path = paths[row["file_id"]]
            db.execute(
                f"INSERT INTO {table} VALUES (?, ?, ?, ?)",
                [f"{row['server_name']}|{path}", row["server_name"], path,
                 row["bricklist"]],
            )
    db.close()
    backend = LocalBackend(root, n_servers)
    for file_id, path in paths.items():
        for name, old in zip(subfile_names(file_id), (path, path + "//r")):
            for server in range(n_servers):
                if backend.subfile_exists(server, name):
                    backend.rename_subfile(server, name, old)


def add_legacy_intent(root) -> None:
    """Journal a rename the old build never finished."""
    db = Database(root / "dpfs.meta")
    db.execute(
        "INSERT INTO dpfs_intent VALUES (?, ?, ?, ?, ?, ?, ?)",
        ["i00000007", "rename", {"old": "/a/x", "new": "/a/y"},
         ["rekey-metadata", "rename-subfiles"], ["rekey-metadata"],
         "rekey-metadata", 0.0],
    )
    db.close()

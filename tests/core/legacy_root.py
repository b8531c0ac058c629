"""Rewrite a local root into the layout the build before file ids wrote.

That build keyed ``dpfs_file_attr`` by file name, keyed bricklist rows
by ``"<server>|<path>"``, named every subfile by its DPFS path (a
replica subfile by the path plus ``//r``), and kept a write-ahead
journal with roll-back columns.  :func:`make_legacy` takes a root the
current build wrote and puts it in exactly that shape, so tests can
mount what an upgrade finds.
"""

from repro.backends.local import LocalBackend
from repro.core.brick import subfile_names
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


def make_legacy(root, n_servers: int) -> None:
    """Rewrite the closed root ``root`` into the path-keyed layout."""
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

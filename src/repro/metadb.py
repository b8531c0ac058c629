"""Relational database for DPFS metadata (replaces POSTGRES, §5).

A thin layer over the standard library's ``sqlite3``: the metadata
manager speaks plain SQL with transactions, exactly as §5 describes.

    from repro.metadb import Database

    db = Database()                     # in-memory
    db = Database("/data/dpfs.meta")    # durable (sqlite file, WAL mode)
    db.execute("CREATE TABLE t (k TEXT PRIMARY KEY, v JSON)")
    db.execute("INSERT INTO t VALUES (?, ?)", ["a", [1, 2]])
    rows = db.execute("SELECT v FROM t WHERE k = ?", ["a"]).rows

Durability point: a file database runs ``journal_mode=WAL`` with
``synchronous=FULL``, so a transaction is on disk when COMMIT returns.
Foreign keys are enforced on every connection.  Columns declared
``JSON`` hold compact ``json.dumps`` text (no spaces after separators)
and come back decoded; list and dict parameters are encoded on the way
in.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from .errors import ConstraintError, MetaDBError, TransactionError

__all__ = ["Database", "ResultSet"]

# JSON-declared columns decode on read.  Converters are registered per
# process but only apply to connections opened with PARSE_DECLTYPES.
sqlite3.register_converter("JSON", json.loads)

#: the retired snapshot+WAL store kept these beside ``path`` and never
#: wrote ``path`` itself; opening one must fail, not mount it empty
_OLD_FORMAT_SUFFIXES = (".snapshot.json", ".wal")


@dataclass
class ResultSet:
    """Outcome of one statement: result rows and/or affected-row count."""

    rows: list[dict[str, Any]] = field(default_factory=list)
    rowcount: int = 0

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def scalar(self) -> Any:
        """First column of the first row (aggregate shortcut)."""
        if not self.rows:
            return None
        first = self.rows[0]
        return next(iter(first.values())) if first else None


class Database:
    """One sqlite connection, serialised by a lock, with explicit
    BEGIN/COMMIT transactions (statements outside one autocommit)."""

    def __init__(self, path: str | os.PathLike[str] | None = None) -> None:
        if path is not None:
            old = [
                f"{path}{suffix}"
                for suffix in _OLD_FORMAT_SUFFIXES
                if os.path.exists(f"{path}{suffix}")
            ]
            if old:
                raise MetaDBError(
                    f"{path}: metadata is in the retired snapshot+WAL "
                    f"format ({', '.join(old)}), which this version cannot "
                    "read; refusing to open an empty namespace beside it"
                )
            Path(path).parent.mkdir(parents=True, exist_ok=True)
        # begin() holds this lock until commit()/rollback(), so another
        # thread's statements never interleave with an open transaction
        self._lock = threading.RLock()
        self._txn_owner: int | None = None
        self._conn = sqlite3.connect(
            ":memory:" if path is None else os.fspath(path),
            isolation_level=None,
            check_same_thread=False,
            detect_types=sqlite3.PARSE_DECLTYPES,
        )
        # REFERENCES clauses hold: a statement that would leave a child
        # row without its parent fails with ConstraintError
        self._conn.execute("PRAGMA foreign_keys=ON")
        if path is not None:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=FULL")

    def execute(self, sql: str, params: Sequence[Any] = ()) -> ResultSet:
        """Execute one SQL statement (thread-safe)."""
        args = [
            json.dumps(p, separators=(",", ":"))
            if isinstance(p, (list, dict))
            else p
            for p in params
        ]
        with self._lock:
            try:
                cursor = self._conn.execute(sql, args)
                if cursor.description is None:
                    return ResultSet(rowcount=max(cursor.rowcount, 0))
                names = [d[0] for d in cursor.description]
                rows = [dict(zip(names, row)) for row in cursor.fetchall()]
            except sqlite3.IntegrityError as exc:
                raise ConstraintError(str(exc)) from exc
            except (sqlite3.Error, sqlite3.Warning) as exc:
                raise MetaDBError(str(exc)) from exc
        return ResultSet(rows=rows, rowcount=len(rows))

    def begin(self) -> None:
        """Start a transaction, holding the database lock until
        :meth:`commit` or :meth:`rollback`."""
        self._lock.acquire()
        if self._txn_owner is not None:
            self._lock.release()
            raise TransactionError("nested BEGIN is not supported")
        try:
            self.execute("BEGIN IMMEDIATE")
        except BaseException:
            self._lock.release()
            raise
        self._txn_owner = threading.get_ident()

    def commit(self) -> None:
        self._finish("COMMIT")

    def rollback(self) -> None:
        self._finish("ROLLBACK")

    def _finish(self, sql: str) -> None:
        if self._txn_owner != threading.get_ident():
            raise TransactionError(f"{sql} outside a transaction")
        try:
            if sql == "COMMIT" or self._conn.in_transaction:
                self.execute(sql)
        finally:
            if self._conn.in_transaction:  # a failed COMMIT stays open
                self._conn.rollback()
            self._txn_owner = None
            self._lock.release()

    def transaction(self) -> "_TransactionContext":
        """``with db.transaction(): ...`` — commit on success, rollback on error."""
        return _TransactionContext(self)

    @property
    def in_transaction(self) -> bool:
        return self._txn_owner is not None

    def table_names(self) -> list[str]:
        rows = self.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table' "
            "AND name NOT LIKE 'sqlite%' ORDER BY name"
        ).rows
        return [row["name"] for row in rows]

    def close(self) -> None:
        if self._txn_owner == threading.get_ident():
            self.rollback()
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class _TransactionContext:
    """Context manager returned by :meth:`Database.transaction`.

    Nesting joins: entered while this thread already has a transaction
    open, the inner context becomes part of the outer one and neither
    commits nor rolls back on its own.  This lets a caller make a
    multi-operation sequence atomic — e.g. a metadata commit plus the
    intent-journal mark of that commit — even though each operation
    opens ``db.transaction()`` internally.
    """

    def __init__(self, db: Database) -> None:
        self.db = db
        self._owns = False

    def __enter__(self) -> Database:
        # another thread's transaction makes begin() block on the lock
        if self.db._txn_owner != threading.get_ident():
            self.db.begin()
            self._owns = True
        return self.db

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._owns:
            if exc_type is None:
                self.db.commit()
            else:
                self.db.rollback()
        return False

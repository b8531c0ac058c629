"""Durability tests: reopen, WAL checkpoints, rollback on close, and
refusal of the retired snapshot+WAL format."""

import pytest

from repro.errors import MetaDBError
from repro.metadb import Database


def reopen(path):
    return Database(path)


def test_basic_reopen(tmp_path):
    path = tmp_path / "meta.db"
    db = Database(path)
    db.execute("CREATE TABLE t (k TEXT PRIMARY KEY, v INTEGER)")
    db.execute("INSERT INTO t VALUES ('a', 1)")
    db.close()

    db2 = reopen(path)
    assert db2.execute("SELECT v FROM t WHERE k = 'a'").scalar() == 1
    db2.close()


def test_wal_replays_updates_and_deletes(tmp_path):
    path = tmp_path / "meta.db"
    db = Database(path)
    db.execute("CREATE TABLE t (k TEXT PRIMARY KEY, v INTEGER)")
    db.execute("INSERT INTO t VALUES ('a', 1), ('b', 2), ('c', 3)")
    db.execute("UPDATE t SET v = 20 WHERE k = 'b'")
    db.execute("DELETE FROM t WHERE k = 'c'")
    db.close()

    db2 = reopen(path)
    rows = db2.execute("SELECT k, v FROM t ORDER BY k").rows
    assert rows == [{"k": "a", "v": 1}, {"k": "b", "v": 20}]
    db2.close()


def test_rolled_back_transaction_not_replayed(tmp_path):
    path = tmp_path / "meta.db"
    db = Database(path)
    db.execute("CREATE TABLE t (k TEXT PRIMARY KEY)")
    db.begin()
    db.execute("INSERT INTO t VALUES ('gone')")
    db.rollback()
    db.execute("INSERT INTO t VALUES ('kept')")
    db.close()

    db2 = reopen(path)
    rows = db2.execute("SELECT k FROM t").rows
    assert rows == [{"k": "kept"}]
    db2.close()


def test_checkpoint_truncates_wal_and_preserves_data(tmp_path):
    path = tmp_path / "meta.db"
    db = Database(path)
    db.execute("CREATE TABLE t (k TEXT PRIMARY KEY, v JSON)")
    db.execute("INSERT INTO t VALUES ('a', ?)", [[1, 2, 3]])
    db.execute("PRAGMA wal_checkpoint(TRUNCATE)")
    wal = tmp_path / "meta.db-wal"
    assert not wal.exists() or wal.stat().st_size == 0
    db.execute("INSERT INTO t VALUES ('b', ?)", [{"x": 1}])
    db.close()

    db2 = reopen(path)
    assert db2.execute("SELECT v FROM t WHERE k = 'a'").scalar() == [1, 2, 3]
    assert db2.execute("SELECT v FROM t WHERE k = 'b'").scalar() == {"x": 1}
    db2.close()


def test_reopen_after_checkpoint_then_more_writes(tmp_path):
    path = tmp_path / "meta.db"
    db = Database(path)
    db.execute("CREATE TABLE t (n INTEGER PRIMARY KEY)")
    for i in range(5):
        db.execute("INSERT INTO t VALUES (?)", [i])
    db.execute("PRAGMA wal_checkpoint(TRUNCATE)")
    for i in range(5, 10):
        db.execute("INSERT INTO t VALUES (?)", [i])
    db.close()

    db2 = reopen(path)
    assert db2.execute("SELECT COUNT(*) FROM t").scalar() == 10
    db2.close()


def test_drop_table_survives_reopen(tmp_path):
    path = tmp_path / "meta.db"
    db = Database(path)
    db.execute("CREATE TABLE t (k TEXT)")
    db.execute("CREATE TABLE u (k TEXT)")
    db.execute("DROP TABLE t")
    db.close()

    db2 = reopen(path)
    assert db2.table_names() == ["u"]
    db2.close()


def test_open_transaction_rolled_back_on_close(tmp_path):
    path = tmp_path / "meta.db"
    db = Database(path)
    db.execute("CREATE TABLE t (k TEXT)")
    db.begin()
    db.execute("INSERT INTO t VALUES ('uncommitted')")
    db.close()  # implicit rollback

    db2 = reopen(path)
    assert db2.execute("SELECT COUNT(*) FROM t").scalar() == 0
    db2.close()


def test_context_manager_closes(tmp_path):
    path = tmp_path / "meta.db"
    with Database(path) as db:
        db.execute("CREATE TABLE t (k TEXT)")
    with Database(path) as db2:
        assert db2.table_names() == ["t"]


@pytest.mark.parametrize("suffix", [".snapshot.json", ".wal"])
def test_old_format_files_refused(tmp_path, suffix):
    """The retired engine kept ``<path>.snapshot.json`` and ``<path>.wal``
    and never wrote ``<path>``; opening such a root must fail loudly
    instead of creating an empty database beside the old metadata."""
    path = tmp_path / "meta.db"
    old = tmp_path / ("meta.db" + suffix)
    old.write_text("{}")
    with pytest.raises(MetaDBError, match=str(old.name)):
        Database(path)
    assert not path.exists()


def test_old_format_refused_by_local_mount(tmp_path):
    from repro.core import DPFS

    (tmp_path / "dpfs.meta.wal").write_text("")
    with pytest.raises(MetaDBError, match="dpfs.meta.wal"):
        DPFS.local(tmp_path, 2)

"""Secondary index tests: DDL, maintenance, planner use, durability."""

import re

import pytest

from repro.errors import MetaDBError
from repro.metadb import Database


@pytest.fixture
def db():
    d = Database()
    d.execute("CREATE TABLE t (k TEXT PRIMARY KEY, grp TEXT, v INTEGER)")
    d.execute(
        "INSERT INTO t VALUES ('a','x',1), ('b','y',2), ('c','x',3), "
        "('d', NULL, 4)"
    )
    d.execute("CREATE INDEX t_by_grp ON t (grp)")
    return d


def test_index_lookup_matches_scan(db):
    by_index = db.execute("SELECT k FROM t WHERE grp = 'x' ORDER BY k").rows
    by_scan = db.execute(
        "SELECT k FROM t WHERE grp || '' = 'x' ORDER BY k"
    ).rows
    assert by_index == by_scan == [{"k": "a"}, {"k": "c"}]


def test_null_values_not_indexed(db):
    # WHERE grp = NULL matches nothing (SQL semantics)
    rows = db.execute("SELECT k FROM t WHERE grp = ?", [None]).rows
    assert rows == []


def test_index_maintained_on_insert_update_delete(db):
    db.execute("INSERT INTO t VALUES ('e', 'x', 5)")
    assert db.execute("SELECT COUNT(*) FROM t WHERE grp = 'x'").scalar() == 3
    db.execute("UPDATE t SET grp = 'y' WHERE k = 'a'")
    assert db.execute("SELECT COUNT(*) FROM t WHERE grp = 'x'").scalar() == 2
    assert db.execute("SELECT COUNT(*) FROM t WHERE grp = 'y'").scalar() == 2
    db.execute("DELETE FROM t WHERE grp = 'x'")
    assert db.execute("SELECT COUNT(*) FROM t WHERE grp = 'x'").scalar() == 0


def test_duplicate_index_name_rejected(db):
    with pytest.raises(MetaDBError):
        db.execute("CREATE INDEX t_by_grp ON t (v)")
    db.execute("CREATE INDEX IF NOT EXISTS t_by_grp ON t (v)")  # no-op


def test_index_on_unknown_column_rejected(db):
    with pytest.raises(MetaDBError):
        db.execute("CREATE INDEX bad ON t (nosuch)")
    with pytest.raises(MetaDBError):
        db.execute("CREATE INDEX bad ON missing_table (grp)")


def test_drop_index(db):
    db.execute("DROP INDEX t_by_grp")
    # queries still work (scan path)
    assert db.execute("SELECT COUNT(*) FROM t WHERE grp = 'x'").scalar() == 2
    with pytest.raises(MetaDBError):
        db.execute("DROP INDEX t_by_grp")
    db.execute("DROP INDEX IF EXISTS t_by_grp")


def test_index_rollback(db):
    db.begin()
    db.execute("CREATE INDEX t_by_v ON t (v)")
    db.rollback()
    with pytest.raises(MetaDBError):
        db.execute("DROP INDEX t_by_v")
    db.begin()
    db.execute("DROP INDEX t_by_grp")
    db.rollback()
    # restored: still answers correctly
    assert db.execute("SELECT COUNT(*) FROM t WHERE grp = 'x'").scalar() == 2


def test_index_survives_reopen(tmp_path):
    path = tmp_path / "meta.db"
    d = Database(path)
    d.execute("CREATE TABLE t (k TEXT PRIMARY KEY, grp TEXT)")
    d.execute("INSERT INTO t VALUES ('a', 'x')")
    d.execute("CREATE INDEX t_by_grp ON t (grp)")
    d.execute("INSERT INTO t VALUES ('b', 'x')")
    d.close()

    d2 = Database(path)
    indexes = d2.execute(
        "SELECT name FROM sqlite_master WHERE type = 'index' AND tbl_name = 't'"
    ).rows
    assert {"name": "t_by_grp"} in indexes
    assert d2.execute("SELECT COUNT(*) FROM t WHERE grp = 'x'").scalar() == 2
    d2.close()


def test_index_survives_checkpoint(tmp_path):
    path = tmp_path / "meta.db"
    d = Database(path)
    d.execute("CREATE TABLE t (k TEXT PRIMARY KEY, grp TEXT)")
    d.execute("CREATE INDEX t_by_grp ON t (grp)")
    d.execute("PRAGMA wal_checkpoint(TRUNCATE)")
    d.execute("INSERT INTO t VALUES ('a', 'q')")
    d.close()
    d2 = Database(path)
    assert d2.execute("SELECT k FROM t WHERE grp = 'q'").rows == [{"k": "a"}]
    d2.close()


def test_metadata_lookups_use_indexes():
    """Every per-operation keyed lookup the file system issues — attr,
    directory, distribution and replica rows by filename, intents by id
    — is an index SEARCH in sqlite's query plan, never a table SCAN."""
    from repro.core import DPFS, Hint

    fs = DPFS.memory(4)
    issued = []
    execute = fs.db.execute

    def record(sql, params=()):
        issued.append((sql, list(params)))
        return execute(sql, params)

    fs.db.execute = record
    fs.makedirs("/d")
    data = bytes(range(256)) * 32
    fs.write_file(
        "/d/f", data, Hint.linear(file_size=len(data), brick_size=1024, replicas=2)
    )
    assert fs.read_file("/d/f") == data
    fs.rename("/d/f", "/d/g")
    fs.remove("/d/g")
    del fs.db.execute

    keyed = re.compile(r"WHERE (filename|main_dir|intent_id|dist_id) = \?")
    searched = set()
    for sql, params in issued:
        if not keyed.search(sql):
            continue
        plan = [
            row["detail"]
            for row in fs.db.execute("EXPLAIN QUERY PLAN " + sql, params).rows
        ]
        assert plan and all(d.startswith("SEARCH ") for d in plan), (sql, plan)
        searched.update(d.split()[1] for d in plan)
    assert {
        "dpfs_file_attr",
        "dpfs_directory",
        "dpfs_file_distribution",
        "dpfs_file_replica",
        "dpfs_intent",
    } <= searched

"""Unit tests for the database engine: DDL, DML, SELECT features."""

import pytest

from repro.errors import ConstraintError, MetaDBError
from repro.metadb import Database


@pytest.fixture
def db():
    d = Database()
    d.execute(
        "CREATE TABLE files (name TEXT PRIMARY KEY, size INTEGER NOT NULL, "
        "level TEXT DEFAULT 'linear', meta JSON)"
    )
    d.execute("INSERT INTO files (name, size) VALUES ('a', 10), ('b', 20), ('c', 30)")
    return d


def test_create_duplicate_table_rejected(db):
    with pytest.raises(MetaDBError):
        db.execute("CREATE TABLE files (x INTEGER)")
    db.execute("CREATE TABLE IF NOT EXISTS files (x INTEGER)")  # no-op


def test_drop_table(db):
    db.execute("DROP TABLE files")
    with pytest.raises(MetaDBError):
        db.execute("SELECT * FROM files")
    with pytest.raises(MetaDBError):
        db.execute("DROP TABLE files")
    db.execute("DROP TABLE IF EXISTS files")  # no-op


def test_insert_and_select_star(db):
    rows = db.execute("SELECT * FROM files ORDER BY name").rows
    assert [r["name"] for r in rows] == ["a", "b", "c"]
    assert rows[0]["level"] == "linear"  # default applied
    assert rows[0]["meta"] is None


def test_insert_arity_mismatch_rejected(db):
    with pytest.raises(MetaDBError):
        db.execute("INSERT INTO files (name, size) VALUES (1, 2, 3)")


def test_primary_key_duplicate_rejected(db):
    with pytest.raises(ConstraintError):
        db.execute("INSERT INTO files (name, size) VALUES ('a', 99)")
    # table unchanged
    assert db.execute("SELECT COUNT(*) FROM files").scalar() == 3


def test_not_null_enforced(db):
    with pytest.raises(ConstraintError):
        db.execute("INSERT INTO files (name) VALUES ('d')")


def test_json_column_roundtrip():
    db = Database()
    db.execute("CREATE TABLE t (k TEXT, payload JSON)")
    value = {"bricks": [0, 4, 8], "nested": {"x": 1}}
    db.execute("INSERT INTO t VALUES ('a', ?)", [value])
    assert db.execute("SELECT payload FROM t").scalar() == value


def test_where_with_params(db):
    rows = db.execute("SELECT name FROM files WHERE size >= ?", [20]).rows
    assert sorted(r["name"] for r in rows) == ["b", "c"]


def test_update_with_expression(db):
    n = db.execute("UPDATE files SET size = size * 2 WHERE name != 'a'").rowcount
    assert n == 2
    assert db.execute("SELECT size FROM files WHERE name = 'b'").scalar() == 40
    assert db.execute("SELECT size FROM files WHERE name = 'a'").scalar() == 10


def test_update_unknown_column_rejected(db):
    with pytest.raises(MetaDBError):
        db.execute("UPDATE files SET nosuch = 1")


def test_update_pk_collision_rolls_back_row(db):
    with pytest.raises(ConstraintError):
        db.execute("UPDATE files SET name = 'a' WHERE name = 'b'")
    assert db.execute("SELECT COUNT(*) FROM files").scalar() == 3


def test_delete(db):
    assert db.execute("DELETE FROM files WHERE size < 25").rowcount == 2
    assert db.execute("SELECT COUNT(*) FROM files").scalar() == 1


def test_order_by_desc_and_limit(db):
    rows = db.execute("SELECT name FROM files ORDER BY size DESC LIMIT 2").rows
    assert [r["name"] for r in rows] == ["c", "b"]


def test_order_by_nulls():
    db = Database()
    db.execute("CREATE TABLE t (k TEXT, v INTEGER)")
    db.execute("INSERT INTO t VALUES ('a', 2), ('b', NULL), ('c', 1)")
    # POSTGRES convention (the paper's metadata DB): NULLs sort largest —
    # last ascending, first descending.  sqlite sorts them smallest, so a
    # query that needs the POSTGRES order says so.
    asc = [
        r["k"] for r in db.execute("SELECT k FROM t ORDER BY v NULLS LAST").rows
    ]
    assert asc == ["c", "a", "b"]
    desc = [
        r["k"]
        for r in db.execute("SELECT k FROM t ORDER BY v DESC NULLS FIRST").rows
    ]
    assert desc == ["b", "a", "c"]


def test_projection_with_alias_and_expression(db):
    rows = db.execute(
        "SELECT name, size * 2 AS double FROM files WHERE name = 'a'"
    ).rows
    assert rows == [{"name": "a", "double": 20}]


def test_distinct():
    db = Database()
    db.execute("CREATE TABLE t (v INTEGER)")
    db.execute("INSERT INTO t VALUES (1), (2), (1), (2), (3)")
    rows = db.execute("SELECT DISTINCT v FROM t ORDER BY v").rows
    assert [r["v"] for r in rows] == [1, 2, 3]


def test_count_star_and_count_column():
    db = Database()
    db.execute("CREATE TABLE t (v INTEGER)")
    db.execute("INSERT INTO t VALUES (1), (NULL), (2), (NULL), (2)")
    assert db.execute("SELECT COUNT(*) FROM t").scalar() == 5
    assert db.execute("SELECT COUNT(v) FROM t").scalar() == 3
    assert db.execute("SELECT COUNT(DISTINCT v) FROM t").scalar() == 2


def test_count_with_where(db):
    assert db.execute("SELECT COUNT(*) FROM files WHERE size > 15").scalar() == 2


def test_like_on_paths():
    db = Database()
    db.execute("CREATE TABLE d (p TEXT)")
    db.execute(
        "INSERT INTO d VALUES ('/home/a'), ('/home/b/c'), ('/tmp/x')"
    )
    rows = db.execute("SELECT p FROM d WHERE p LIKE '/home/%' ORDER BY p").rows
    assert [r["p"] for r in rows] == ["/home/a", "/home/b/c"]


def test_index_probe_matches_scan(db):
    # name is the PK → index path; result must equal a full scan
    by_index = db.execute("SELECT size FROM files WHERE name = 'b'").rows
    by_scan = db.execute("SELECT size FROM files WHERE name || '' = 'b'").rows
    assert by_index == by_scan == [{"size": 20}]


def test_index_probe_param(db):
    rows = db.execute("SELECT size FROM files WHERE name = ?", ["c"]).rows
    assert rows == [{"size": 30}]


def test_unique_constraint_via_index():
    db = Database()
    db.execute("CREATE TABLE t (a INTEGER UNIQUE, b TEXT)")
    db.execute("INSERT INTO t VALUES (1, 'x')")
    with pytest.raises(ConstraintError):
        db.execute("INSERT INTO t VALUES (1, 'y')")
    # NULLs are not constrained
    db.execute("INSERT INTO t VALUES (NULL, 'y')")
    db.execute("INSERT INTO t VALUES (NULL, 'z')")
    assert db.execute("SELECT COUNT(*) FROM t").scalar() == 3


def test_scalar_on_empty_result(db):
    assert db.execute("SELECT size FROM files WHERE name = 'zzz'").scalar() is None


def test_resultset_iteration(db):
    result = db.execute("SELECT name FROM files ORDER BY name")
    assert len(result) == 3
    assert [r["name"] for r in result] == ["a", "b", "c"]


def test_table_names(db):
    assert db.table_names() == ["files"]

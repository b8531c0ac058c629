"""GROUP BY / HAVING / SUM / MIN / MAX / AVG tests."""

import pytest

from repro.errors import MetaDBError
from repro.metadb import Database


@pytest.fixture
def db():
    d = Database()
    d.execute("CREATE TABLE files (name TEXT PRIMARY KEY, level TEXT, size INTEGER)")
    d.execute(
        "INSERT INTO files VALUES "
        "('/a', 'linear', 100), ('/b', 'linear', 300), "
        "('/c', 'multidim', 200), ('/d', 'multidim', 400), "
        "('/e', 'array', 50), ('/f', 'array', NULL)"
    )
    return d


def test_group_by_count(db):
    rows = db.execute(
        "SELECT level, COUNT(*) AS n FROM files GROUP BY level ORDER BY level"
    ).rows
    assert rows == [
        {"level": "array", "n": 2},
        {"level": "linear", "n": 2},
        {"level": "multidim", "n": 2},
    ]


def test_sum_min_max_avg(db):
    rows = db.execute(
        "SELECT level, SUM(size) AS total, MIN(size) AS lo, MAX(size) AS hi, "
        "AVG(size) AS mean FROM files GROUP BY level ORDER BY level"
    ).rows
    assert rows[1] == {
        "level": "linear", "total": 400, "lo": 100, "hi": 300, "mean": 200.0,
    }
    # NULL sizes are ignored: the 'array' group aggregates only 50
    assert rows[0]["total"] == 50 and rows[0]["mean"] == 50.0


def test_aggregate_without_group_by(db):
    assert db.execute("SELECT SUM(size) FROM files").scalar() == 1050
    assert db.execute("SELECT MIN(size) FROM files").scalar() == 50
    assert db.execute("SELECT AVG(size) FROM files").scalar() == 210.0


def test_aggregate_over_empty_is_null(db):
    assert db.execute(
        "SELECT SUM(size) FROM files WHERE level = 'zzz'"
    ).scalar() is None
    # but COUNT over empty is 0, and an empty table still yields one row
    assert db.execute(
        "SELECT COUNT(*) FROM files WHERE level = 'zzz'"
    ).scalar() == 0


def test_having_filters_groups(db):
    rows = db.execute(
        "SELECT level, SUM(size) AS s FROM files "
        "GROUP BY level HAVING SUM(size) > 100 ORDER BY s DESC"
    ).rows
    assert [r["level"] for r in rows] == ["multidim", "linear"]


def test_having_with_count(db):
    db.execute("INSERT INTO files VALUES ('/g', 'linear', 10)")
    rows = db.execute(
        "SELECT level FROM files GROUP BY level HAVING COUNT(*) >= 3"
    ).rows
    assert rows == [{"level": "linear"}]


def test_aggregate_in_arithmetic(db):
    value = db.execute(
        "SELECT MAX(size) - MIN(size) AS spread FROM files"
    ).scalar()
    assert value == 350


def test_sum_distinct(db):
    db.execute("INSERT INTO files VALUES ('/dup', 'linear', 100)")
    assert db.execute("SELECT SUM(size) FROM files").scalar() == 1150
    assert db.execute("SELECT SUM(DISTINCT size) FROM files").scalar() == 1050


def test_group_by_expression(db):
    rows = db.execute(
        "SELECT size / 100.0 AS bucket, COUNT(*) AS n FROM files "
        "WHERE size IS NOT NULL GROUP BY size / 100.0 ORDER BY bucket"
    ).rows
    assert rows[0]["bucket"] == 0.5 and rows[0]["n"] == 1


def test_group_by_with_where(db):
    rows = db.execute(
        "SELECT level, COUNT(*) AS n FROM files WHERE size >= 200 "
        "GROUP BY level ORDER BY level"
    ).rows
    assert rows == [
        {"level": "linear", "n": 1},
        {"level": "multidim", "n": 2},
    ]


def test_limit_applies_to_groups(db):
    rows = db.execute(
        "SELECT level, COUNT(*) AS n FROM files GROUP BY level "
        "ORDER BY level LIMIT 2"
    ).rows
    assert len(rows) == 2


def test_sum_star_rejected(db):
    with pytest.raises(MetaDBError):
        db.execute("SELECT SUM(*) FROM files")


def test_min_max_on_text(db):
    assert db.execute("SELECT MIN(name) FROM files").scalar() == "/a"
    assert db.execute("SELECT MAX(name) FROM files").scalar() == "/f"

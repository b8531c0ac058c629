"""Durability point of a file database: a transaction is on disk when
COMMIT returns.  A child process commits one transaction, leaves a
second open and dies with ``os._exit`` (no close, no checkpoint); the
reopened database must hold the first and not the second."""

import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.metadb import Database

CHILD = """
import os
import sys
from repro.metadb import Database

db = Database(sys.argv[1])
db.execute("CREATE TABLE t (k TEXT PRIMARY KEY, v JSON)")
with db.transaction():
    db.execute("INSERT INTO t VALUES ('committed', ?)", [[1, 2]])
    db.execute("INSERT INTO t VALUES ('also-committed', ?)", [{"x": 1}])
db.begin()
db.execute("INSERT INTO t VALUES ('open', ?)", [[3]])
db.execute("DELETE FROM t WHERE k = 'committed'")
os._exit(0)
"""


def test_committed_survives_process_death_open_does_not(tmp_path):
    path = tmp_path / "meta.db"
    env = dict(
        os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1])
    )
    subprocess.run(
        [sys.executable, "-c", CHILD, str(path)], env=env, check=True, timeout=60
    )
    # the child never closed, so the committed rows live in sqlite's WAL
    assert (tmp_path / "meta.db-wal").stat().st_size > 0

    db = Database(path)
    rows = db.execute("SELECT k, v FROM t ORDER BY k").rows
    assert rows == [
        {"k": "also-committed", "v": {"x": 1}},
        {"k": "committed", "v": [1, 2]},
    ]
    db.close()


def test_file_database_syncs_every_commit(tmp_path):
    db = Database(tmp_path / "meta.db")
    assert db.execute("PRAGMA journal_mode").scalar() == "wal"
    assert db.execute("PRAGMA synchronous").scalar() == 2  # FULL
    db.close()

"""Durable-commit and statement budgets per mutation.

A durable commit is an explicit COMMIT, or a row-changing statement
that runs outside a transaction and so commits on its own; on a file
database each one is a WAL fsync.  Budgets: create 1, also with its
first write, remove 2, rename 1, grow 1 (also as part of a write);
a read and a write within the file commit nothing.

Statements (BEGIN and COMMIT included) of a one-brick file on four
servers: create + 4 KiB write 6, rename 4, remove 8, open 1.
"""

import pytest

from repro.backends.memory import MemoryBackend
from repro.core import DPFS, Hint
from repro.core.brick import subfile_names
from repro.metadb import Database

BRICK = 512
DATA = bytes(range(256)) * 8  # 4 bricks
_WRITES = ("INSERT", "UPDATE", "DELETE", "REPLACE")


class CountingDatabase(Database):
    """A :class:`Database` that counts its statements and durable commits."""

    commits = 0
    statements = 0

    def execute(self, sql, params=()):
        autocommit = not self.in_transaction
        self.statements += 1
        result = super().execute(sql, params)
        if sql == "COMMIT" or (
            autocommit and sql.lstrip().upper().startswith(_WRITES)
        ):
            self.commits += 1
        return result


@pytest.fixture
def fs():
    db = CountingDatabase()
    fs = DPFS(MemoryBackend(4), db, io_workers=1)
    fs.makedirs("/d")
    fs.write_file(
        "/d/f", DATA, Hint.linear(file_size=len(DATA), brick_size=BRICK, replicas=2)
    )
    return fs


def commits(fs, fn, *args):
    before = fs.db.commits
    fn(*args)
    return fs.db.commits - before


def test_create_with_its_first_write_commits_once(fs):
    hint = Hint.linear(file_size=len(DATA), brick_size=BRICK)
    assert commits(fs, lambda: fs.open("/d/g", "w", hint=hint).close()) == 1
    assert commits(fs, fs.write_file, "/d/h", DATA, hint) == 1


def test_remove_commits_twice(fs):
    assert commits(fs, fs.remove, "/d/f") == 2


def test_rename_commits_once(fs):
    assert commits(fs, fs.rename, "/d/f", "/d/g") == 1


def test_grow_commits_once(fs):
    """A growing write costs grow's one transaction; a write within the
    file commits nothing."""
    with fs.open("/d/f", "r+") as handle:
        assert commits(fs, handle.write, 0, DATA[:BRICK]) == 0
        assert commits(fs, handle.write, len(DATA), DATA[:BRICK]) == 1


def test_refill_commits_twice(fs):
    record, _ = fs.meta.load_file("/d/f")
    rmap = fs.meta.load_replica_map(record)
    server = next(s for s in range(4) if rmap.bricklists[s])
    fs.backend.delete_subfile(server, subfile_names(record.file_id)[1])
    assert commits(fs, fs.refill_replica_subfile, "/d/f", server) == 2


def test_read_commits_nothing(fs):
    assert commits(fs, fs.read_file, "/d/f") == 0


def statements(fs, fn, *args):
    before = fs.db.statements
    fn(*args)
    return fs.db.statements - before


def test_one_brick_file_statement_budgets(fs):
    small = bytes(4096)
    hint = Hint.linear(file_size=len(small), brick_size=len(small))
    assert statements(fs, fs.write_file, "/d/s", small, hint) <= 6
    assert statements(fs, lambda: fs.open("/d/s", "r").close()) <= 1
    assert statements(fs, fs.rename, "/d/s", "/d/t") <= 4
    assert statements(fs, fs.remove, "/d/t") <= 8

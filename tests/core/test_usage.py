"""Per-server usage counters (``dpfs_server.used``).

Create, grow and remove keep each server's ``used`` counter inside
their own transactions, so ``server_usage()`` reads one row per server.
The recount over every bricklist (``fsck.usage_oracle``) is the oracle:
after any sequence of mutations the two must agree.  The same steps,
with ``mkdir`` and ``rmdir`` mixed in, hold every directory's
``listdir`` to a model of the live paths.
"""

import posixpath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DPFS, Hint, fsck
from repro.core.fsck import usage_oracle
from repro.errors import DirectoryNotEmpty
from repro.metadb import Database

BRICK = 256
NAMES = ["/a", "/b", "/d/c", "/e/f"]

# the dpfs_server table as roots written before the usage counter have it
_OLD_SERVER_DDL = (
    "CREATE TABLE dpfs_server ("
    " server_id INTEGER PRIMARY KEY,"
    " server_name TEXT NOT NULL UNIQUE,"
    " capacity INTEGER NOT NULL,"
    " performance REAL NOT NULL)"
)

steps = st.lists(
    st.tuples(
        # mkdir / rmdir act on the sampled path's directory
        st.sampled_from(["create", "grow", "rename", "remove", "mkdir", "rmdir"]),
        st.sampled_from(NAMES),
        st.sampled_from(NAMES),
        st.integers(min_value=1, max_value=4),  # bricks
        st.sampled_from([1, 2]),  # replicas
    ),
    min_size=1,
    max_size=12,
)


def _apply(fs, dirs, files, op, path, other, bricks, replicas):
    """One step on ``fs`` and on the model (``dirs``, ``files``)."""
    parent = posixpath.dirname(path)
    if op == "create" and path not in files and parent in dirs:
        size = bricks * BRICK
        fs.write_file(
            path,
            bytes(size),
            Hint.linear(file_size=size, brick_size=BRICK, replicas=replicas),
        )
        files.add(path)
    elif op == "grow" and path in files:
        with fs.open(path, "r+") as handle:
            handle.write(handle.size + (bricks - 1) * BRICK, b"g" * BRICK)
    elif (
        op == "rename"
        and path in files
        and other not in files
        and posixpath.dirname(other) in dirs
    ):
        fs.rename(path, other)
        files.remove(path)
        files.add(other)
    elif op == "remove" and path in files:
        fs.remove(path)
        files.remove(path)
    elif op == "mkdir" and parent not in dirs:
        fs.mkdir(parent)
        dirs.add(parent)
    elif op == "rmdir" and parent in dirs - {"/"}:
        if any(posixpath.dirname(f) == parent for f in files):
            with pytest.raises(DirectoryNotEmpty):
                fs.rmdir(parent)
        else:
            fs.rmdir(parent)
            dirs.remove(parent)


def _children(paths, directory):
    return sorted(
        posixpath.basename(p)
        for p in paths
        if p != "/" and posixpath.dirname(p) == directory
    )


@settings(max_examples=40, deadline=None)
@given(ops=steps)
def test_usage_counters_match_the_bricklists_after_every_step(ops):
    fs = DPFS.memory(n_servers=3, io_workers=1)
    fs.makedirs("/d")
    dirs, files = {"/", "/d"}, set()
    for op in ops:
        _apply(fs, dirs, files, *op)
        assert fs.meta.server_usage() == usage_oracle(fs.meta), op
        for directory in dirs:
            assert fs.listdir(directory) == (
                _children(dirs, directory),
                _children(files, directory),
            ), op
    assert fsck(fs, deep=False).clean


def test_usage_counts_replica_bricks_in_full():
    fs = DPFS.memory(n_servers=3)
    hint = Hint.linear(file_size=4 * BRICK, brick_size=BRICK, replicas=2)
    fs.write_file("/r", bytes(4 * BRICK), hint)
    assert sum(fs.meta.server_usage().values()) == 2 * 4 * BRICK
    fs.remove("/r")
    assert set(fs.meta.server_usage().values()) == {0}


def test_fsck_reports_and_repairs_usage_drift():
    fs = DPFS.memory(n_servers=3)
    hint = Hint.linear(file_size=3 * BRICK, brick_size=BRICK)
    fs.write_file("/f", bytes(3 * BRICK), hint)
    fs.db.execute("UPDATE dpfs_server SET used = used + 7 WHERE server_id = 1")
    report = fsck(fs, deep=False)
    (finding,) = report.findings
    assert finding.kind == "usage-drift" and not finding.repaired
    assert finding.path == fs.servers()[1]["server_name"]
    repaired = fsck(fs, repair=True, deep=False)
    assert [f.kind for f in repaired.findings] == ["usage-drift"]
    assert repaired.findings[0].repaired
    assert fsck(fs, deep=False).clean
    assert fs.meta.server_usage() == {0: BRICK, 1: BRICK, 2: BRICK}


def test_root_without_usage_column_is_filled_once_at_mount(tmp_path):
    """A root written before ``dpfs_server.used`` existed gains the
    column on its next mount, filled from the bricklists."""
    root = tmp_path / "root"
    with DPFS.local(root, n_servers=3) as fs:
        fs.makedirs("/d")
        hint = Hint.linear(file_size=5 * BRICK, brick_size=BRICK)
        fs.write_file("/d/x", b"x" * 5 * BRICK, hint)
        fs.write_file(
            "/y",
            b"y" * 2 * BRICK,
            Hint.linear(file_size=2 * BRICK, brick_size=BRICK, replicas=2),
        )
        expected = fs.meta.server_usage()
    assert sum(expected.values()) == 9 * BRICK
    # rewrite the table as the older schema left it
    db = Database(root / "dpfs.meta")
    db.execute("ALTER TABLE dpfs_server RENAME TO dpfs_server_new")
    db.execute(_OLD_SERVER_DDL)
    db.execute(
        "INSERT INTO dpfs_server SELECT server_id, server_name, capacity,"
        " performance FROM dpfs_server_new"
    )
    db.execute("DROP TABLE dpfs_server_new")
    db.close()

    with DPFS.local(root, n_servers=3) as fs:
        assert fs.meta.server_usage() == expected
        assert fsck(fs).clean
        fs.remove("/d/x")
        assert fs.meta.server_usage() == usage_oracle(fs.meta)
    with DPFS.local(root, n_servers=3) as fs:
        assert sum(fs.meta.server_usage().values()) == 4 * BRICK


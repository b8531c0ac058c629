"""A file's subfiles exist exactly on the servers that hold a
distribution or replica row for it, and create, grow, remove and their
recovery reach only those servers (rename reaches none).

A file written by an older build has a distribution row, perhaps
empty, and a primary subfile on every server (and, replicated, a
replica subfile on every server); the same rule keeps its all-server
fan-out.
"""

import json
from collections import Counter
from dataclasses import replace

import pytest

from repro.backends.faulty import FaultyBackend
from repro.backends.memory import MemoryBackend
from repro.core import DPFS, Hint, fsck
from repro.core.brick import subfile_names
from repro.errors import (
    ConstraintError,
    FileExists,
    FileNotFound,
    MetaDBError,
    MultiServerError,
)
from repro.metadb import Database

BRICK = 4096
DATA = bytes(range(256)) * 16  # one brick


def count_calls(backend):
    """Count the backend's subfile create / delete / rename calls by
    (op, server)."""
    calls = Counter()
    for op in ("create", "delete", "rename"):
        real = getattr(backend, f"{op}_subfile")

        def counted(server, *args, real=real, op=op):
            calls[op, server] += 1
            return real(server, *args)

        setattr(backend, f"{op}_subfile", counted)
    return calls


def lhint(size, replicas=1):
    return Hint.linear(file_size=size, brick_size=BRICK, replicas=replicas)


def subfiles(fs):
    """Every (server, subfile name) on the backend."""
    return {
        (server, name)
        for server in range(fs.backend.n_servers)
        for name in fs.backend.list_subfiles(server)
    }


def names(fs, path):
    """The (primary, replica) subfile names of the file at ``path``."""
    return subfile_names(fs.meta.load_file(path)[0].file_id)


def rows(fs, table, path):
    return {
        row["server_name"]: row["bricklist"]
        for row in fs.db.execute(
            f"SELECT server_name, bricklist FROM {table} WHERE file_id ="
            " (SELECT file_id FROM dpfs_file_attr WHERE filename = ?)",
            [path],
        )
    }


def row_servers(fs, table, path):
    names = rows(fs, table, path)
    return {s for s, name in enumerate(fs._server_names) if name in names}


def pooled_batches(fs):
    stats = fs.dispatcher.stats
    return stats.batches - stats.inline_batches


@pytest.fixture(params=["memory", "local"])
def fs(request, tmp_path):
    if request.param == "memory":
        fs = DPFS.memory(4, io_workers=2)
    else:
        fs = DPFS.local(tmp_path, 4, io_workers=2)
    yield fs
    fs.close()


def test_one_brick_file_lives_on_one_server(fs):
    fs.makedirs("/d")
    inline, pooled = fs.dispatcher.stats.inline_batches, pooled_batches(fs)
    fs.write_file("/d/f", DATA, lhint(len(DATA)))
    assert subfiles(fs) == {(0, names(fs, "/d/f")[0])}
    assert rows(fs, "dpfs_file_distribution", "/d/f") == {fs._server_names[0]: [0]}
    assert fs.dispatcher.stats.inline_batches > inline
    assert pooled_batches(fs) == pooled
    fs.remove("/d/f")
    assert subfiles(fs) == set()
    assert pooled_batches(fs) == pooled
    assert fsck(fs).clean


def test_one_brick_create_and_remove_call_one_server(fs):
    calls = count_calls(fs.backend)
    fs.write_file("/f", DATA, lhint(len(DATA)))
    assert calls == {("create", 0): 1}
    calls.clear()
    fs.remove("/f")
    assert set(calls) == {("delete", 0)}
    assert pooled_batches(fs) == 0


def test_growing_onto_a_new_server_adds_its_row_and_subfile(fs):
    fs.write_file("/f", DATA, lhint(len(DATA)))
    with fs.open("/f", "r+") as handle:
        handle.write(len(DATA), DATA)  # brick 1 lands on server 1
    name, _ = names(fs, "/f")
    assert subfiles(fs) == {(0, name), (1, name)}
    assert row_servers(fs, "dpfs_file_distribution", "/f") == {0, 1}
    assert fs.read_file("/f") == DATA * 2
    assert fsck(fs).clean
    fs.remove("/f")
    assert subfiles(fs) == set()


def _fail_subfile_create_on_server_1(fs):
    fs.backend.fail_on("create", server=1)


def _fail_grow_commit_once(fs):
    def fail_once(*args):
        del fs.meta.grow_file  # the class's method again
        raise MetaDBError("injected grow commit fault")

    fs.meta.grow_file = fail_once


@pytest.mark.parametrize(
    "fault, error",
    [
        (_fail_subfile_create_on_server_1, MultiServerError),
        (_fail_grow_commit_once, MetaDBError),
    ],
)
def test_failed_grow_leaves_the_handle_as_it_was(fault, error):
    """A grow that fails before its commit changes nothing the handle
    holds, so the same write on the same handle, retried, grows the
    file and commits every row it needs."""
    fs = DPFS(FaultyBackend(MemoryBackend(4)), auto_recover=False)
    fs.write_file("/f", DATA, lhint(len(DATA)))
    with fs.open("/f", "r+") as handle:
        fault(fs)
        with pytest.raises(error):
            handle.write(len(DATA), DATA)  # brick 1 lands on server 1
        assert handle.size == len(DATA)
        assert handle.brick_map.to_lists() == [[0], [], [], []]
        assert fs.stat("/f")["size"] == len(DATA)
        fs.backend.heal()
        handle.write(len(DATA), DATA)
    assert fs.stat("/f")["size"] == 2 * len(DATA)
    assert rows(fs, "dpfs_file_distribution", "/f") == {
        fs._server_names[0]: [0],
        fs._server_names[1]: [1],
    }
    assert fs.read_file("/f") == DATA * 2
    assert fsck(fs).clean
    fs.remove("/f")
    assert subfiles(fs) == set()


def test_fsck_reports_a_subfile_on_a_server_without_a_row(fs):
    fs.write_file("/f", DATA, lhint(len(DATA)))  # server 0 only
    name, rname = names(fs, "/f")
    fs.backend.create_subfile(3, name)
    fs.backend.create_subfile(0, rname)
    report = fsck(fs)
    assert sorted(f.detail for f in report.by_kind("orphan-subfile")) == [
        "server 0 holds a subfile but no row of its file",
        "server 3 holds a subfile but no row of its file",
    ]
    assert len(report.findings) == 2
    fsck(fs, repair=True)
    assert subfiles(fs) == {(0, name)}
    assert fs.read_file("/f") == DATA
    assert fsck(fs).clean


def test_create_file_maps_only_its_own_constraint_failures(fs):
    fs.write_file("/f", DATA, lhint(len(DATA)))
    record, bmap = fs.meta.load_file("/f")
    names = fs._server_names
    with pytest.raises(FileExists):
        fs.meta.create_file(record, bmap, names)
    with pytest.raises(FileNotFound, match="no such directory: /nodir"):
        fs.meta.create_file(replace(record, path="/nodir/g"), bmap, names)
    with pytest.raises(ConstraintError, match="NOT NULL"):
        fs.meta.create_file(replace(record, path="/g", owner=None), bmap, names)
    assert not fs.meta.file_exists("/g")


def test_create_loser_deletes_only_subfiles_the_winner_does_not_hold():
    """The losing create of a race keeps the winner's subfiles and
    leaves none of its own elsewhere: the winner commits after the
    loser planned bricks on servers 0-2, so the loser's insert is
    refused before it makes (and so before it could delete) any
    subfile."""
    db = Database()
    backend = MemoryBackend(4)
    fs = DPFS(backend, db, auto_recover=False)
    winner = DPFS(backend, db, auto_recover=False)
    real = fs._check_capacity

    def plan_then_lose(brick_map, replica_map=None):
        real(brick_map, replica_map)
        winner.write_file("/f", DATA, lhint(len(DATA)))  # server 0 only

    fs._check_capacity = plan_then_lose
    with pytest.raises(FileExists):
        fs.write_file("/f", DATA * 3, lhint(3 * len(DATA)))  # servers 0-2
    del fs._check_capacity
    assert subfiles(fs) == {(0, names(fs, "/f")[0])}
    assert fs.read_file("/f") == DATA
    assert fs.intents.pending() == []
    fs.remove("/f")
    assert subfiles(fs) == set()


def test_replica_subfile_only_on_replica_row_servers(fs):
    fs.write_file("/f", DATA, lhint(len(DATA), replicas=2))
    primary = row_servers(fs, "dpfs_file_distribution", "/f")
    replica = row_servers(fs, "dpfs_file_replica", "/f")
    name, rname = names(fs, "/f")
    held = {(s, name) for s in primary} | {(s, rname) for s in replica}
    assert subfiles(fs) == held
    assert len(primary) == len(replica) == 1 and primary != replica
    fs.rename("/f", "/g")
    assert subfiles(fs) == held
    assert fs.read_file("/g") == DATA
    assert fsck(fs).clean
    fs.remove("/g")
    assert subfiles(fs) == set()


def _make_legacy(fs, path, replicated):
    """Give ``path`` what an older build wrote: a distribution row on
    every server (empty where it holds no brick), a primary subfile on
    every server, a replica subfile on every server if replicated, and
    geometry JSON with its ``None`` keys and default separators."""
    file_id = fs.meta.load_file(path)[0].file_id
    name, rname = subfile_names(file_id)
    for server, server_name in enumerate(fs._server_names):
        fs.db.execute(
            "INSERT INTO dpfs_file_distribution VALUES (?, ?, ?)"
            " ON CONFLICT (file_id, server_name) DO NOTHING",
            [file_id, server_name, []],
        )
        fs.backend.create_subfile(server, name)
        if replicated:
            fs.backend.create_subfile(server, rname)
    geometry = fs.stat(path)["geometry"]
    for key in ("array_shape", "brick_shape", "pattern", "nprocs", "pgrid"):
        geometry.setdefault(key, None)
    fs.db.execute(
        "UPDATE dpfs_file_attr SET geometry = ? WHERE filename = ?",
        [json.dumps(geometry), path],
    )


@pytest.mark.parametrize("replicas", [1, 2])
def test_legacy_file_renames_and_removes_on_every_server(fs, replicas):
    fs.write_file("/old", DATA, lhint(len(DATA), replicas=replicas))
    _make_legacy(fs, "/old", replicated=replicas > 1)
    held = set(names(fs, "/old")[:replicas])
    assert subfiles(fs) == {(s, n) for s in range(4) for n in held}
    assert fsck(fs).clean
    fs.rename("/old", "/new")
    assert subfiles(fs) == {(s, n) for s in range(4) for n in held}
    assert fs.read_file("/new") == DATA
    assert fsck(fs).by_kind("orphan-subfile") == []
    fs.remove("/new")
    assert subfiles(fs) == set()
    assert fsck(fs).clean


def test_legacy_geometry_and_spaced_json_stay_readable(fs):
    fs.write_file("/f", DATA, lhint(len(DATA)))
    _make_legacy(fs, "/f", replicated=False)
    record, bmap = fs.meta.load_file("/f")
    assert record.array_shape is None and record.pattern is None
    assert bmap.to_lists() == [[0], [], [], []]
    assert fs.read_file("/f") == DATA
    with fs.open("/f", "r+") as handle:
        handle.write(len(DATA), DATA)  # grows onto server 1's empty row
    assert fs.read_file("/f") == DATA * 2
    assert fsck(fs).clean


def test_stored_json_is_compact(fs):
    fs.write_file("/f", DATA, lhint(len(DATA)))
    raw = fs.db.execute(
        "SELECT CAST(geometry AS BLOB) FROM dpfs_file_attr"
    ).scalar()
    assert b", " not in raw and b": " not in raw
    assert None not in json.loads(raw).values()

"""Create's one transaction against concurrent mounts and fsck.

A create inserts its rows, charges its servers' ``used`` counters (a
charge that refuses a server without room), and makes its subfiles, all
before its COMMIT, holding sqlite's write lock from the start.  So:

- fsck never deletes the subfiles of a create in flight on another
  connection: its orphan pass looks each candidate up again under the
  write lock;
- mounts racing for a server's last free bytes produce exactly one
  winner;
- a create refused for capacity leaves no row, no subfile and no
  charge;
- a create that rolls back leaves only empty subfiles, and the next
  create, handed the same id, takes any of them on its servers as its
  own.
"""

import sys
import threading

import pytest

from repro.backends.faulty import FaultyBackend
from repro.backends.memory import MemoryBackend
from repro.core import DPFS, Hint, fsck
from repro.core.brick import subfile_names
from repro.errors import FileSystemError, MultiServerError

BRICK = 512
DATA = bytes(range(256)) * 2  # one brick


def lhint(size):
    return Hint.linear(file_size=size, brick_size=BRICK)


def subfiles(backend, n):
    return {(s, name) for s in range(n) for name in backend.list_subfiles(s)}


def test_fsck_spares_the_subfiles_of_a_create_in_flight(tmp_path):
    """fsck on one connection runs while a create on another has made
    its subfiles but not committed: the orphan pass waits for the
    create's write lock, then finds its rows."""
    creator = DPFS.local(tmp_path, 2)
    checker = DPFS.local(tmp_path, 2)
    made, release, checking = threading.Event(), threading.Event(), threading.Event()
    real_make, real_begin = creator._redo_create_subfiles, checker.db.begin

    def make_then_hold(*args):
        real_make(*args)
        made.set()
        assert release.wait(10)

    def begin(*args):
        if made.is_set():  # the orphan pass, about to wait for the lock
            checking.set()
        real_begin(*args)

    creator._redo_create_subfiles = make_then_hold
    checker.db.begin = begin
    create = threading.Thread(
        target=creator.write_file, args=("/f", DATA, lhint(BRICK))
    )
    create.start()
    try:
        assert made.wait(10)
        reports = []
        check = threading.Thread(
            target=lambda: reports.append(fsck(checker, repair=True))
        )
        check.start()
        checking.wait(5)  # times out only if fsck never asks for the lock
    finally:
        release.set()
        create.join(10)
    check.join(10)
    assert not create.is_alive() and not check.is_alive()
    assert reports and reports[0].clean, reports
    assert checker.read_file("/f") == DATA
    assert fsck(checker).clean
    creator.close()
    checker.close()


def test_over_capacity_create_is_refused_inside_its_transaction():
    fs = DPFS.memory(2, capacity=2 * BRICK)
    fs.write_file("/a", DATA * 2, lhint(2 * BRICK))  # one brick per server
    used = fs.meta.server_usage()
    before = subfiles(fs.backend, 2)
    statements = []
    real = fs.db.execute

    def execute(sql, params=()):
        statements.append(sql)
        return real(sql, params)

    fs.db.execute = execute
    with pytest.raises(
        FileSystemError,
        match=rf"server 0 \(mem0\) lacks capacity: {3 * BRICK} > {2 * BRICK} bytes",
    ):
        fs.write_file("/b", DATA * 3, lhint(3 * BRICK))  # two bricks on server 0
    del fs.db.execute
    # refused by the charge, between BEGIN and ROLLBACK: nothing read it first
    assert statements[0] == "BEGIN IMMEDIATE" and statements[-1] == "ROLLBACK"
    assert not fs.exists("/b")
    assert subfiles(fs.backend, 2) == before
    assert fs.meta.server_usage() == used
    assert fsck(fs).clean


def test_mounts_racing_for_the_last_free_bytes_produce_one_winner(tmp_path):
    """Every create plans before any charges: the conditional charge
    lets the first COMMIT win and refuses the others."""
    mounts = [DPFS.local(tmp_path, 1, capacity=3 * BRICK) for _ in range(4)]
    mounts[0].write_file("/base", DATA, lhint(BRICK))
    planned = threading.Barrier(len(mounts))
    outcomes = {}
    for fs in mounts:
        real = fs._plan_create

        def plan_then_wait(norm, hint, real=real):
            result = real(norm, hint)
            planned.wait(10)
            return result

        fs._plan_create = plan_then_wait

    def create(i):
        try:
            mounts[i].write_file(f"/f{i}", DATA * 2, lhint(2 * BRICK))
            outcomes[i] = "won"
        except FileSystemError as exc:
            outcomes[i] = str(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=create, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    refused = (
        f"server 0 (local:server_0) lacks capacity: {5 * BRICK} > {3 * BRICK} bytes"
    )
    assert sorted(outcomes.values()) == [refused] * 3 + ["won"], outcomes
    fs = mounts[0]
    assert fs.meta.server_usage() == {0: 3 * BRICK}
    assert len(subfiles(fs.backend, 1)) == 2
    assert fsck(fs).clean
    for fs in mounts:
        fs.close()


def test_a_reused_id_takes_an_empty_leftover_subfile():
    """sqlite hands a rolled-back create's id to the next create; an
    empty subfile the first one left on a server the second also uses
    becomes the second's, and reads and fsck see nothing amiss."""
    faulty = FaultyBackend(MemoryBackend(4))
    fs = DPFS(faulty, io_workers=1)
    faulty.fail_next("create", server=1)
    with pytest.raises(MultiServerError):
        fs.write_file("/doomed", DATA * 2, lhint(2 * BRICK))  # servers 0-1
    ((server, leftover),) = subfiles(faulty, 4)
    assert server == 0 and faulty.subfile_size(0, leftover) == 0
    fs.write_file("/f", DATA, lhint(BRICK))  # server 0
    record, _ = fs.meta.load_file("/f")
    assert subfile_names(record.file_id)[0] == leftover
    assert fs.read_file("/f") == DATA
    assert fsck(fs).clean

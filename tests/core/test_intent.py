"""Unit tests for the write-ahead intent journal and recovery engine,
plus regressions for the fan-out error aggregation and the per-path
CRC-lock map eviction that rode along with crash consistency."""

import pytest

from repro.backends.faulty import FaultyBackend, InjectedFault
from repro.backends.memory import MemoryBackend
from repro.core import DPFS, Hint, fsck
from repro.core.intent import IntentLog
from repro.errors import FileExists, FileNotFound, IntentError, MultiServerError
from repro.metadb import Database

BRICK = 1024


def lhint(size):
    return Hint.linear(file_size=size, brick_size=BRICK)


# ---------------------------------------------------------------------------
# IntentLog
# ---------------------------------------------------------------------------

def test_begin_persists_and_pending_roundtrips():
    log = IntentLog(Database())
    intent = log.begin(
        "rename",
        {"old": "/a", "new": "/b"},
        steps=["rekey-metadata", "rename-subfiles"],
        commit_step="rekey-metadata",
    )
    assert intent.intent_id == "i00000001"
    (got,) = log.pending()
    assert got.op == "rename"
    assert got.args == {"old": "/a", "new": "/b"}
    assert got.steps == ["rekey-metadata", "rename-subfiles"]
    assert got.done == []
    assert got.commit_step == "rekey-metadata"
    assert got.path == "/a"


def test_mark_and_retire():
    log = IntentLog(Database())
    intent = log.begin("remove", {"path": "/f"}, ["a", "b"], "a")
    assert not intent.committed
    log.mark(intent, "a")
    (got,) = log.pending()
    assert got.done == ["a"]
    assert got.committed
    log.retire(intent)
    assert log.pending() == []
    log.retire(intent)  # idempotent


def test_ids_are_sequential_and_survive_retire():
    log = IntentLog(Database())
    first = log.begin("remove", {"path": "/a"}, ["s"], "s")
    second = log.begin("remove", {"path": "/b"}, ["s"], "s")
    assert [i.intent_id for i in log.pending()] == [
        first.intent_id,
        second.intent_id,
    ]
    log.retire(first)
    third = log.begin("remove", {"path": "/c"}, ["s"], "s")
    assert third.intent_id > second.intent_id


def test_empty_commit_step_always_rolls_forward():
    log = IntentLog(Database())
    intent = log.begin("refill", {"path": "/f", "server": 1}, ["copy"], "")
    assert intent.committed  # forward even with no steps done


def test_bad_commit_step_rejected():
    log = IntentLog(Database())
    with pytest.raises(IntentError):
        log.begin("remove", {"path": "/f"}, ["a"], "nonexistent-step")


def test_mark_unknown_step_rejected():
    log = IntentLog(Database())
    intent = log.begin("remove", {"path": "/f"}, ["a"], "a")
    with pytest.raises(IntentError):
        log.mark(intent, "b")


def test_journal_survives_reopen(tmp_path):
    meta = tmp_path / "meta.db"
    log = IntentLog(Database(meta))
    log.begin("remove", {"path": "/f"}, ["a"], "a")
    log.db.close()
    reopened = IntentLog(Database(meta))
    (got,) = reopened.pending()
    assert got.op == "remove" and got.path == "/f"


# ---------------------------------------------------------------------------
# recovery engine plumbing
# ---------------------------------------------------------------------------

def test_unknown_intent_op_reported_stuck_not_raised():
    fs = DPFS.memory(n_servers=2)
    fs.intents.begin("frobnicate", {"path": "/x"}, ["s"], "")
    report = fs.recover()
    assert not report.clean
    (action,) = report.stuck
    assert "unknown intent op" in action.detail
    # the intent is kept for a smarter future sweep
    assert len(fs.intents.pending()) == 1


def test_recovery_failure_keeps_intent_and_continues_sweep():
    backend = FaultyBackend(MemoryBackend(2))
    fs = DPFS(backend, io_workers=1)
    fs.write_file("/keep", b"k" * 64)
    # two pending intents: the first will fail (delete fault), the
    # second succeeds — the sweep must process both
    fs.intents.begin("remove", {"path": "/gone-a"}, ["remove-metadata"], "")
    fs.intents.begin(
        "create",
        {"path": "/gone-b"},
        ["create-subfiles", "write-metadata"],
        "write-metadata",  # not reached -> rolls back
    )
    backend.fail_next("delete", times=1, server=0)
    report = fs.recover()
    assert len(report.actions) == 2
    assert len(report.stuck) == 1
    assert len(report.recovered) == 1
    assert len(fs.intents.pending()) == 1
    backend.heal()
    assert fs.recover().clean
    assert fs.intents.pending() == []


def test_mount_time_recovery_runs_by_default():
    db = Database()
    backend = MemoryBackend(2)
    fs = DPFS(backend, db, auto_recover=False)
    fs.intents.begin("remove", {"path": "/ghost"}, ["remove-metadata"], "")
    # age the intent past any grace period: its client is long dead
    db.execute("UPDATE dpfs_intent SET created_at = 0.0")
    fs2 = DPFS(backend, db)
    assert fs2.last_recovery is not None
    assert len(fs2.last_recovery.actions) == 1
    assert fs2.intents.pending() == []


def test_mount_time_recovery_spares_fresh_intents():
    """A second mount over a shared metadata database must not roll
    back an intent a *live* client journalled moments ago — mount-time
    recovery only touches intents older than the recovery grace
    period.  An explicit recover() still sweeps everything."""
    db = Database()
    backend = MemoryBackend(2)
    fs = DPFS(backend, db, auto_recover=False)
    fs.intents.begin("remove", {"path": "/live"}, ["remove-metadata"], "")
    fs2 = DPFS(backend, db)  # default grace period
    assert fs2.last_recovery is not None
    assert fs2.last_recovery.actions == []
    assert len(fs2.intents.pending()) == 1
    # the operator-invoked sweep (dpfs recover) ignores the grace period
    assert fs2.recover().clean
    assert fs2.intents.pending() == []


# ---------------------------------------------------------------------------
# satellite: all-servers fan-out with aggregate errors
# ---------------------------------------------------------------------------

def test_remove_applies_to_all_servers_despite_failure():
    """One failing server no longer aborts the fan-out mid-loop: every
    other server's subfile is deleted and the failures come back as one
    aggregate MultiServerError."""
    backend = FaultyBackend(MemoryBackend(4))
    fs = DPFS(backend, io_workers=1)
    fs.write_file("/f", bytes(4 * BRICK), lhint(4 * BRICK))
    assert all(backend.subfile_exists(s, "/f") for s in range(4))
    backend.fail_on("delete", server=2)
    with pytest.raises(MultiServerError) as excinfo:
        fs.remove("/f")
    assert [s for s, _ in excinfo.value.errors] == [2]
    assert isinstance(excinfo.value.errors[0][1], InjectedFault)
    # servers 0, 1 and 3 were still cleaned up; metadata is gone
    for server in (0, 1, 3):
        assert not backend.subfile_exists(server, "/f")
    assert backend.subfile_exists(2, "/f")
    assert not fs.exists("/f")
    # the intent stayed journalled; once the server heals, recovery
    # finishes the job without manual intervention
    assert len(fs.intents.pending()) == 1
    backend.heal()
    assert fs.recover().clean
    assert not backend.subfile_exists(2, "/f")
    assert fsck(fs).clean


def test_rename_applies_to_all_servers_despite_failure():
    backend = FaultyBackend(MemoryBackend(4))
    fs = DPFS(backend, io_workers=1)
    data = bytes(range(256)) * 16
    fs.write_file("/old", data, lhint(len(data)))
    backend.fail_on("rename", server=1)
    with pytest.raises(MultiServerError) as excinfo:
        fs.rename("/old", "/new")
    assert [s for s, _ in excinfo.value.errors] == [1]
    # metadata committed: the file lives at /new
    assert fs.exists("/new") and not fs.exists("/old")
    backend.heal()
    assert fs.recover().clean
    assert fsck(fs).clean
    assert fs.read_file("/new") == data


def test_create_loser_keeps_winners_subfiles():
    """Two clients race to create the same path; the loser's rollback
    must not delete the subfiles the winner's committed metadata now
    references."""
    db = Database()
    backend = MemoryBackend(2)
    fs = DPFS(backend, db, io_workers=1, auto_recover=False)
    winner = DPFS(backend, db, io_workers=1, auto_recover=False)
    fs.makedirs("/d")
    payload = b"w" * BRICK

    # interleave: right after the loser creates its subfiles (and
    # before its metadata commit), the winner commits the same path
    real_mark = fs.intents.mark

    def mark_then_lose_race(intent, step):
        real_mark(intent, step)
        if step == "create-subfiles":
            winner.write_file("/d/f", payload, lhint(BRICK))

    fs.intents.mark = mark_then_lose_race
    with pytest.raises(FileExists):
        fs.write_file("/d/f", b"l" * BRICK, lhint(BRICK))
    fs.intents.mark = real_mark

    # the winner's file survives, subfiles intact, no intent debris
    assert fs.read_file("/d/f") == payload
    assert fs.intents.pending() == []
    assert fsck(fs).clean


def test_recovery_rollback_spares_subfiles_of_existing_file():
    """Rolling back an uncommitted create intent whose path *does*
    exist in metadata (a concurrent winner committed it) must leave the
    winner's subfiles alone."""
    fs = DPFS.memory(n_servers=2, auto_recover=False)
    payload = b"d" * BRICK
    fs.write_file("/f", payload, lhint(BRICK))
    # a crashed loser's intent for the same path, never committed
    fs.intents.begin(
        "create",
        {"path": "/f"},
        ["create-subfiles", "write-metadata"],
        "write-metadata",
    )
    assert fs.recover().clean
    assert fs.intents.pending() == []
    assert fs.read_file("/f") == payload
    assert fsck(fs).clean


def test_remove_missing_file_still_raises_file_not_found():
    fs = DPFS.memory(n_servers=2)
    with pytest.raises(FileNotFound):
        fs.remove("/nope")
    assert fs.intents.pending() == []


def test_rename_tolerates_missing_replica_subfiles():
    """A non-replicated file has no replica subfiles; the idempotent
    per-server rename must not error on their absence."""
    fs = DPFS.memory(n_servers=4)
    data = b"payload" * 100
    fs.write_file("/plain", data, lhint(len(data)))
    fs.rename("/plain", "/moved")
    assert fs.read_file("/moved") == data
    assert fs.intents.pending() == []
    assert fsck(fs).clean


# ---------------------------------------------------------------------------
# satellite: per-path CRC lock map eviction
# ---------------------------------------------------------------------------

def test_crc_lock_map_does_not_retain_deleted_paths():
    fs = DPFS.memory(n_servers=4)
    for i in range(8):
        path = f"/f{i}"
        fs.write_file(path, bytes(BRICK), lhint(BRICK))
        assert path in fs._crc_locks
        fs.remove(path)
        assert path not in fs._crc_locks
    assert fs._crc_locks == {}


def test_crc_lock_map_is_bounded_for_live_paths():
    """Even without removes, the lock map cannot grow without bound: an
    LRU cap evicts idle entries of live paths."""
    fs = DPFS.memory(n_servers=2)
    fs._crc_lock_cap = 4
    for i in range(12):
        fs.write_file(f"/f{i}", bytes(BRICK), lhint(BRICK))
    assert len(fs._crc_locks) <= 4
    assert "/f11" in fs._crc_locks  # most recent stays


def test_crc_lock_map_rekeys_on_rename():
    fs = DPFS.memory(n_servers=4)
    fs.write_file("/a", bytes(BRICK), lhint(BRICK))
    assert "/a" in fs._crc_locks
    fs.rename("/a", "/b")
    assert "/a" not in fs._crc_locks
    # the new name gets a fresh lock on its next write
    with fs.open("/b", "r+") as h:
        h.write(0, b"x" * 16)
    assert "/b" in fs._crc_locks

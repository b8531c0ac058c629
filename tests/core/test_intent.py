"""Unit tests for the intent journal and the forward-only recovery
engine, plus regressions for the fan-out error aggregation that rode
along with crash consistency."""

import pytest

from repro.backends.faulty import FaultyBackend, InjectedFault
from repro.backends.memory import MemoryBackend
from repro.core import DPFS, Hint, fsck
from repro.core.brick import subfile_names
from repro.core.intent import IntentLog
from repro.errors import FileExists, FileNotFound, MultiServerError
from repro.metadb import Database

BRICK = 1024


def lhint(size):
    return Hint.linear(file_size=size, brick_size=BRICK)


def subfiles(backend):
    return [backend.list_subfiles(s) for s in range(backend.n_servers)]


# ---------------------------------------------------------------------------
# IntentLog
# ---------------------------------------------------------------------------

def test_begin_persists_and_pending_roundtrips():
    log = IntentLog(Database())
    intent = log.begin("remove", {"path": "/a", "file_id": 7, "servers": [0, 2]})
    (got,) = log.pending()
    assert got.intent_id == intent.intent_id
    assert got.op == "remove"
    assert got.args == {"path": "/a", "file_id": 7, "servers": [0, 2]}
    assert got.done == []
    assert got.path == "/a"


def test_mark_and_retire():
    log = IntentLog(Database())
    intent = log.begin("remove", {"path": "/f"})
    log.mark(intent, "delete-subfiles")
    (got,) = log.pending()
    assert got.done == ["delete-subfiles"]
    log.retire(intent)
    assert log.pending() == []
    log.retire(intent)  # idempotent


def test_ids_are_sequential_and_survive_retire():
    log = IntentLog(Database())
    first = log.begin("remove", {"path": "/a"})
    second = log.begin("remove", {"path": "/b"})
    assert [i.intent_id for i in log.pending()] == [
        first.intent_id,
        second.intent_id,
    ]
    # a retired id is never handed out again, so a late retire of it
    # cannot drop a newer intent
    log.retire(second)
    third = log.begin("remove", {"path": "/c"})
    assert third.intent_id > second.intent_id


def test_journal_survives_reopen(tmp_path):
    meta = tmp_path / "meta.db"
    log = IntentLog(Database(meta))
    log.begin("remove", {"path": "/f"})
    log.db.close()
    reopened = IntentLog(Database(meta))
    (got,) = reopened.pending()
    assert got.op == "remove" and got.path == "/f"


# ---------------------------------------------------------------------------
# recovery engine plumbing
# ---------------------------------------------------------------------------

def test_unknown_intent_op_reported_stuck_not_raised():
    fs = DPFS.memory(n_servers=2)
    fs.intents.begin("frobnicate", {"path": "/x"})
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
    fs.intents.begin("remove", {"path": "/gone-a", "file_id": 1, "servers": [0]})
    fs.intents.begin("remove", {"path": "/gone-b", "file_id": 2, "servers": [1]})
    backend.fail_next("delete", times=1, server=0)
    report = fs.recover()
    assert len(report.actions) == 2
    assert len(report.stuck) == 1
    assert len(report.recovered) == 1
    assert len(fs.intents.pending()) == 1
    backend.heal()
    assert fs.recover().clean
    assert fs.intents.pending() == []
    assert fs.read_file("/keep") == b"k" * 64


def test_mount_time_recovery_runs_by_default():
    db = Database()
    backend = MemoryBackend(2)
    fs = DPFS(backend, db, auto_recover=False)
    fs.intents.begin("remove", {"path": "/ghost", "file_id": 1, "servers": [0, 1]})
    fs2 = DPFS(backend, db)
    assert fs2.last_recovery is not None
    assert len(fs2.last_recovery.actions) == 1
    assert fs2.intents.pending() == []


def test_sweeping_a_live_mounts_intent_is_harmless():
    """A second mount sweeps every pending intent, including one a live
    client is still working through: the deletes it repeats address an
    id no other file will ever have, and the live client's own retire
    finds its intent already gone."""
    db = Database()
    backend = MemoryBackend(4)
    live = DPFS(backend, db, io_workers=1)
    live.write_file("/f", bytes(4 * BRICK), lhint(4 * BRICK))
    live.write_file("/keep", b"k" * BRICK, lhint(BRICK))
    real_delete = live._redo_remove_subfiles

    def delete_after_another_mount_swept(file_id, servers):
        other = DPFS(backend, db, io_workers=1)
        assert other.last_recovery is not None and other.last_recovery.clean
        assert len(other.last_recovery.actions) == 1
        real_delete(file_id, servers)

    live._redo_remove_subfiles = delete_after_another_mount_swept
    live.remove("/f")
    assert live.intents.pending() == []
    assert live.read_file("/keep") == b"k" * BRICK
    assert fsck(live).clean


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
    name, _ = subfile_names(fs.meta.load_file("/f")[0].file_id)
    assert all(backend.subfile_exists(s, name) for s in range(4))
    backend.fail_on("delete", server=2)
    with pytest.raises(MultiServerError) as excinfo:
        fs.remove("/f")
    assert [s for s, _ in excinfo.value.errors] == [2]
    assert isinstance(excinfo.value.errors[0][1], InjectedFault)
    # servers 0, 1 and 3 were still cleaned up; metadata is gone
    for server in (0, 1, 3):
        assert not backend.subfile_exists(server, name)
    assert backend.subfile_exists(2, name)
    assert not fs.exists("/f")
    # the intent stayed journalled; once the server heals, recovery
    # finishes the job without manual intervention
    assert len(fs.intents.pending()) == 1
    backend.heal()
    assert fs.recover().clean
    assert not backend.subfile_exists(2, name)
    assert fsck(fs).clean


def test_create_loser_keeps_winners_subfiles():
    """Two clients race to create the same path: the loser's insert is
    refused before it makes any subfile, so the winner's are untouched
    and no subfile of the loser is left behind."""
    db = Database()
    backend = MemoryBackend(4)
    fs = DPFS(backend, db, io_workers=1)
    winner = DPFS(backend, db, io_workers=1)
    fs.makedirs("/d")
    payload = b"w" * BRICK
    winner.write_file("/d/f", payload, lhint(BRICK))
    before = subfiles(backend)
    with pytest.raises(FileExists):
        fs.write_file("/d/f", b"l" * 3 * BRICK, lhint(3 * BRICK))
    assert subfiles(backend) == before
    assert fs.read_file("/d/f") == payload
    assert fs.intents.pending() == []
    assert fsck(fs).clean


def test_remove_missing_file_still_raises_file_not_found():
    fs = DPFS.memory(n_servers=2)
    with pytest.raises(FileNotFound):
        fs.remove("/nope")
    assert fs.intents.pending() == []


def test_rename_tolerates_missing_replica_subfiles():
    """A non-replicated file has no replica subfiles; renaming it must
    not depend on their presence."""
    fs = DPFS.memory(n_servers=4)
    data = b"payload" * 100
    fs.write_file("/plain", data, lhint(len(data)))
    fs.rename("/plain", "/moved")
    assert fs.read_file("/moved") == data
    assert fs.intents.pending() == []
    assert fsck(fs).clean


def test_pending_gauge_follows_begin_and_retire():
    from repro.obs import MetricsRegistry

    db = Database()
    registry = MetricsRegistry()
    log = IntentLog(db, registry)
    gauge = registry.gauge("dpfs_intents_pending")
    first = log.begin("remove", {"path": "/a"})
    log.begin("remove", {"path": "/b"})
    assert gauge.value() == 2
    log.retire(first)
    log.retire(first)  # idempotent: counted once
    assert gauge.value() == 1
    reopened = MetricsRegistry()
    IntentLog(db, reopened)
    assert reopened.gauge("dpfs_intents_pending").value() == 1

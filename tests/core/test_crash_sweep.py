"""The systematic crash sweep: every registered crash point, in every
multi-step operation, must be recoverable.

For each (operation, crash point) pair the test arms the point, runs
the operation until it "dies" (:class:`SimulatedCrash` is a
BaseException, so no library handler can absorb it), then remounts the
same backend + metadata database.  Mount-time recovery (which rolls
every pending intent forward) plus one ``fsck --repair`` must leave:

- an empty intent journal,
- a second ``fsck`` that is clean (no orphan subfiles, no dangling
  metadata),
- a clean ``scrub`` (no torn or diverged data),
- per-server usage counters equal to the bricklists' sum (the fsck
  oracle),
- the file in exactly its old or its new state — never torn,
- no subfile outside its file's row servers, and none that removing
  every file leaves behind.

A create makes its subfiles inside its commit transaction, so one that
dies leaves no file, only empty subfiles no row names, which the one
fsck deletes as orphans.  Writes are not journalled.  A crash between a
write's bytes and its chunk checksums on one server (a torn pair)
leaves a copy whose chunk fails its checksum: scrub must report it as
``checksum-mismatch`` and rewrite it from the other copy before the
checks above.

``io_workers=1`` forces inline sequential dispatch so "crash after the
first server's work" (the ``mid_*`` points) is deterministic.
"""

import pytest

from repro.backends.memory import MemoryBackend
from repro.core import DPFS, Hint, fsck, scrub
from repro.core.brick import file_id_of, subfile_names
from repro.crashpoints import (
    SimulatedCrash,
    arm,
    armed,
    armed_name,
    crashpoint,
    disarm,
    registered,
)
from repro.core.fsck import usage_oracle
from repro.errors import ChecksumError
from repro.metadb import Database

BRICK = 512
DATA = bytes(range(256)) * 8  # 4 bricks


def lhint(size, replicas=1):
    return Hint.linear(file_size=size, brick_size=BRICK, replicas=replicas)


def _mount(backend, db, *, auto_recover=True):
    return DPFS(backend, db, io_workers=1, auto_recover=auto_recover)


def subfiles_outside_row_servers(fs):
    """Every (server, subfile) whose server holds no row of its file."""
    return [
        (server, name)
        for server in range(fs.backend.n_servers)
        for name in fs.backend.list_subfiles(server)
        if file_id_of(name) is None
        or server not in fs.meta.holders(file_id_of(name)).servers()
    ]


# -- per-operation setup / crashing mutation / old-or-new check --------------

def _setup_create(fs):
    fs.makedirs("/d")
    return {}


def _crash_create(fs, ctx):
    fs.write_file("/d/f", DATA, lhint(len(DATA)))


def _check_create(fs, ctx):
    # every create point precedes the commit: the file never existed
    assert not fs.exists("/d/f")


def _setup_remove(fs):
    fs.makedirs("/d")
    fs.write_file("/d/f", DATA, lhint(len(DATA)))
    return {}


def _crash_remove(fs, ctx):
    fs.remove("/d/f")


def _check_remove(fs, ctx):
    if fs.exists("/d/f"):
        assert fs.read_file("/d/f") == DATA


def _setup_rename(fs):
    fs.makedirs("/d")
    fs.write_file("/d/f", DATA, lhint(len(DATA)))
    return {}


def _crash_rename(fs, ctx):
    fs.rename("/d/f", "/d/g")


def _check_rename(fs, ctx):
    old, new = fs.exists("/d/f"), fs.exists("/d/g")
    assert old != new, "rename left both (or neither) of old/new"
    assert fs.read_file("/d/f" if old else "/d/g") == DATA


def _setup_grow(fs):
    fs.makedirs("/d")
    fs.write_file("/d/f", DATA, lhint(len(DATA)))
    return {"new_size": len(DATA) + 4 * BRICK}


def _crash_grow(fs, ctx):
    # no `with`: a context manager would run close() on the way out,
    # which a genuinely dead client never does
    handle = fs.open("/d/f", "r+")
    handle.write(ctx["new_size"] - BRICK, b"Z" * BRICK)


def _check_grow(fs, ctx):
    record, _ = fs.meta.load_file("/d/f")
    assert record.size in (len(DATA), ctx["new_size"])
    assert fs.read_file("/d/f")[: len(DATA)] == DATA


def _setup_grow_out(fs):
    # one brick on one server: growth reaches servers holding none of it
    fs.makedirs("/d")
    fs.write_file("/d/f", DATA[:BRICK], lhint(BRICK))
    return {"new_size": 4 * BRICK}


def _check_grow_out(fs, ctx):
    record, _ = fs.meta.load_file("/d/f")
    assert record.size in (BRICK, ctx["new_size"])
    assert fs.read_file("/d/f")[:BRICK] == DATA[:BRICK]


def _setup_write(fs):
    # brick 0 holds bytes, brick 1 zeros that were never written
    fs.makedirs("/d")
    fs.write_file("/d/f", DATA[:BRICK], lhint(len(DATA), replicas=2))
    return {"patch": b"W" * BRICK}


def _crash_write(fs, ctx):
    # straddles bricks 0 and 1, covering neither whole
    handle = fs.open("/d/f", "r+")
    handle.write(BRICK // 2, ctx["patch"])


def _check_torn_write(fs, ctx):
    # the primary took the bytes but not their checksums, the replica
    # never got the write: scrub rewrote the torn copy from the replica
    assert fs.read_file("/d/f") == DATA[:BRICK] + bytes(len(DATA) - BRICK)


def _setup_refill(fs):
    fs.makedirs("/d")
    fs.write_file("/d/f", DATA, lhint(len(DATA), replicas=2))
    record, _ = fs.meta.load_file("/d/f")
    rmap = fs.meta.load_replica_map(record)
    server = next(
        s for s in range(fs.backend.n_servers) if rmap.bricklists[s]
    )
    rname = subfile_names(record.file_id)[1]
    fs.backend.delete_subfile(server, rname)
    return {"server": server, "rname": rname}


def _crash_refill(fs, ctx):
    fs.refill_replica_subfile("/d/f", ctx["server"])


def _check_refill(fs, ctx):
    assert fs.backend.subfile_exists(ctx["server"], ctx["rname"])
    assert fs.read_file("/d/f") == DATA


OPS = {
    "create": (_setup_create, _crash_create, _check_create),
    "remove": (_setup_remove, _crash_remove, _check_remove),
    "rename": (_setup_rename, _crash_rename, _check_rename),
    "grow": (_setup_grow, _crash_grow, _check_grow),
    "grow_out": (_setup_grow_out, _crash_grow, _check_grow_out),
    "refill": (_setup_refill, _crash_refill, _check_refill),
    "torn_write": (_setup_write, _crash_write, _check_torn_write),
}

#: points after which a server holds a write's bytes but not their
#: chunk checksums; data writes have no intent, so recovery leaves the
#: torn copy and scrub must report and repair it
TORN_POINTS = {"backend.write.before_sidecar"}

SWEEP = [
    ("create", "filesystem.create.mid_subfiles"),
    ("create", "filesystem.create.in_commit"),
    ("remove", "filesystem.remove.in_commit"),
    ("remove", "filesystem.remove.after_metadata"),
    ("remove", "filesystem.remove.mid_subfiles"),
    ("remove", "filesystem.remove.after_subfiles"),
    ("rename", "filesystem.rename.in_commit"),
    ("grow", "filesystem.grow.in_commit"),
    ("grow_out", "filesystem.grow.mid_subfiles"),
    ("refill", "filesystem.refill.after_intent"),
    ("refill", "filesystem.refill.mid_copy"),
    ("refill", "filesystem.refill.after_copy"),
    ("torn_write", "backend.write.before_sidecar"),
]


def test_sweep_covers_every_registered_crash_point():
    """Adding a crash point without adding it to the sweep is an error."""
    assert sorted(p for _op, p in SWEEP) == registered()


@pytest.mark.parametrize("op,point", SWEEP, ids=[p for _op, p in SWEEP])
def test_crash_then_recover_leaves_consistent_state(op, point):
    setup, crash, check = OPS[op]
    db = Database()
    backend = MemoryBackend(4)
    fs = _mount(backend, db, auto_recover=False)
    ctx = setup(fs)
    arm(point)
    try:
        with pytest.raises(SimulatedCrash):
            crash(fs, ctx)
    finally:
        disarm()
    # the client is dead; a new mount over the same backend + metadata
    # rolls its intents forward, and one fsck --repair does the rest
    fs2 = _mount(backend, db)
    assert fs2.last_recovery is not None
    assert fs2.last_recovery.clean, str(fs2.last_recovery)
    assert fs2.intents.pending() == []
    if point in TORN_POINTS:
        sreport = scrub(fs2)
        assert sreport.findings, str(sreport)
        assert {f.kind for f in sreport.findings} == {"checksum-mismatch"}
        assert not scrub(fs2, repair=True).unrepaired
    repaired = fsck(fs2, repair=True)
    assert all(f.repaired for f in repaired.findings), str(repaired)
    freport = fsck(fs2)
    assert freport.clean, str(freport)
    assert fs2.meta.server_usage() == usage_oracle(fs2.meta)
    sreport = scrub(fs2)
    assert sreport.clean, str(sreport)
    check(fs2, ctx)
    assert subfiles_outside_row_servers(fs2) == []
    # every subfile left is reachable through metadata: removing every
    # file leaves no subfile on any server
    for path in fs2.meta.iter_files():
        fs2.remove(path)
    assert [backend.list_subfiles(s) for s in range(4)] == [[]] * 4


def test_torn_single_copy_is_restamped_and_reported():
    """With no other copy to vouch for it, a torn chunk is re-stamped
    from the bytes it holds (the write's), and reported."""
    db = Database()
    backend = MemoryBackend(4)
    fs = _mount(backend, db, auto_recover=False)
    fs.write_file("/f", DATA, lhint(len(DATA)))
    arm("backend.write.before_sidecar")
    try:
        with pytest.raises(SimulatedCrash):
            fs.open("/f", "r+").write(BRICK // 2, b"W" * 10)
    finally:
        disarm()
    fs2 = _mount(backend, db)
    with pytest.raises(ChecksumError):
        fs2.read_file("/f")
    (finding,) = scrub(fs2).findings
    assert finding.kind == "stale-checksum" and not finding.repaired
    assert scrub(fs2, repair=True).findings[0].repaired
    assert scrub(fs2).clean and fsck(fs2).clean
    expected = bytearray(DATA)
    expected[BRICK // 2 : BRICK // 2 + 10] = b"W" * 10
    assert fs2.read_file("/f") == bytes(expected)


def test_commit_step_mark_is_atomic_with_the_commit():
    """The journal can never disagree with metadata about whether the
    commit point was reached: a remove journals its intent inside the
    transaction that drops the metadata, so a crash leaves either the
    file and no intent, or an intent and no file."""
    db = Database()
    backend = MemoryBackend(4)
    fs = _mount(backend, db, auto_recover=False)
    fs.makedirs("/d")
    fs.write_file("/d/f", DATA, lhint(len(DATA)))

    # crash inside the commit transaction: neither the drop nor the
    # intent became durable
    arm("filesystem.remove.in_commit")
    try:
        with pytest.raises(SimulatedCrash):
            fs.remove("/d/f")
    finally:
        disarm()
    assert fs.intents.pending() == []
    assert fs.read_file("/d/f") == DATA

    # crash right after the commit transaction: the drop and the intent
    # are both durable, so recovery deletes the subfiles
    arm("filesystem.remove.after_metadata")
    try:
        with pytest.raises(SimulatedCrash):
            fs.remove("/d/f")
    finally:
        disarm()
    (intent,) = fs.intents.pending()
    assert intent.op == "remove" and not fs.exists("/d/f")
    assert fs.recover().clean
    assert [backend.list_subfiles(s) for s in range(4)] == [[]] * 4
    assert fsck(fs).clean


def test_recovery_itself_is_crash_safe():
    """A crash *during* the recovery sweep's redo must still converge on
    the next mount — recovery replays the same idempotent steps."""
    db = Database()
    backend = MemoryBackend(4)
    fs = _mount(backend, db, auto_recover=False)
    fs.makedirs("/d")
    fs.write_file("/d/f", DATA, lhint(len(DATA)))
    arm("filesystem.remove.mid_subfiles")
    try:
        with pytest.raises(SimulatedCrash):
            fs.remove("/d/f")
        # second crash, now inside the mount-time recovery redo
        arm("filesystem.remove.mid_subfiles")
        with pytest.raises(SimulatedCrash):
            _mount(backend, db)
    finally:
        disarm()
    fs3 = _mount(backend, db)
    assert fs3.last_recovery is not None and fs3.last_recovery.clean
    assert not fs3.exists("/d/f")
    assert fsck(fs3).clean
    assert scrub(fs3).clean


def test_fsck_reports_and_repairs_pending_intents():
    db = Database()
    backend = MemoryBackend(4)
    fs = _mount(backend, db, auto_recover=False)
    fs.write_file("/f", DATA, lhint(len(DATA)))
    arm("filesystem.remove.after_metadata")
    try:
        with pytest.raises(SimulatedCrash):
            fs.remove("/f")
    finally:
        disarm()
    checker = _mount(backend, db, auto_recover=False)
    report = fsck(checker)
    found = report.by_kind("pending-intent")
    assert found and not found[0].repaired
    repaired = fsck(checker, repair=True)
    assert repaired.by_kind("pending-intent")[0].repaired
    assert fsck(checker).clean


def test_scrub_reports_pending_intents_report_only():
    db = Database()
    backend = MemoryBackend(4)
    fs = _mount(backend, db, auto_recover=False)
    fs.write_file("/f", DATA, lhint(len(DATA)))
    arm("filesystem.remove.after_metadata")
    try:
        with pytest.raises(SimulatedCrash):
            fs.remove("/f")
    finally:
        disarm()
    checker = _mount(backend, db, auto_recover=False)
    report = scrub(checker)
    assert report.by_kind("pending-intent")
    assert report.unrepaired  # scrub never repairs these itself
    checker.recover()
    assert scrub(checker).by_kind("pending-intent") == []


# -- crash point mechanics ---------------------------------------------------

def test_arming_unknown_point_rejected():
    with pytest.raises(KeyError):
        arm("no.such.point")


def test_crashpoint_fires_once_then_disarms():
    arm("filesystem.remove.after_metadata")
    try:
        with pytest.raises(SimulatedCrash):
            crashpoint("filesystem.remove.after_metadata")
        assert armed_name() is None
        crashpoint("filesystem.remove.after_metadata")  # no-op now
    finally:
        disarm()


def test_armed_context_manager_disarms_on_exit():
    with armed("filesystem.remove.after_metadata"):
        assert armed_name() == "filesystem.remove.after_metadata"
    assert armed_name() is None


def test_unarmed_crashpoint_is_noop():
    assert armed_name() is None
    crashpoint("filesystem.remove.after_metadata")


def test_simulated_crash_is_not_an_exception():
    """The whole design rests on except-Exception handlers *not* eating
    a simulated crash; pin that property."""
    assert issubclass(SimulatedCrash, BaseException)
    assert not issubclass(SimulatedCrash, Exception)

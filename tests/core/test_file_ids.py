"""Files are known to the servers by a never-reused id: a rename is a
metadata UPDATE, a handle survives a rename, and a root written when
subfiles were named by path is migrated once at mount."""

import pytest

from repro.backends.faulty import FaultyBackend
from repro.backends.local import LocalBackend
from repro.backends.memory import MemoryBackend
from repro.core import DPFS, Hint, fsck
from repro.core.brick import file_id_of, subfile_names
from repro.crashpoints import SimulatedCrash
from repro.errors import MetaDBError, MultiServerError
from repro.metadb import Database

from .legacy_root import add_legacy_intent, make_legacy

BRICK = 1024
_OPS = ("create", "delete", "rename", "read", "write")


def lhint(size, replicas=1):
    return Hint.linear(file_size=size, brick_size=BRICK, replicas=replicas)


def payload(n, seed):
    return bytes((seed + 7 * i) % 256 for i in range(n))


# -- rename ------------------------------------------------------------------

def test_rename_succeeds_while_every_server_is_down():
    backend = FaultyBackend(MemoryBackend(4))
    fs = DPFS(backend, io_workers=1)
    fs.makedirs("/d")
    data = payload(4 * BRICK, 1)
    fs.write_file("/d/f", data, lhint(len(data), replicas=2))
    for op in _OPS:
        backend.fail_on(op)
    fs.rename("/d/f", "/g")
    assert fs.listdir("/") == (["d"], ["g"]) and fs.listdir("/d") == ([], [])
    backend.heal()
    assert fs.read_file("/g") == data
    assert fsck(fs).clean


def test_rename_makes_no_backend_call():
    backend = MemoryBackend(4)
    fs = DPFS(backend)
    fs.write_file("/f", payload(3 * BRICK, 2), lhint(3 * BRICK, replicas=2))
    calls = []
    for method in (
        "create_subfile", "delete_subfile", "subfile_exists", "rename_subfile",
        "list_subfiles", "subfile_size", "read_extents", "write_extents",
    ):
        real = getattr(backend, method)

        def counted(*args, real=real, method=method):
            calls.append(method)
            return real(*args)

        setattr(backend, method, counted)
    fs.rename("/f", "/g")
    assert calls == []


def test_handle_opened_before_rename_keeps_reading_and_writing():
    fs = DPFS.memory(4)
    fs.makedirs("/d")
    data = payload(4 * BRICK, 3)
    fs.write_file("/d/f", data, lhint(len(data), replicas=2))
    with fs.open("/d/f", "r+") as handle:
        fs.rename("/d/f", "/d/g")
        assert handle.read(0, len(data)) == data
        patch = b"P" * BRICK
        handle.write(BRICK, patch)          # a whole brick
        handle.write(len(data), patch)      # grows the file: a first write
        expected = data[:BRICK] + patch + data[2 * BRICK :] + patch
        assert handle.read(0, len(expected)) == expected
    record, bmap = fs.meta.load_file("/d/g")
    assert record.size == len(expected) and len(bmap) == 5  # grown through the id
    assert fs.read_file("/d/g") == expected
    assert fsck(fs).clean


def test_file_ids_are_never_reused(tmp_path):
    root = tmp_path / "root"
    with DPFS.local(root, 2) as fs:
        fs.write_file("/a", b"a" * 10)
        fs.write_file("/b", b"b" * 10)
        newest = fs.meta.load_file("/b")[0].file_id
        fs.remove("/b")
    with DPFS.local(root, 2) as fs:
        fs.write_file("/c", b"c" * 10)
        assert fs.meta.load_file("/c")[0].file_id > newest


# -- migration of roots written before file ids --------------------------------

FILES = {
    "/top": (payload(3 * BRICK + 5, 4), 1),
    "/a/b/c/deep": (payload(5 * BRICK, 5), 1),
    "/a/rep": (payload(4 * BRICK, 6), 2),
    "/a/b/moved": (payload(2 * BRICK, 7), 1),
}


def _legacy_root(root):
    """A root with nested directories, replicated and unreplicated
    files and one renamed file, rewritten as the path-keyed build left
    it; returns what ``listdir`` shows for every directory."""
    with DPFS.local(root, 4) as fs:
        fs.makedirs("/a/b/c")
        fs.mkdir("/empty")
        for path, (data, replicas) in FILES.items():
            if path == "/a/b/moved":
                path = "/a/old"
            fs.write_file(path, data, lhint(len(data), replicas))
        fs.rename("/a/old", "/a/b/moved")
        listing = {d: fs.listdir(d) for d in ("/", "/a", "/a/b", "/a/b/c", "/empty")}
    make_legacy(root, 4)
    return listing


def _subfile_names(root):
    backend = LocalBackend(root, 4)
    return [name for s in range(4) for name in backend.list_subfiles(s)]


def _check_migrated(fs, listing):
    assert {d: fs.listdir(d) for d in listing} == listing
    for path, (data, _replicas) in FILES.items():
        assert fs.read_file(path) == data
    report = fsck(fs)
    assert report.clean, str(report)


def test_root_written_before_file_ids_is_migrated_once(tmp_path):
    root = tmp_path / "root"
    listing = _legacy_root(root)
    names = _subfile_names(root)
    assert "/a/rep//r" in names and "/a/b/moved" in names
    assert not any(file_id_of(name) for name in names)
    for _mount in range(2):
        with DPFS.local(root, 4) as fs:
            _check_migrated(fs, listing)
            assert fs.meta.legacy_subfiles() == {}  # nothing left to rename
            columns = fs.db.execute("PRAGMA table_info(dpfs_file_distribution)").rows
            assert "filename" not in {c["name"] for c in columns}
        names = _subfile_names(root)
        assert names and all(file_id_of(name) for name in names)
    with DPFS.local(root, 4) as fs:
        for path in list(FILES):
            fs.remove(path)
        assert fs.intents.pending() == []
    assert _subfile_names(root) == []


def test_migration_interrupted_part_way_finishes_on_the_next_mount(
    tmp_path, monkeypatch
):
    root = tmp_path / "root"
    listing = _legacy_root(root)
    rename = LocalBackend.rename_subfile
    done = []

    def crash_after_two(self, server, old, new):
        if len(done) == 2:
            raise SimulatedCrash("migration")
        done.append(old)
        rename(self, server, old, new)

    monkeypatch.setattr(LocalBackend, "rename_subfile", crash_after_two)
    with pytest.raises(SimulatedCrash):
        DPFS.local(root, 4)
    monkeypatch.undo()
    names = _subfile_names(root)
    assert any(file_id_of(n) for n in names) and not all(file_id_of(n) for n in names)
    with DPFS.local(root, 4) as fs:
        _check_migrated(fs, listing)
    assert all(file_id_of(name) for name in _subfile_names(root))


def test_migration_with_a_down_server_finishes_on_the_next_mount(tmp_path):
    root = tmp_path / "root"
    listing = _legacy_root(root)
    backend = FaultyBackend(LocalBackend(root, 4))
    backend.fail_on("rename", server=1)
    db = Database(root / "dpfs.meta")
    with pytest.raises(MultiServerError) as excinfo:
        DPFS(backend, db)
    assert [server for server, _ in excinfo.value.errors] == [1]
    db.close()
    backend.heal()
    with DPFS(backend, Database(root / "dpfs.meta")) as fs:
        _check_migrated(fs, listing)
    assert all(file_id_of(name) for name in _subfile_names(root))


def test_root_with_pending_legacy_intents_is_refused(tmp_path):
    root = tmp_path / "root"
    _legacy_root(root)
    add_legacy_intent(root)
    refusal = r"i00000007 \(rename /a/x\).*build that wrote"
    with pytest.raises(MetaDBError, match=refusal):
        DPFS.local(root, 4)
    # refused before anything changed: still the path-keyed layout
    assert "/a/rep//r" in _subfile_names(root)


def test_subfile_names_carry_the_file_id():
    name, rname = subfile_names(42)
    assert name != rname
    assert file_id_of(name) == file_id_of(rname) == 42
    for other in ("/42", "042", "42.x", "x.r", "", "²"):
        assert file_id_of(other) is None

"""fsck tests: detection and repair of every inconsistency class."""

import importlib

import pytest

from repro.core import DPFS, Hint, fsck
from repro.core.brick import subfile_names
from repro.errors import ConstraintError, FileSystemError


def names(fs, path):
    """The (primary, replica) subfile names of the file at ``path``."""
    return subfile_names(fs.meta.load_file(path)[0].file_id)


@pytest.fixture
def populated(fs):
    fs.makedirs("/home/user")
    fs.write_file("/home/user/a", b"x" * 1000)
    fs.write_file("/b", b"y" * 500)
    return fs


def test_clean_filesystem(populated):
    report = fsck(populated)
    assert report.clean
    assert report.files_checked == 2
    assert "0 finding(s)" in str(report)


def test_missing_subfile_detected_and_repaired(populated):
    """A file no byte was written to (a crash between create's commit
    and its subfile creates leaves one) gets its subfile back empty."""
    fs = populated
    fs.open("/c", "w", hint=Hint.linear(file_size=500)).close()
    fs.backend.delete_subfile(0, names(fs, "/c")[0])
    report = fsck(fs)
    assert [f.kind for f in report.findings] == ["missing-subfile"]
    assert not report.findings[0].repaired

    repaired = fsck(fs, repair=True)
    assert repaired.by_kind("missing-subfile")[0].repaired
    assert fsck(fs).clean
    # file readable again (unwritten bricks read as zeros — sparse semantics)
    assert fs.read_file("/c") == bytes(500)


def test_lost_written_subfile_is_reported_not_zeroed(populated):
    """A subfile that held written bricks with no other copy is lost:
    fsck says so and leaves it missing, so reads keep failing instead
    of returning zeros."""
    fs = populated
    fs.backend.delete_subfile(0, names(fs, "/b")[0])
    report = fsck(fs, repair=True)
    (lost,) = report.by_kind("lost-subfile")
    assert lost.path == "/b" and not lost.repaired
    assert report.by_kind("missing-subfile") == []
    assert not fsck(fs).clean
    with pytest.raises(FileSystemError):
        fs.read_file("/b")


def test_orphan_subfile_detected_and_repaired(populated):
    fs = populated
    fs.backend.create_subfile(1, "/ghost")
    report = fsck(fs)
    orphans = report.by_kind("orphan-subfile")
    assert len(orphans) == 1
    assert orphans[0].path == "/ghost"

    fsck(fs, repair=True)
    assert not fs.backend.subfile_exists(1, "/ghost")
    assert fsck(fs).clean


def test_deleted_attr_row_leaves_listdir_and_orphans_subfiles(populated):
    fs = populated
    # corrupt: the file's attr row is gone, its subfiles are not
    name, _ = names(fs, "/b")
    fs.db.execute("DELETE FROM dpfs_file_attr WHERE filename = '/b'")
    assert fs.listdir("/") == (["home"], [])
    report = fsck(fs)
    orphans = report.by_kind("orphan-subfile")
    assert orphans and {f.path for f in orphans} == {name}

    fsck(fs, repair=True)
    assert fsck(fs).clean
    assert fs.read_file("/home/user/a") == b"x" * 1000


def test_deleting_a_directory_with_children_is_refused(populated):
    fs = populated
    for directory in ("/home/user", "/home"):  # a file child, a dir child
        with pytest.raises(ConstraintError):
            fs.db.execute(
                "DELETE FROM dpfs_directory WHERE main_dir = ?", [directory]
            )
    assert fs.listdir("/home") == (["user"], [])
    assert fsck(fs).clean


def test_file_cannot_be_keyed_to_a_missing_directory(populated):
    fs = populated
    with pytest.raises(ConstraintError):
        fs.db.execute(
            "UPDATE dpfs_file_attr SET parent = '/gone' WHERE filename = '/b'"
        )
    assert fs.listdir("/") == (["home"], ["b"])
    assert fs.read_file("/b") == b"y" * 500
    assert fsck(fs).clean


def test_bad_brick_map_reported(populated):
    fs = populated
    # corrupt one distribution row's bricklist (duplicate brick id)
    file_id = fs.meta.load_file("/b")[0].file_id
    row = fs.db.execute(
        "SELECT server_name, bricklist FROM dpfs_file_distribution "
        "WHERE file_id = ? ORDER BY server_name LIMIT 1",
        [file_id],
    ).rows[0]
    bricklist = list(row["bricklist"]) or [0]
    bricklist.append(bricklist[0])
    fs.db.execute(
        "UPDATE dpfs_file_distribution SET bricklist = ?"
        " WHERE file_id = ? AND server_name = ?",
        [bricklist, file_id, row["server_name"]],
    )
    report = fsck(fs)
    assert report.by_kind("bad-brick-map")


def test_fsck_shell_command(populated):
    from repro.shell import Shell

    shell = Shell(populated)
    out = shell.run_line("fsck")
    assert "0 finding(s)" in out
    populated.backend.create_subfile(0, "/stray")
    out = shell.run_line("fsck --repair")
    assert "orphan-subfile" in out and "FIXED" in out


def test_fsck_on_local_backend(tmp_path):
    fs = DPFS.local(tmp_path / "d", n_servers=2)
    fs.write_file("/f", b"content" * 100)
    assert fsck(fs).clean
    # orphan on disk
    (tmp_path / "d" / "server_0" / "stray").write_bytes(b"junk")
    report = fsck(fs)
    assert report.by_kind("orphan-subfile")
    fsck(fs, repair=True)
    assert fsck(fs).clean
    fs.close()


def test_fsck_over_tcp(tmp_path):
    from repro.net import DPFSServer, RemoteBackend

    with DPFSServer(tmp_path / "s0") as s0, DPFSServer(tmp_path / "s1") as s1:
        fs = DPFS(RemoteBackend([s0.address, s1.address]))
        fs.write_file("/f", b"data" * 50)
        assert fsck(fs).clean
        fs.backend.create_subfile(0, "/orphan")
        report = fsck(fs, repair=True)
        assert report.by_kind("orphan-subfile")[0].repaired
        assert fsck(fs).clean
        fs.close()


def test_lost_subfile_with_other_copies_is_recreated_and_refilled(fs):
    """A written subfile whose every brick has another copy is recreated
    empty, and the deep pass rewrites its bricks from those copies."""
    data = bytes(range(256)) * 16
    hint = Hint.linear(file_size=len(data), brick_size=1024, replicas=2)
    fs.write_file("/r", data, hint)
    _, bmap = fs.meta.load_file("/r")
    server = bmap.location(0).server
    fs.backend.delete_subfile(server, names(fs, "/r")[0])
    report = fsck(fs, repair=True)
    assert [f.kind for f in report.by_kind("missing-subfile")] == ["missing-subfile"]
    assert report.by_kind("lost-subfile") == []
    assert all(f.repaired for f in report.findings), str(report)
    assert fsck(fs).clean
    assert fs.read_file("/r") == data


def test_orphan_pass_spares_a_file_created_after_pass_one(populated, monkeypatch):
    """Create commits its rows before it makes its subfiles, so a file
    created while fsck runs has subfiles pass 1 never saw: the orphan
    pass looks their id up again before deleting anything."""
    fsck_module = importlib.import_module("repro.core.fsck")
    fs = populated
    count_usage = fsck_module.usage_oracle

    def create_then_count(meta):  # pass 2 runs between passes 1 and 3
        fs.write_file("/late", b"z" * 300)
        return count_usage(meta)

    monkeypatch.setattr(fsck_module, "usage_oracle", create_then_count)
    report = fsck(fs, repair=True)
    monkeypatch.undo()
    assert report.by_kind("orphan-subfile") == [], str(report)
    assert fs.read_file("/late") == b"z" * 300
    assert fsck(fs).clean

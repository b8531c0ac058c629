"""fsck tests: detection and repair of every inconsistency class."""

import pytest

from repro.core import DPFS, Hint, fsck
from repro.errors import ConstraintError


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
    fs = populated
    fs.backend.delete_subfile(0, "/b")
    report = fsck(fs)
    assert [f.kind for f in report.findings] == ["missing-subfile"]
    assert not report.findings[0].repaired

    repaired = fsck(fs, repair=True)
    assert repaired.by_kind("missing-subfile")[0].repaired
    assert fsck(fs).clean
    # file readable again (lost bricks read as zeros — sparse semantics)
    data = fs.read_file("/b")
    assert len(data) == 500


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
    fs.db.execute("DELETE FROM dpfs_file_attr WHERE filename = '/b'")
    assert fs.listdir("/") == (["home"], [])
    report = fsck(fs)
    orphans = report.by_kind("orphan-subfile")
    assert orphans and {f.path for f in orphans} == {"/b"}

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
    row = fs.db.execute(
        "SELECT dist_id, bricklist FROM dpfs_file_distribution "
        "WHERE filename = '/b' ORDER BY dist_id LIMIT 1"
    ).rows[0]
    bricklist = list(row["bricklist"]) or [0]
    bricklist.append(bricklist[0])
    fs.db.execute(
        "UPDATE dpfs_file_distribution SET bricklist = ? WHERE dist_id = ?",
        [bricklist, row["dist_id"]],
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

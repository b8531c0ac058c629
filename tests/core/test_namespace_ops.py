"""Rename, du and capacity-accounting tests."""

import numpy as np
import pytest

from repro.core import DPFS, Hint
from repro.errors import (
    FileExists,
    FileNotFound,
    FileSystemError,
    InvalidPath,
)


# ---------------------------------------------------------------------------
# rename
# ---------------------------------------------------------------------------

def test_rename_same_directory(fs):
    fs.write_file("/a", b"data")
    fs.rename("/a", "/b")
    assert not fs.exists("/a")
    assert fs.read_file("/b") == b"data"


def test_rename_across_directories(fs):
    fs.makedirs("/x")
    fs.makedirs("/y")
    fs.write_file("/x/f", b"payload")
    fs.rename("/x/f", "/y/g")
    assert fs.listdir("/x") == ([], [])
    assert fs.listdir("/y") == ([], ["g"])
    assert fs.read_file("/y/g") == b"payload"


def test_rename_moves_subfiles(fs):
    fs.write_file("/a", b"x" * 1000)
    fs.rename("/a", "/b")
    for server in range(fs.backend.n_servers):
        assert not fs.backend.subfile_exists(server, "/a")
    # brick map still resolves
    _record, bmap = fs.meta.load_file("/b")
    assert len(bmap) > 0


def test_rename_preserves_striping(fs):
    hint = Hint.multidim((16, 16), 8, (4, 4))
    data = np.arange(256, dtype=np.float64).reshape(16, 16)
    with fs.open("/a", "w", hint=hint) as handle:
        handle.write_array((0, 0), data)
    fs.rename("/a", "/b")
    with fs.open("/b", "r") as handle:
        got = handle.read_array((4, 4), (8, 8), np.float64)
    assert np.array_equal(got, data[4:12, 4:12])


def test_rename_missing_rejected(fs):
    with pytest.raises(FileNotFound):
        fs.rename("/ghost", "/b")


def test_rename_onto_existing_rejected(fs):
    fs.write_file("/a", b"1")
    fs.write_file("/b", b"2")
    with pytest.raises(FileExists):
        fs.rename("/a", "/b")
    assert fs.read_file("/b") == b"2"


def test_rename_directory_rejected(fs):
    fs.mkdir("/d")
    with pytest.raises(InvalidPath):
        fs.rename("/d", "/e")


def test_rename_into_missing_dir_rejected(fs):
    fs.write_file("/a", b"1")
    with pytest.raises(FileNotFound):
        fs.rename("/a", "/nodir/a")
    assert fs.exists("/a")  # transaction rolled back


def test_rename_noop_same_path(fs):
    fs.write_file("/a", b"1")
    fs.rename("/a", "/a")
    assert fs.read_file("/a") == b"1"


def test_rename_survives_reopen(tmp_path):
    fs = DPFS.local(tmp_path / "d", n_servers=2)
    fs.write_file("/old", b"kept")
    fs.rename("/old", "/new")
    fs.close()
    fs2 = DPFS.local(tmp_path / "d", n_servers=2)
    assert fs2.read_file("/new") == b"kept"
    assert not fs2.exists("/old")
    fs2.close()


# ---------------------------------------------------------------------------
# du
# ---------------------------------------------------------------------------

def test_du_counts_tree(fs):
    fs.makedirs("/a/b")
    fs.write_file("/a/f1", b"x" * 100)
    fs.write_file("/a/b/f2", b"x" * 50)
    fs.write_file("/other", b"x" * 7)
    # siblings sorting just below and at the end of the '/a/' key range
    fs.write_file("/a.x", b"x" * 3)
    fs.makedirs("/a0")
    fs.write_file("/a0/f", b"x" * 2)
    assert fs.du("/a") == 150
    assert fs.du("/a/b") == 50
    assert fs.du("/") == 162
    assert fs.du("/a/f1") == 100  # file path works too


def test_du_empty_dir(fs):
    fs.mkdir("/empty")
    assert fs.du("/empty") == 0


def test_du_missing_rejected(fs):
    with pytest.raises(FileNotFound):
        fs.du("/ghost")


# ---------------------------------------------------------------------------
# capacity accounting
# ---------------------------------------------------------------------------

def test_df_reports_usage(fs):
    fs.write_file("/f", b"x" * 4000)
    report = fs.df()
    assert len(report) == 4
    total_used = sum(row["used"] for row in report)
    # physical usage >= logical size (padding of the last brick)
    assert total_used >= 4000
    for row in report:
        assert row["available"] == row["capacity"] - row["used"]


def test_capacity_enforced_on_create():
    fs = DPFS.memory(2, capacity=1024)
    with pytest.raises(FileSystemError, match="capacity"):
        fs.write_file("/big", b"x" * 10_000)
    # nothing half-created
    assert not fs.exists("/big")


def test_capacity_allows_fitting_file():
    fs = DPFS.memory(2, capacity=100_000)
    fs.write_file("/ok", b"x" * 10_000)
    assert fs.read_file("/ok") == b"x" * 10_000


def test_remove_releases_capacity():
    fs = DPFS.memory(2, capacity=200_000)
    fs.write_file("/a", b"x" * 100_000, hint=Hint.linear(file_size=100_000))
    used_before = sum(r["used"] for r in fs.df())
    fs.remove("/a")
    used_after = sum(r["used"] for r in fs.df())
    assert used_before > 0
    assert used_after == 0

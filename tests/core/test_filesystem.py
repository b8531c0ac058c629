"""File system facade tests: open modes, namespace ops, growth, io_nodes."""

import numpy as np
import pytest

from repro.core import DPFS, FileLevel, Hint
from repro.core.brick import subfile_names
from repro.errors import (
    FileExists,
    FileNotFound,
    FileSystemError,
    InvalidHint,
    PermissionDenied,
    StripingError,
)


def test_open_write_creates_file(fs):
    with fs.open("/f", "w", hint=Hint.linear()) as handle:
        handle.write(0, b"hello")
    assert fs.isfile("/f")
    assert fs.read_file("/f") == b"hello"


def test_open_write_existing_rejected(fs):
    fs.write_file("/f", b"x")
    with pytest.raises(FileExists):
        fs.open("/f", "w", hint=Hint.linear())


def test_open_read_missing_rejected(fs):
    with pytest.raises(FileNotFound):
        fs.open("/ghost", "r")


def test_open_bad_mode_rejected(fs):
    with pytest.raises(FileSystemError):
        fs.open("/f", "a")


def test_read_only_handle_rejects_write(fs):
    fs.write_file("/f", b"abc")
    with fs.open("/f", "r") as handle:
        with pytest.raises(FileSystemError):
            handle.write(0, b"x")


def test_rplus_updates_in_place(fs):
    fs.write_file("/f", b"abcdef")
    with fs.open("/f", "r+") as handle:
        handle.write(2, b"XY")
    assert fs.read_file("/f") == b"abXYef"


def test_permission_enforced(fs):
    fs.write_file("/f", b"abc")
    fs.chmod("/f", 0o200)  # write-only
    with pytest.raises(PermissionDenied):
        fs.open("/f", "r")
    fs.chmod("/f", 0o400)  # read-only
    with pytest.raises(PermissionDenied):
        fs.open("/f", "r+")
    with fs.open("/f", "r"):
        pass


def test_linear_growth_updates_metadata(fs):
    with fs.open("/f", "w", hint=Hint.linear(brick_size=64)) as handle:
        handle.write(0, b"a" * 100)       # 2 bricks
        handle.write(100, b"b" * 200)     # grows to 5 bricks
    record, bmap = fs.meta.load_file("/f")
    assert record.size == 300
    assert len(bmap) == 5
    assert fs.read_file("/f") == b"a" * 100 + b"b" * 200


def test_sparse_write_reads_zeros(fs):
    with fs.open("/f", "w", hint=Hint.linear(brick_size=16)) as handle:
        handle.write(100, b"end")
    data = fs.read_file("/f")
    assert data[:100] == b"\x00" * 100
    assert data[100:] == b"end"


def test_multidim_fixed_size_rejects_growth(fs):
    hint = Hint.multidim((8, 8), 1, (4, 4))
    with fs.open("/f", "w", hint=hint) as handle:
        with pytest.raises(StripingError):
            handle.write(0, b"x" * 100)  # 100 > 64 → would grow


def test_remove_deletes_subfiles(fs):
    fs.write_file("/f", b"data")
    name, _ = subfile_names(fs.meta.load_file("/f")[0].file_id)
    assert fs.backend.subfile_exists(0, name)
    fs.remove("/f")
    assert not fs.isfile("/f")
    assert not fs.backend.subfile_exists(0, name)
    with pytest.raises(FileNotFound):
        fs.remove("/f")


def test_namespace_operations(fs):
    fs.makedirs("/a/b")
    assert fs.isdir("/a/b")
    assert fs.exists("/a")
    assert not fs.exists("/zzz")
    fs.write_file("/a/b/f", b"x")
    assert fs.listdir("/a/b") == ([], ["f"])
    st = fs.stat("/a/b/f")
    assert st["size"] == 1 and st["filelevel"] == "linear"


def test_servers_table_reflects_backend(fs_hetero):
    rows = fs_hetero.servers()
    assert [r["performance"] for r in rows] == [1.0, 1.0, 3.0, 3.0]


def test_greedy_placement_via_hint(fs_hetero):
    hint = Hint.linear(file_size=32 * 64, brick_size=64, placement="greedy")
    with fs_hetero.open("/f", "w", hint=hint) as handle:
        counts = handle.brick_map.bricks_per_server()
    assert counts == [12, 12, 4, 4]  # 3:1 allocation, §8.2


def test_io_nodes_subset(fs):
    hint = Hint.linear(file_size=40 * 10, brick_size=10, io_nodes=2)
    with fs.open("/f", "w", hint=hint) as handle:
        counts = handle.brick_map.bricks_per_server()
    assert counts[2] == 0 and counts[3] == 0
    assert counts[0] == counts[1] == 20


def test_io_nodes_prefers_fastest(fs_hetero):
    hint = Hint.linear(file_size=100, brick_size=10, io_nodes=2)
    with fs_hetero.open("/f", "w", hint=hint) as handle:
        counts = handle.brick_map.bricks_per_server()
    # servers 0 and 1 have performance 1.0 (fastest)
    assert counts[2] == 0 and counts[3] == 0


def test_io_nodes_out_of_range_rejected(fs):
    with pytest.raises(InvalidHint):
        fs.open("/f", "w", hint=Hint.linear(io_nodes=9))


def test_write_file_array_level(fs):
    hint = Hint.array((8, 8), 8, "(BLOCK, *)", nprocs=4)
    data = np.arange(64, dtype=np.float64)
    fs.write_file("/ckpt", data.tobytes(), hint=hint)
    assert fs.read_file("/ckpt") == data.tobytes()
    st = fs.stat("/ckpt")
    assert st["filelevel"] == "array"
    assert st["geometry"]["pattern"] == "(BLOCK, *)"


def test_write_file_wrong_array_size_rejected(fs):
    hint = Hint.multidim((4, 4), 1, (2, 2))
    with pytest.raises(FileSystemError):
        fs.write_file("/f", b"too-short", hint=hint)


def test_reopen_preserves_striping(fs):
    hint = Hint.multidim((16, 16), 8, (4, 4))
    data = np.arange(256, dtype=np.float64).reshape(16, 16)
    with fs.open("/f", "w", hint=hint) as handle:
        handle.write_array((0, 0), data)
    with fs.open("/f", "r") as handle:
        assert handle.level is FileLevel.MULTIDIM
        got = handle.read_array((4, 4), (8, 8), np.float64)
    assert np.array_equal(got, data[4:12, 4:12])


def test_default_combine_flag(fs):
    fs.default_combine = False
    fs.write_file("/f", b"x" * 100)
    with fs.open("/f", "r") as handle:
        assert handle.combine is False
    with fs.open("/f", "r", combine=True) as handle:
        assert handle.combine is True

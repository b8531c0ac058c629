"""Metadata manager tests: the four §5 tables and the directory tree."""

import pytest

from repro.backends import MemoryBackend
from repro.core import BrickMap, FileLevel
from repro.core.metadata import (
    FileRecord,
    MetadataManager,
    normalize_path,
    split_path,
)
from repro.errors import (
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    InvalidPath,
)
from repro.metadb import Database

from .legacy_root import make_legacy


@pytest.fixture
def meta():
    manager = MetadataManager(Database())
    manager.register_servers(MemoryBackend(3).servers)
    return manager


def _record(path, n_bricks=6):
    return FileRecord(
        path=path,
        owner="tester",
        permission=0o744,
        size=n_bricks * 100,
        level=FileLevel.LINEAR,
        element_size=1,
        array_shape=None,
        brick_shape=None,
        brick_size=100,
        pattern=None,
        nprocs=None,
        pgrid=None,
        placement="round_robin",
        brick_sizes=[100] * n_bricks,
    )


def _bmap(n_bricks=6, n_servers=3):
    bmap = BrickMap(n_servers=n_servers)
    for i in range(n_bricks):
        bmap.append(i % n_servers, 100)
    return bmap


def _names(meta):
    return [row["server_name"] for row in meta.servers()]


# -- paths -------------------------------------------------------------------

def test_normalize_path():
    assert normalize_path("/a/b/") == "/a/b"
    assert normalize_path("a/b") == "/a/b"
    assert normalize_path("/a/./b/../c") == "/a/c"
    assert normalize_path("/") == "/"
    # POSIX root semantics: ".." at the root stays at the root
    assert normalize_path("/../etc") == "/etc"
    with pytest.raises(InvalidPath):
        normalize_path("")
    with pytest.raises(InvalidPath):
        normalize_path("/a\x00b")


def test_split_path():
    assert split_path("/a/b") == ("/a", "b")
    assert split_path("/a") == ("/", "a")
    with pytest.raises(InvalidPath):
        split_path("/")


# -- schema / servers ----------------------------------------------------------

def test_schema_created(meta):
    names = meta.db.table_names()
    assert names == [
        "dpfs_directory",
        "dpfs_file_attr",
        "dpfs_file_distribution",
        "dpfs_file_replica",
        "dpfs_server",
        "dpfs_stale_copy",
    ]


def test_register_servers_idempotent(meta):
    meta.register_servers(MemoryBackend(3).servers)
    assert len(meta.servers()) == 3


def test_root_directory_exists(meta):
    assert meta.dir_exists("/")
    assert meta.listdir("/") == ([], [])


# -- directories ---------------------------------------------------------------

def test_mkdir_and_listdir(meta):
    meta.mkdir("/home")
    meta.mkdir("/home/user")
    assert meta.listdir("/") == (["home"], [])
    assert meta.listdir("/home") == (["user"], [])


def test_mkdir_missing_parent_rejected(meta):
    with pytest.raises(FileNotFound):
        meta.mkdir("/a/b")


def test_mkdir_duplicate_rejected(meta):
    meta.mkdir("/a")
    with pytest.raises(FileExists):
        meta.mkdir("/a")


def test_makedirs(meta):
    meta.makedirs("/deep/ly/nested")
    assert meta.dir_exists("/deep/ly/nested")
    meta.makedirs("/deep/ly/nested")  # idempotent


def test_rmdir(meta):
    meta.mkdir("/a")
    meta.rmdir("/a")
    assert not meta.dir_exists("/a")
    assert meta.listdir("/") == ([], [])


def test_rmdir_nonempty_rejected(meta):
    meta.makedirs("/a/b")
    with pytest.raises(DirectoryNotEmpty):
        meta.rmdir("/a")


def test_rmdir_root_rejected(meta):
    with pytest.raises(InvalidPath):
        meta.rmdir("/")


# -- files ---------------------------------------------------------------------

def test_create_and_load_file(meta):
    meta.mkdir("/data")
    bmap = _bmap()
    meta.create_file(_record("/data/f"), bmap, _names(meta))
    record, loaded = meta.load_file("/data/f")
    assert record.path == "/data/f"
    assert record.level is FileLevel.LINEAR
    assert record.brick_sizes == [100] * 6
    assert loaded.to_lists() == bmap.to_lists()
    assert meta.listdir("/data") == ([], ["f"])


def test_create_file_in_missing_dir_rejected(meta):
    with pytest.raises(FileNotFound):
        meta.create_file(_record("/nope/f"), _bmap(), _names(meta))


def test_create_duplicate_file_rejected(meta):
    meta.create_file(_record("/f"), _bmap(), _names(meta))
    with pytest.raises(FileExists):
        meta.create_file(_record("/f"), _bmap(), _names(meta))
    # directory row unchanged: exactly one entry
    assert meta.listdir("/")[1] == ["f"]


def test_file_and_dir_name_collision_rejected(meta):
    meta.mkdir("/x")
    with pytest.raises(FileExists):
        meta.create_file(_record("/x"), _bmap(), _names(meta))


def test_load_missing_file_rejected(meta):
    with pytest.raises(FileNotFound):
        meta.load_file("/ghost")


def test_remove_file(meta):
    meta.create_file(_record("/f"), _bmap(), _names(meta))
    meta.remove_file("/f")
    assert not meta.file_exists("/f")
    assert meta.listdir("/")[1] == []
    # distribution rows cleaned up
    rows = meta.db.execute(
        "SELECT COUNT(*) FROM dpfs_file_distribution"
    ).scalar()
    assert rows == 0


def test_update_file_size(meta):
    file_id = meta.create_file(_record("/f"), _bmap(), _names(meta))
    meta.update_file_size(file_id, 999)
    record, _ = meta.load_file("/f")
    assert record.size == 999


def test_update_distribution_after_growth(meta):
    file_id = meta.create_file(_record("/f", n_bricks=3), _bmap(3), _names(meta))
    grown = _bmap(9)
    meta.grow_file(file_id, grown, [100] * 9, _names(meta), None, 900)
    record, loaded = meta.load_file("/f")
    assert len(record.brick_sizes) == 9
    assert loaded.to_lists() == grown.to_lists()


def test_set_permission_and_stat(meta):
    meta.create_file(_record("/f"), _bmap(), _names(meta))
    meta.set_permission("/f", 0o600)
    st = meta.stat("/f")
    assert st["permission"] == 0o600
    assert st["is_dir"] is False
    assert meta.stat("/")["is_dir"] is True
    with pytest.raises(FileNotFound):
        meta.stat("/ghost")


def test_iter_files_sorted(meta):
    for name in ("/c", "/a", "/b"):
        meta.create_file(_record(name), _bmap(), _names(meta))
    assert meta.iter_files() == ["/a", "/b", "/c"]


def test_distribution_rows_match_paper_schema(meta):
    """DPFS-FILE-DISTRIBUTION keys rows by server and stores bricklists
    (and by the file's id where the paper uses its name)."""
    file_id = meta.create_file(_record("/f"), _bmap(), _names(meta))
    rows = meta.db.execute(
        "SELECT server_name, bricklist FROM dpfs_file_distribution "
        "WHERE file_id = ? ORDER BY server_name",
        [file_id],
    ).rows
    assert len(rows) == 3
    all_bricks = sorted(b for row in rows for b in row["bricklist"])
    assert all_bricks == list(range(6))


# -- roots written before directories were keyed by parent --------------------

_OLD_NAMESPACE_DDL = (
    "CREATE TABLE dpfs_directory ("
    " main_dir TEXT PRIMARY KEY,"
    " sub_dirs JSON NOT NULL,"
    " files JSON NOT NULL)",
    "CREATE TABLE dpfs_file_attr ("
    " filename TEXT PRIMARY KEY,"
    " owner TEXT NOT NULL,"
    " permission INTEGER NOT NULL,"
    " size INTEGER NOT NULL,"
    " filelevel TEXT NOT NULL,"
    " element_size INTEGER NOT NULL,"
    " geometry JSON NOT NULL,"
    " placement TEXT NOT NULL)",
)


def test_root_with_directory_lists_is_rekeyed_once_at_mount(tmp_path):
    """A root whose directory rows hold ``sub_dirs`` / ``files`` lists
    is re-keyed by ``parent`` on its next mount: a stale list entry
    vanishes, an unlisted file is listed, a missing parent directory is
    created, and the lists are dropped."""
    from repro.core import DPFS, fsck

    root = tmp_path / "root"
    payload = {
        "/b": b"b" * 300,
        "/home/c": b"c" * 200,
        "/home/user/a": b"a" * 700,
        "/lost/x": b"x" * 100,
    }
    with DPFS.local(root, n_servers=3) as fs:
        fs.makedirs("/home/user")
        fs.makedirs("/lost")
        fs.mkdir("/tmp")
        for path, data in payload.items():
            fs.write_file(path, data)
    # rewrite both tables as the older schema left them
    make_legacy(root, 3)
    db = Database(root / "dpfs.meta")
    db.execute("PRAGMA foreign_keys=OFF")
    attrs = db.execute("SELECT * FROM dpfs_file_attr").rows
    db.execute("DROP TABLE dpfs_file_attr")
    db.execute("DROP TABLE dpfs_directory")
    for ddl in _OLD_NAMESPACE_DDL:
        db.execute(ddl)
    for attr in attrs:
        del attr["parent"]
        db.execute(
            "INSERT INTO dpfs_file_attr VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            list(attr.values()),
        )
    for main_dir, sub_dirs, files in [
        ("/", ["home", "tmp"], ["b", "stale"]),  # stale entry; no /lost row
        ("/home", ["user"], []),  # /home/c unlisted
        ("/home/user", [], ["a"]),
        ("/tmp", [], []),
    ]:
        db.execute(
            "INSERT INTO dpfs_directory VALUES (?, ?, ?)",
            [main_dir, sub_dirs, files],
        )
    db.close()

    for _mount in range(2):
        with DPFS.local(root, n_servers=3) as fs:
            columns = fs.db.execute("PRAGMA table_info(dpfs_directory)").rows
            assert [c["name"] for c in columns] == ["main_dir", "parent"]
            assert fs.listdir("/") == (["home", "lost", "tmp"], ["b"])
            assert fs.listdir("/home") == (["user"], ["c"])
            assert fs.listdir("/home/user") == ([], ["a"])
            assert fs.listdir("/lost") == ([], ["x"])
            assert fs.listdir("/tmp") == ([], [])
            assert fsck(fs).clean
            for path, data in payload.items():
                assert fs.read_file(path) == data
    with DPFS.local(root, n_servers=3) as fs:
        fs.rename("/home/c", "/tmp/c")
        assert fs.listdir("/home") == (["user"], [])
        assert fs.listdir("/tmp") == ([], ["c"])
        assert fs.read_file("/tmp/c") == payload["/home/c"]
        with pytest.raises(DirectoryNotEmpty):
            fs.rmdir("/home")
        fs.remove("/lost/x")
        fs.rmdir("/lost")
        assert fs.listdir("/") == (["home", "tmp"], ["b"])
        assert fsck(fs).clean

"""Integration tests for the real TCP server/client transport (§2)."""

import threading
import time

import numpy as np
import pytest

from repro.core import DPFS, Hint
from repro.core.brick import subfile_names
from repro.errors import FileSystemError, TransportError
from repro.net import DPFSServer, RemoteBackend, ServerConnection


@pytest.fixture
def server(tmp_path):
    with DPFSServer(tmp_path / "srv", performance=2.0, capacity=123456) as s:
        yield s


@pytest.fixture
def conn(server):
    c = ServerConnection(*server.address)
    yield c
    c.close()


def test_ping_reports_identity(conn):
    assert conn.info.performance == 2.0
    assert conn.info.capacity == 123456
    assert conn.info.name.startswith("dpfs://")


def test_create_exists_delete(conn):
    assert not conn.exists("/f")
    conn.create("/f")
    assert conn.exists("/f")
    assert conn.size("/f") == 0
    conn.delete("/f")
    assert not conn.exists("/f")


def test_write_read_extents(conn):
    conn.create("/f")
    conn.write("/f", [(0, 5), (100, 3)], b"hellobye")
    assert conn.read("/f", [(0, 5)]) == b"hello"
    assert conn.read("/f", [(100, 3)]) == b"bye"
    assert conn.read("/f", [(50, 2)]) == b"\x00\x00"
    assert conn.size("/f") == 103


def test_server_error_propagates_as_exception(conn):
    with pytest.raises(FileSystemError):
        conn.size("/missing")
    with pytest.raises(FileSystemError):
        conn.read("/missing", [(0, 1)])


def test_connection_survives_error(conn):
    with pytest.raises(FileSystemError):
        conn.size("/missing")
    conn.create("/ok")
    assert conn.exists("/ok")


def test_stop_is_prompt(tmp_path):
    """stop() wakes the accept loop instead of waiting out its poll."""
    server = DPFSServer(tmp_path / "srv").start()
    conn = ServerConnection(*server.address)
    conn.create("/f")
    time.sleep(0.05)  # the loop is back in select() by now
    start = time.perf_counter()
    server.stop()
    assert time.perf_counter() - start < 0.1
    conn.close()
    with pytest.raises(TransportError):
        ServerConnection(*server.address)


def test_connect_refused_raises_transport_error():
    with pytest.raises(TransportError):
        ServerConnection("127.0.0.1", 1, timeout=0.5)


def test_concurrent_clients(server):
    """Several client threads against one server — the paper's
    concurrent-handler model."""
    errors = []

    def work(n):
        try:
            c = ServerConnection(*server.address)
            name = f"/t{n}"
            c.create(name)
            payload = bytes([n]) * 1000
            c.write(name, [(0, 1000)], payload)
            assert c.read(name, [(0, 1000)]) == payload
            c.close()
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert server.requests_served >= 8 * 4


def test_remote_backend_full_stack(tmp_path):
    """The whole DPFS stack over three real TCP servers."""
    servers = [
        DPFSServer(tmp_path / f"s{i}", performance=1.0 + i).start()
        for i in range(3)
    ]
    try:
        backend = RemoteBackend([s.address for s in servers])
        fs = DPFS(backend)
        assert [row["performance"] for row in fs.servers()] == [1.0, 2.0, 3.0]

        hint = Hint.multidim((32, 32), 8, (8, 8))
        data = np.arange(1024, dtype=np.float64).reshape(32, 32)
        with fs.open("/grid", "w", hint=hint) as handle:
            handle.write_array((0, 0), data)
        with fs.open("/grid", "r") as handle:
            col = handle.read_array((0, 16), (32, 8), np.float64)
        assert np.array_equal(col, data[:, 16:24])

        # subfiles really live on the servers' local directories
        name, _ = subfile_names(fs.meta.load_file("/grid")[0].file_id)
        sizes = [
            backend.subfile_size(i, name)
            for i in range(3)
            if backend.subfile_exists(i, name)
        ]
        assert sum(sizes) >= data.nbytes

        fs.remove("/grid")
        assert not backend.subfile_exists(0, name)
        fs.close()
    finally:
        for s in servers:
            s.stop()


def test_remote_backend_needs_addresses():
    with pytest.raises(TransportError):
        RemoteBackend([])


def test_rename_over_tcp(conn):
    conn.create("/old")
    conn.write("/old", [(0, 4)], b"data")
    conn.rename("/old", "/new")
    assert not conn.exists("/old")
    assert conn.read("/new", [(0, 4)]) == b"data"


@pytest.mark.parametrize(
    "op",
    [
        lambda c: c.read("/ghost", [(0, 4)]),
        lambda c: c.write("/ghost", [(0, 4)], b"data"),
        lambda c: c.size("/ghost"),
        lambda c: c.rename("/ghost", "/elsewhere"),
    ],
    ids=["read", "write", "size", "rename"],
)
def test_missing_subfile_fails_loudly_over_tcp(conn, op):
    """The server acts on a subfile with one system call and no
    existence check first; a missing one still comes back as an error,
    which the client raises as FileSystemError, and nothing is made."""
    with pytest.raises(FileSystemError, match="No such file"):
        op(conn)
    assert not conn.exists("/ghost") and not conn.exists("/elsewhere")


def test_rename_missing_subfile_raises(conn):
    """A silent ok would let metadata and storage diverge — the server
    must report the missing subfile the same way ``size`` does, and the
    client maps it to FileSystemError like the other ops."""
    with pytest.raises(FileSystemError):
        conn.rename("/ghost", "/elsewhere")
    # the connection survives the error (no desync, no discard)
    conn.create("/ok")
    assert conn.exists("/ok")

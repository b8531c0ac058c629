"""Per-server connection pool: lazy growth, same-server overlap on the
wire, broken-socket discard, health bookkeeping, and the handler-thread
death on connection reset regression."""

import socket
import struct
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import DPFS, Hint
from repro.errors import TransportError
from repro.net import DPFSServer, RemoteBackend, ServerConnection, ServerHealth


@pytest.fixture
def server(tmp_path):
    with DPFSServer(tmp_path / "srv") as s:
        yield s


def test_pool_starts_with_one_socket(server):
    conn = ServerConnection(*server.address, pool_size=4)
    snap = conn.health_snapshot()
    assert snap["open"] == 1          # only the constructor's ping socket
    assert snap["idle"] == 1
    assert snap["health"] == "UP"
    conn.close()


def test_pool_grows_lazily_and_respects_cap(server):
    conn = ServerConnection(*server.address, pool_size=3)
    conn.create("/f")
    conn.write("/f", [(0, 64)], b"x" * 64)

    def hammer(_):
        for _i in range(20):
            assert conn.read("/f", [(0, 64)]) == b"x" * 64

    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(hammer, range(8)))
    snap = conn.health_snapshot()
    assert 1 <= snap["open"] <= 3     # grown, but never past pool_size
    assert snap["idle"] == snap["open"]  # everything checked back in
    assert snap["health"] == "UP"
    conn.close()


def test_pooled_requests_overlap_on_the_wire(tmp_path):
    """Four concurrent reads against a server with a 80 ms per-I/O delay:
    pool_size=4 pays ~one delay, pool_size=1 pays the serialized sum."""
    with DPFSServer(
        tmp_path / "srv", max_concurrent=32, io_delay_s=0.08
    ) as server:

        def timed(pool_size):
            conn = ServerConnection(*server.address, pool_size=pool_size)
            conn.create("/f")
            start = time.perf_counter()
            with ThreadPoolExecutor(max_workers=4) as pool:
                list(
                    pool.map(
                        lambda _i: conn.read("/f", [(0, 8)]), range(4)
                    )
                )
            wall = time.perf_counter() - start
            conn.close()
            return wall

        serialized = timed(1)
        pooled = timed(4)
    assert serialized >= 4 * 0.08 * 0.9
    assert pooled < 0.6 * serialized, (
        f"pooled {pooled:.3f}s should beat single-socket {serialized:.3f}s"
    )


def test_closed_pool_rejects_requests(server):
    conn = ServerConnection(*server.address)
    conn.close()
    with pytest.raises(TransportError):
        conn.exists("/f")


def test_connection_reset_does_not_kill_handler_thread(tmp_path, capfd):
    """A mid-frame RST used to escape ``_Handler.handle`` as an OSError
    and socketserver printed a handler traceback; now the connection is
    dropped quietly and the server keeps serving."""
    with DPFSServer(tmp_path / "srv") as server:
        raw = socket.create_connection(server.address)
        # half a frame, so the handler blocks inside _recv_exact...
        raw.sendall(struct.pack("!II", 64, 0) + b"partial")
        time.sleep(0.05)
        # ...then a hard reset (SO_LINGER 0 turns close() into RST)
        raw.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        raw.close()
        time.sleep(0.2)

        conn = ServerConnection(*server.address)
        conn.create("/after")
        assert conn.exists("/after")
        conn.close()
    err = capfd.readouterr().err
    assert "Traceback" not in err


def test_health_starts_up_and_metrics_export(server):
    from repro.obs import MetricsRegistry

    backend = RemoteBackend([server.address], pool_size=2)
    registry = MetricsRegistry()
    backend.bind_metrics(registry)
    assert backend.connections[0].health is ServerHealth.UP
    gauge = registry.get("dpfs_net_server_health")
    assert gauge is not None
    assert gauge.value(server=0) == ServerHealth.UP.value
    rows = backend.health()
    assert rows[0]["health"] == "UP"
    assert rows[0]["pool_size"] == 2
    backend.close()


def test_dpfs_remote_constructor_threads_knobs(tmp_path):
    with DPFSServer(tmp_path / "s0") as s0, DPFSServer(tmp_path / "s1") as s1:
        fs = DPFS.remote(
            [s0.address, s1.address],
            pool_size=2,
            timeout=7.0,
            down_after=5,
            io_workers=4,
        )
        conn = fs.backend.connections[0]
        assert conn.pool_size == 2
        assert conn.timeout == 7.0
        assert conn.down_after == 5
        payload = bytes(range(256)) * 64
        fs.write_file(
            "/f", payload, hint=Hint.linear(file_size=len(payload), brick_size=4096)
        )
        assert fs.read_file("/f") == payload
        # the mount's registry carries the health gauge for both servers
        rendered = fs.metrics.render()
        assert 'dpfs_net_server_health{server="0"} 2' in rendered
        assert 'dpfs_net_server_health{server="1"} 2' in rendered
        fs.close()

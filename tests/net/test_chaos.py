"""Chaos-proxy fault injection: every schedule of
:class:`repro.net.chaos.ChaosProxy`, the socket-desync repro, and the
acceptance scenario — a server killed and restarted mid-workload with
zero data corruption and an observable DOWN → UP transition."""

import threading
import time

import pytest

from repro.core import DPFS, Hint, fsck
from repro.errors import ConnectionLost, TransportError
from repro.net import ChaosProxy, DPFSServer, ServerConnection, ServerHealth
from repro.obs import MetricsRegistry


@pytest.fixture
def server(tmp_path):
    with DPFSServer(tmp_path / "srv") as s:
        yield s


@pytest.fixture
def proxy(server):
    with ChaosProxy(server.address) as p:
        yield p


def wait_until(predicate, timeout=5.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def test_proxy_passthrough(proxy):
    conn = ServerConnection(*proxy.address)
    conn.create("/f")
    conn.write("/f", [(0, 5)], b"hello")
    assert conn.read("/f", [(0, 5)]) == b"hello"
    assert conn.health is ServerHealth.UP
    conn.close()


def test_drop_schedule_fails_one_connection(proxy):
    conn = ServerConnection(*proxy.address)
    conn.create("/f")
    proxy.sever_all()       # kill the idle socket…
    proxy.drop_next(times=1)  # …and drop the replacement connection
    with pytest.raises(TransportError):
        conn.exists("/f")   # strike 1: dead idle socket
    # rule exhausted after one dropped dial: the pool reconnects and
    # the server answers again
    assert wait_until(lambda: _recovers(conn, "/f"))
    assert proxy.faults_fired["drop"] == 1
    conn.close()


def _recovers(conn, name):
    """True once a request makes it through the transport at all."""
    try:
        conn.exists(name)
    except TransportError:
        return False
    return True


def test_delay_schedule_holds_a_reply(proxy):
    conn = ServerConnection(*proxy.address)
    conn.create("/f")
    proxy.delay_messages(0.25, times=1)
    start = time.perf_counter()
    assert conn.exists("/f")
    assert time.perf_counter() - start >= 0.25
    assert proxy.faults_fired["delay"] == 1
    conn.close()


def test_truncate_mid_frame_is_transient_and_discards_socket(proxy):
    conn = ServerConnection(*proxy.address)
    conn.create("/f")
    conn.write("/f", [(0, 1024)], b"y" * 1024)
    proxy.truncate_next(times=1)
    with pytest.raises(ConnectionLost) as excinfo:
        conn.read("/f", [(0, 1024)])
    assert excinfo.value.transient
    snap = conn.health_snapshot()
    assert snap["discarded"] == 1
    assert snap["health"] == "DEGRADED"
    # the very next request runs on a fresh socket and sees clean bytes
    assert conn.read("/f", [(0, 1024)]) == b"y" * 1024
    assert conn.health is ServerHealth.UP
    conn.close()


def test_reconnect_counts_dials_made_while_not_up(proxy):
    """``dpfs_net_reconnects_total`` counts a successful dial made while
    the server is not UP; dials while it is UP (first socket, pool
    growth) are not reconnects."""
    conn = ServerConnection(*proxy.address, pool_size=2)
    registry = MetricsRegistry()
    conn.bind_metrics(registry, 0)
    reconnects = registry.counter("dpfs_net_reconnects_total")
    conn.create("/f")
    # grow the pool to two sockets while UP
    first, second = conn._checkout(), conn._checkout()
    conn._checkin(first)
    conn._checkin(second)
    assert conn.health_snapshot()["open"] == 2
    assert conn.health_snapshot()["reconnects"] == 0
    assert reconnects.total() == 0

    assert wait_until(lambda: proxy.live_connections() == 2)
    proxy.sever_all()   # both idle sockets die: two failures, DEGRADED
    for _ in range(2):
        with pytest.raises(ConnectionLost):
            conn.exists("/f")
    assert conn.health is ServerHealth.DEGRADED
    assert conn.exists("/f")   # one dial while DEGRADED, then UP
    assert conn.health is ServerHealth.UP
    assert conn.health_snapshot()["reconnects"] == 1
    assert reconnects.total() == 1
    conn.close()


def test_sever_after_n_messages_kills_one_connection(proxy):
    conn = ServerConnection(*proxy.address, pool_size=1)
    # constructor ping relayed 2 frames on the live pipe; the next
    # request's reply is frame 4 — sever right before forwarding it
    proxy.sever_after(4, times=1)
    with pytest.raises(ConnectionLost):
        conn.exists("/whatever")
    assert proxy.faults_fired["sever"] == 1
    assert wait_until(lambda: _recovers(conn, "/whatever"))
    conn.close()


def test_proxy_stop_is_prompt(server):
    """stop() wakes the accept loop instead of sitting out its join."""
    proxy = ChaosProxy(server.address).start()
    accept_thread = proxy._thread
    start = time.perf_counter()
    proxy.stop()
    assert time.perf_counter() - start < 1.0
    assert not accept_thread.is_alive()


# ---------------------------------------------------------------------------
# the desync repro
# ---------------------------------------------------------------------------

def test_timeout_mid_exchange_does_not_desync_the_pool(proxy, server):
    """A reply held past the client's socket timeout must never be read
    by a later request: the timed-out socket is discarded, so request 2
    gets *its* answer, not request 1's stale reply."""
    conn = ServerConnection(*proxy.address, timeout=0.2, pool_size=1)
    conn.create("/a")            # exists("/a") -> True
    proxy.delay_messages(0.6, times=1)
    with pytest.raises(ConnectionLost):
        conn.exists("/a")        # reply arrives 0.4s after the timeout
    # old single-socket behavior: this would read the stale
    # exists("/a")=True frame and answer True for a missing name
    assert conn.exists("/missing") is False
    assert conn.health_snapshot()["discarded"] == 1
    conn.close()


# ---------------------------------------------------------------------------
# kill & recover
# ---------------------------------------------------------------------------

def test_kill_mid_read_dispatcher_recovers(tmp_path):
    """A connection severed mid-read under a live DPFS mount: the
    transient ConnectionLost is absorbed by the dispatcher's budget and
    the read completes with intact bytes."""
    size = 64 * 1024
    with DPFSServer(tmp_path / "srv") as server, ChaosProxy(server.address) as proxy:
        fs = DPFS.remote(
            [proxy.address], pool_size=2, io_workers=4, io_retries=20,
            io_backoff_s=0.01,
        )
        payload = bytes(range(256)) * (size // 256)
        fs.write_file(
            "/f", payload, hint=Hint.linear(file_size=size, brick_size=4096)
        )
        proxy.sever_after(3, times=1)   # kill one live pipe mid-workload
        assert fs.read_file("/f") == payload
        assert proxy.faults_fired["sever"] >= 1
        assert fs.dispatcher.stats.retries >= 1
        fs.close()


def test_server_killed_and_restarted_mid_workload(tmp_path):
    """The acceptance scenario: the (only) server dies mid-workload and
    comes back; reads issued during the outage complete after recovery,
    no byte is corrupted, and the DOWN → UP transition is visible in the
    mount's metrics (what ``dpfs stats`` renders)."""
    size = 128 * 1024
    root = tmp_path / "srv"
    server = DPFSServer(root).start()
    proxy = ChaosProxy(server.address).start()
    fs = DPFS.remote(
        [proxy.address],
        pool_size=2,
        io_workers=4,
        io_retries=200,
        io_backoff_s=0.01,
        down_after=2,
    )
    try:
        payload = bytes((i * 7) % 256 for i in range(size))
        fs.write_file(
            "/data", payload, hint=Hint.linear(file_size=size, brick_size=8192)
        )

        # kill the server mid-workload
        server.stop()
        proxy.sever_all()
        conn = fs.backend.connections[0]

        results = []
        errors = []

        def read_through_outage():
            try:
                results.append(bytes(fs.read_file("/data")))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        reader = threading.Thread(target=read_through_outage)
        reader.start()
        # let the reader bang its head against the dead server until the
        # client marks it DOWN
        assert wait_until(lambda: conn.health is ServerHealth.DOWN, timeout=10)

        # restart on the same storage root, retarget the proxy
        server = DPFSServer(root).start()
        proxy.retarget(server.address)

        reader.join(timeout=30)
        assert not reader.is_alive(), "read never recovered after restart"
        assert not errors, f"read failed across the outage: {errors}"
        assert results and results[0] == payload, "bytes corrupted by the outage"
        assert wait_until(lambda: conn.health is ServerHealth.UP, timeout=5)

        rendered = fs.metrics.render()
        assert 'dpfs_net_server_health{server="0"} 2' in rendered
        assert 'dpfs_net_health_transitions_total{server="0",to="DOWN"}' in rendered
        assert 'dpfs_net_health_transitions_total{server="0",to="UP"}' in rendered
    finally:
        fs.close()
        proxy.stop()
        server.stop()


def test_background_probe_drives_down_to_up_without_traffic(tmp_path):
    """With ``ping_interval_s`` set, a DOWN server recovers to UP purely
    through background probes — no user request needed."""
    root = tmp_path / "srv"
    server = DPFSServer(root).start()
    proxy = ChaosProxy(server.address).start()
    from repro.net import RemoteBackend

    backend = RemoteBackend(
        [proxy.address],
        pool_size=1,
        ping_interval_s=0.05,
        down_after=1,
    )
    conn = backend.connections[0]
    try:
        server.stop()
        proxy.sever_all()
        with pytest.raises(TransportError):
            conn.exists("/x")    # dead idle socket -> failure -> DOWN
        assert conn.health is ServerHealth.DOWN

        server = DPFSServer(root).start()
        proxy.retarget(server.address)
        # no traffic from here on: the prober alone must flip the state
        assert wait_until(lambda: conn.health is ServerHealth.UP, timeout=5)
        assert conn.health_snapshot()["consecutive_failures"] == 0
    finally:
        backend.close()
        proxy.stop()
        server.stop()


# ---------------------------------------------------------------------------
# lost replies to non-idempotent fan-out ops
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "wire_op, mutate",
    [("delete", lambda fs: fs.remove("/f"))],
    ids=["remove"],
)
def test_lost_reply_to_fanout_step_is_replayed(tmp_path, wire_op, mutate):
    """The server applies a delete but its reply is lost: the
    dispatcher replays the whole fan-out step on a fresh socket, the
    replay converges instead of failing on the already-applied change,
    and the mutation completes with an empty journal and a clean fsck.
    (A rename reaches no server, so it has no reply to lose.)"""
    size = 4 * 8192
    data = bytes((3 * i) % 256 for i in range(size))
    servers = [DPFSServer(tmp_path / f"srv{i}").start() for i in range(2)]
    proxies = [ChaosProxy(s.address).start() for s in servers]
    fs = DPFS.remote(
        [p.address for p in proxies], pool_size=1, io_workers=1, io_retries=2
    )
    try:
        fs.write_file(
            "/f", data,
            hint=Hint.linear(file_size=size, brick_size=8192, replicas=2),
        )
        retries = fs.dispatcher.stats.retries
        proxies[0].lose_reply(wire_op)
        mutate(fs)
        assert proxies[0].faults_fired["sever"] == 1
        assert fs.dispatcher.stats.retries == retries + 1
        assert fs.intents.pending() == []
        assert fsck(fs).clean
        assert not fs.isfile("/f")
    finally:
        fs.close()
        for p in proxies:
            p.stop()
        for s in servers:
            s.stop()

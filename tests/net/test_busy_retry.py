"""Server overload and client retry (§4.2: un-handled requests "have to
try again later"), including busy storms under the parallel dispatch
layer's pool fan-out.  The dispatcher is the only retry loop: a
connection makes one attempt per request, so every budget here is set
through ``io_retries`` / ``io_backoff_s``."""

import threading
import time

import pytest

from repro.core import DPFS, Hint
from repro.errors import RetryExhausted, ServerBusyError, ServerError
from repro.net import DPFSServer, RemoteBackend, ServerConnection


@pytest.fixture
def busy_server(tmp_path):
    # the artificial I/O delay guarantees concurrent arrivals overlap,
    # making rejection deterministic
    with DPFSServer(
        tmp_path / "srv", max_concurrent=1, io_delay_s=0.005
    ) as server:
        yield server


def test_unlimited_server_never_rejects(tmp_path):
    with DPFSServer(tmp_path / "s") as server:
        conn = ServerConnection(*server.address)
        conn.create("/f")
        for _ in range(10):
            conn.write("/f", [(0, 10)], b"0123456789")
        assert server.requests_rejected == 0
        conn.close()


def test_flood_triggers_rejection_and_retry(busy_server):
    """Many concurrent clients against max_concurrent=1: rejections
    happen, the dispatcher's retries recover, every request eventually
    succeeds."""
    n_threads = 8
    per_thread = 5
    payload = b"x" * 4096
    hint = Hint.linear(file_size=len(payload), brick_size=len(payload))
    errors = []
    retried = []

    def work(n):
        try:
            fs = DPFS.remote(
                [busy_server.address], io_workers=1, io_retries=50,
                io_backoff_s=0.002,
            )
            name = f"/t{n}"
            fs.write_file(name, payload, hint=hint)
            with fs.open(name, "r+") as handle:
                for _ in range(per_thread):
                    handle.write(0, payload)
                    assert handle.read(0, 16) == payload[:16]
            retried.append(fs.dispatcher.stats.retries)
            fs.close()
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads), "flood never drained"
    assert not errors
    # with 8 writers against a 1-slot server, rejections are certain
    assert busy_server.requests_rejected > 0
    assert sum(retried) > 0


def test_retries_exhausted_surface_as_server_error(tmp_path):
    """Against a server that rejects every read and write, a connection
    has no retries of its own to spend: each request is rejected once
    and the rejection surfaces as a ServerError naming ServerBusy."""
    with DPFSServer(tmp_path / "s", max_concurrent=0) as server:
        conn = ServerConnection(*server.address)
        conn.create("/v")
        with pytest.raises(ServerError) as excinfo:
            conn.write("/v", [(0, 4)], b"abcd")
        assert "ServerBusy" in str(excinfo.value)
        assert server.requests_rejected == 1
        with pytest.raises(ServerError) as excinfo:
            conn.read("/v", [(0, 4)])
        assert "ServerBusy" in str(excinfo.value)
        assert server.requests_rejected == 2
        conn.close()


def test_metadata_ops_not_throttled(busy_server):
    """Only read/write are admission-controlled; create/exists/ping pass."""
    conn = ServerConnection(*busy_server.address)
    conn.create("/meta")
    assert conn.exists("/meta")
    assert conn.size("/meta") == 0
    conn.close()
    assert busy_server.requests_rejected == 0


# ---------------------------------------------------------------------------
# busy rejections × the parallel dispatch layer
# ---------------------------------------------------------------------------

def test_busy_rejection_is_typed_and_transient(tmp_path):
    """A write that arrives while a blocker provably holds the only
    slot is rejected, and the rejection surfaces from the connection as
    ServerBusyError: a ServerError marked transient for the dispatcher.
    Fails unless such a rejection is actually observed."""
    with DPFSServer(tmp_path / "s", max_concurrent=1, io_delay_s=0.05) as server:
        blocker = ServerConnection(*server.address)
        blocker.create("/big")
        victim = ServerConnection(*server.address)
        victim.create("/v")
        busy = None
        # each round waits until the blocker's write is admitted
        # (observable server state, not a timing guess); the slot then
        # stays held for >= 50 ms, so the victim's write is rejected
        for _ in range(5):
            t = threading.Thread(
                target=blocker.write, args=("/big", [(0, 1 << 20)], b"z" * (1 << 20))
            )
            t.start()
            deadline = time.monotonic() + 10
            while server._inflight == 0 and time.monotonic() < deadline:
                time.sleep(0.0005)
            try:
                victim.write("/v", [(0, 4)], b"abcd")
            except ServerBusyError as exc:
                busy = exc
            t.join(timeout=30)
            if busy is not None:
                break
        blocker.close()
        victim.close()
        assert busy is not None, "no write was ever rejected"
        assert isinstance(busy, ServerError)
        assert busy.transient
        assert "ServerBusy" in str(busy)
        assert server.requests_rejected > 0


def test_pool_fanout_drains_busy_cluster_without_deadlock(tmp_path):
    """Several DPFS clients (each with an 8-way dispatch pool) hammer
    two 1-slot servers: rejections fire, retries drain every request,
    nothing deadlocks and every byte lands."""
    n_clients = 4
    size = 64 * 1024
    with DPFSServer(
        tmp_path / "s0", max_concurrent=1, io_delay_s=0.003
    ) as s0, DPFSServer(
        tmp_path / "s1", max_concurrent=1, io_delay_s=0.003
    ) as s1:
        addresses = [s0.address, s1.address]
        clients = [
            DPFS(
                RemoteBackend(addresses),
                io_workers=8,
                io_retries=200,
                io_backoff_s=0.001,
            )
            for _ in range(n_clients)
        ]
        payloads = [bytes([i + 1]) * size for i in range(n_clients)]
        errors = []
        barrier = threading.Barrier(n_clients)

        def work(i):
            try:
                barrier.wait(timeout=30)
                clients[i].write_file(
                    f"/c{i}",
                    payloads[i],
                    hint=Hint.linear(file_size=size, brick_size=4096),
                )
                assert clients[i].read_file(f"/c{i}") == payloads[i]
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(n_clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads), "fan-out deadlocked"
        assert not errors
        # 4 clients × 8 workers against two 1-slot servers with a per-op
        # delay: overlapping arrivals are guaranteed, so the admission
        # gate must have fired and the retries must have drained it
        assert s0.requests_rejected + s1.requests_rejected > 0
        for fs in clients:
            fs.close()


def test_dispatcher_budget_covers_busy_when_connection_does_not(tmp_path):
    """The connection never retries, so §4.2 retrying is the dispatch
    layer's alone: a read issued while a blocker provably holds the
    single slot is rejected, absorbed by the dispatcher's budget, and
    still returns the right bytes."""
    size = 16 * 1024
    with DPFSServer(tmp_path / "s", max_concurrent=1, io_delay_s=0.05) as server:
        victim_fs = DPFS(
            RemoteBackend([server.address]),
            io_workers=4,
            io_retries=500,
            io_backoff_s=0.001,
        )
        payload = bytes(range(256)) * (size // 256)
        victim_fs.write_file(
            "/f", payload, hint=Hint.linear(file_size=size, brick_size=1024)
        )
        blocker = ServerConnection(*server.address)
        blocker.create("/slab")
        retries = 0
        # a couple of rounds as a safety margin: each round waits until
        # the blocker's write is *admitted* (observable server state,
        # not a timing guess), so the victim's read — arriving within
        # the >=50ms the slot stays held — is all but certain to be
        # rejected on its first attempt
        for _ in range(5):
            t = threading.Thread(
                target=blocker.write, args=("/slab", [(0, 1 << 20)], b"z" * (1 << 20))
            )
            t.start()
            deadline = time.monotonic() + 10
            while server._inflight == 0 and time.monotonic() < deadline:
                time.sleep(0.0005)
            assert server._inflight == 1, "blocker never occupied the slot"
            with victim_fs.open("/f", "r") as handle:
                assert handle.read(0, size) == payload
                retries += handle.stats.retries
            t.join(timeout=30)
            if retries > 0:
                break
        blocker.close()
        assert retries > 0, "victim never hit the admission gate"
        assert server.requests_rejected > 0
        assert victim_fs.dispatcher.stats.retries == retries
        victim_fs.close()


def test_rejected_write_makes_io_retries_plus_one_wire_attempts(tmp_path):
    """The dispatcher is the only retry loop: against a server that
    rejects every read and write, a write goes on the wire exactly
    ``io_retries + 1`` times, and ``RetryExhausted`` names that count."""
    with DPFSServer(tmp_path / "s", max_concurrent=0) as server:
        fs = DPFS.remote([server.address], io_workers=1, io_retries=2)
        try:
            start = time.perf_counter()
            with pytest.raises(RetryExhausted) as excinfo:
                fs.write_file(
                    "/f", b"x" * 4096, hint=Hint.linear(file_size=4096)
                )
            elapsed = time.perf_counter() - start
            assert server.requests_rejected == 3
            assert "after 3 attempts" in str(excinfo.value)
            assert isinstance(excinfo.value.__cause__, ServerBusyError)
            assert fs.dispatcher.stats.retries == 2
            # two dispatcher backoffs (2 ms, 4 ms) and nothing else sleeps
            assert elapsed < 2.0
        finally:
            fs.close()

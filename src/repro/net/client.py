"""Client side of the TCP transport: connection pools and the remote backend.

:class:`ServerConnection` keeps a **pool** of sockets to one DPFS
server; :class:`RemoteBackend` implements the storage-backend interface
over one pool per server, so the whole file system stack (striping,
combination, metadata) runs unchanged against real servers.

Fault model (the paper's transport assumes servers never die; real
deployments need the degraded-mode behavior systems like Lustre treat
as table stakes):

- **Pooling.**  Up to ``pool_size`` sockets per server, created lazily
  and checked out per request, so the dispatch layer's same-server
  fan-out really overlaps on the wire instead of serializing on one
  socket's lock.
- **Auto-reconnect.**  Any ``OSError``/mid-exchange framing failure
  closes and *discards* the broken socket — a desynced socket must
  never serve another request — and surfaces as
  :class:`~repro.errors.ConnectionLost`, which is transient: the
  dispatcher's retry budget replays the (idempotent) request on a fresh
  socket.  Nothing here retries: a request is one exchange and a fresh
  socket is one dial, so the dispatcher is the only retry loop.
- **Health states.**  Each server is ``UP``, ``DEGRADED`` (recent
  failure) or ``DOWN`` (``down_after`` consecutive failures).
  Background ping probes (``ping_interval_s``) and ordinary traffic
  both drive the DOWN → UP transition.  States export through the
  metrics registry and ``dpfs stats``.
"""

from __future__ import annotations

import enum
import socket
import threading
import time
from typing import Any, Sequence

from ..backends.base import ServerInfo, StorageBackend
from ..errors import (
    ChecksumError,
    ConnectionLost,
    FileSystemError,
    ProtocolError,
    ServerBusyError,
    ServerError,
    TransportError,
)
from ..obs.registry import MetricsRegistry
from ..obs.trace import current_trace_id, span
from ..util import Extent
from .protocol import recv_message, send_message

__all__ = ["ServerHealth", "ServerConnection", "RemoteBackend"]


class ServerHealth(enum.Enum):
    """Client-side view of one server's liveness.

    The numeric values are exported as the ``dpfs_net_server_health``
    gauge (2 = UP, 1 = DEGRADED, 0 = DOWN), so a time series of the
    gauge reads as a liveness trace.
    """

    DOWN = 0
    DEGRADED = 1
    UP = 2


class ServerConnection:
    """A pool of connections to one DPFS server (thread-safe).

    Requests check a socket out of the pool, run one request/reply
    exchange on it and return it; concurrent requests to the same
    server therefore overlap on distinct sockets (up to ``pool_size``)
    instead of serializing on a single socket's lock.  Sockets are
    created lazily: an idle mount holds at most the one socket the
    constructor's ping opened.

    Busy rejections (§4.2: overloaded servers tell clients to "try
    again later") surface at once as :class:`ServerBusyError`, and
    connection failures as :class:`ConnectionLost` after the broken
    socket has been discarded.  Both are marked transient: the dispatch
    layer above is the one place they are retried.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        *,
        pool_size: int = 4,
        down_after: int = 3,
    ) -> None:
        if pool_size < 1:
            raise TransportError("pool_size must be >= 1")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.pool_size = pool_size
        self.down_after = down_after

        #: pool state — guarded by the condition's lock
        self._cond = threading.Condition()
        self._idle: list[socket.socket] = []
        self._open = 0          # sockets alive (idle + checked out)
        self._closed = False
        self._health = ServerHealth.UP
        self._consecutive_failures = 0

        #: counters — guarded by ``_cond``'s lock as well (cold path)
        self._reconnects = 0
        self._discarded = 0
        self._health_transitions = 0

        #: wire metrics — unbound until the owning backend/file system
        #: shares its registry via :meth:`bind_metrics`
        self._obs: tuple | None = None
        self._op_counters: dict[str, Any] = {}
        self._health_obs: tuple | None = None

        # eager first connection: construction fails fast on an
        # unreachable address, and the ping populates ``info``
        sock = self._connect()
        with self._cond:
            self._open += 1
            self._idle.append(sock)
        self.info = self._ping()

    # -- health -------------------------------------------------------------
    @property
    def health(self) -> ServerHealth:
        with self._cond:
            return self._health

    def _set_health(self, new: ServerHealth) -> None:
        """Transition to ``new`` (caller holds ``_cond``'s lock)."""
        if new is self._health:
            return
        self._health = new
        self._health_transitions += 1
        obs = self._health_obs
        if obs is not None:
            obs[0].set(new.value)
            obs[1].inc(to=new.name)

    def _record_failure(self) -> None:
        with self._cond:
            self._consecutive_failures += 1
            if self._consecutive_failures >= self.down_after:
                self._set_health(ServerHealth.DOWN)
            else:
                self._set_health(ServerHealth.DEGRADED)

    def _record_success(self) -> None:
        with self._cond:
            self._consecutive_failures = 0
            self._set_health(ServerHealth.UP)

    def probe(self) -> bool:
        """One health probe: a ping through the pool; True on success.

        Success/failure feeds the health state exactly like a real
        request, so a probe alone drives the DOWN → UP transition.
        """
        try:
            self._call({"op": "ping"})
        except TransportError:
            return False
        return True

    def health_snapshot(self) -> dict[str, Any]:
        """Point-in-time health/pool view (``dpfs stats``, tests)."""
        with self._cond:
            return {
                "host": self.host,
                "port": self.port,
                "health": self._health.name,
                "consecutive_failures": self._consecutive_failures,
                "open": self._open,
                "idle": len(self._idle),
                "pool_size": self.pool_size,
                "reconnects": self._reconnects,
                "discarded": self._discarded,
            }

    # -- socket lifecycle ---------------------------------------------------
    def _connect(self) -> socket.socket:
        """One dial, no retry: a failure is one strike against the
        server's health and surfaces as transient :class:`ConnectionLost`
        for the dispatcher to pace.  A dial that succeeds while the
        server is not UP counts as a reconnect."""
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError as exc:
            self._record_failure()
            raise ConnectionLost(
                f"cannot connect to dpfs server at {self.host}:{self.port}: {exc}"
            ) from exc
        with self._cond:
            reconnect = self._health is not ServerHealth.UP
            if reconnect:
                self._reconnects += 1
        obs = self._health_obs
        if reconnect and obs is not None:
            obs[2].inc()
        return sock

    def _checkout(self) -> socket.socket:
        """An idle socket, a fresh one, or (pool exhausted) wait."""
        while True:
            with self._cond:
                if self._closed:
                    raise TransportError(
                        f"connection pool to {self.host}:{self.port} is closed"
                    )
                if self._idle:
                    return self._idle.pop()
                if self._open < self.pool_size:
                    self._open += 1
                    break
                self._cond.wait(timeout=1.0)
                continue
        # grow the pool outside the lock — dialing blocks
        try:
            return self._connect()
        except BaseException:
            with self._cond:
                self._open -= 1
                self._cond.notify()
            raise

    def _checkin(self, sock: socket.socket) -> None:
        with self._cond:
            if self._closed:
                self._open -= 1
                self._cond.notify()
            else:
                self._idle.append(sock)
                self._cond.notify()
                return
        try:
            sock.close()
        except OSError:  # pragma: no cover
            pass

    def _discard(self, sock: socket.socket) -> None:
        """Close a broken socket and shrink the pool — never reuse it."""
        try:
            sock.close()
        except OSError:  # pragma: no cover
            pass
        with self._cond:
            self._open -= 1
            self._discarded += 1
            self._cond.notify()
        obs = self._health_obs
        if obs is not None:
            obs[3].inc()

    def close(self) -> None:
        with self._cond:
            self._closed = True
            idle, self._idle = self._idle, []
            self._open -= len(idle)
            self._cond.notify_all()
        for sock in idle:
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass

    # -- metrics ------------------------------------------------------------
    def bind_metrics(self, registry: MetricsRegistry, server: int | None = None) -> None:
        """Record round trips into ``registry`` (per-op, labeled)."""
        label = {} if server is None else {"server": server}
        self._op_counters = {}
        self._obs = (
            registry.counter(
                "dpfs_net_requests_total", "wire requests issued"
            ),
            registry.histogram(
                "dpfs_net_roundtrip_seconds", "wire request round-trip time"
            ).labels(**label),
            registry.counter(
                "dpfs_net_bytes_sent_total", "payload bytes sent to servers"
            ).labels(**label),
            registry.counter(
                "dpfs_net_bytes_received_total", "payload bytes received from servers"
            ).labels(**label),
        )
        health_gauge = registry.gauge(
            "dpfs_net_server_health",
            "per-server health (2=UP, 1=DEGRADED, 0=DOWN)",
        )
        self._health_obs = (
            _BoundGauge(health_gauge, label),
            _TransitionCounter(registry, label),
            registry.counter(
                "dpfs_net_reconnects_total", "sockets re-established after a failure"
            ).labels(**label),
            registry.counter(
                "dpfs_net_sockets_discarded_total",
                "broken sockets closed instead of returned to the pool",
            ).labels(**label),
        )
        with self._cond:
            self._health_obs[0].set(self._health.value)

    # -- plumbing ---------------------------------------------------------
    def _call(
        self, header: dict[str, Any], payload: bytes = b""
    ) -> tuple[dict[str, Any], bytes]:
        """Exactly one request/reply exchange; every failure goes up."""
        with span(
            "net.rpc", op=header.get("op", "?"), server=f"{self.host}:{self.port}"
        ):
            rid = current_trace_id()
            if rid is not None:
                header["rid"] = rid
            start = time.perf_counter()
            sock = self._checkout()
            try:
                send_message(sock, header, payload)
                reply, data = recv_message(sock)
            except (OSError, ProtocolError) as exc:
                # mid-exchange failure: the socket may hold half a frame —
                # discard it so a stale reply can never desync a later
                # request, then surface as transient ConnectionLost
                self._discard(sock)
                self._record_failure()
                raise ConnectionLost(
                    f"I/O error talking to {self.host}:{self.port}: {exc}"
                ) from exc
            self._checkin(sock)
            self._record_success()
            obs = self._obs
            if obs is not None:
                elapsed = time.perf_counter() - start
                op = header.get("op", "?")
                bound = self._op_counters.get(op)
                if bound is None:
                    bound = self._op_counters[op] = obs[0].labels(op=op)
                bound.inc()
                obs[1].observe(elapsed)
                if payload:
                    obs[2].inc(len(payload))
                if data:
                    obs[3].inc(len(data))
            if not reply.get("ok"):
                kind = reply.get("kind", "ServerError")
                message = reply.get("error", "unknown server error")
                if kind == "FileNotFoundError":
                    raise FileSystemError(message)
                if kind == "ChecksumError":
                    raise ChecksumError(message)
                if kind == "ServerBusy":
                    raise ServerBusyError(f"{kind}: {message}")
                raise ServerError(f"{kind}: {message}")
            return reply, data

    def _ping(self) -> ServerInfo:
        reply, _ = self._call({"op": "ping"})
        return ServerInfo(
            name=str(reply.get("name", f"{self.host}:{self.port}")),
            capacity=int(reply.get("capacity", 0)),
            performance=float(reply.get("performance", 1.0)),
        )

    # -- operations -----------------------------------------------------------
    def create(self, name: str) -> None:
        self._call({"op": "create", "name": name})

    def delete(self, name: str) -> None:
        self._call({"op": "delete", "name": name})

    def exists(self, name: str) -> bool:
        reply, _ = self._call({"op": "exists", "name": name})
        return bool(reply["exists"])

    def rename(self, old: str, new: str) -> None:
        self._call({"op": "rename", "name": old, "new_name": new})

    def list(self) -> list[str]:
        reply, _ = self._call({"op": "list"})
        return list(reply.get("names", []))

    def size(self, name: str) -> int:
        reply, _ = self._call({"op": "size", "name": name})
        return int(reply["size"])

    def read(
        self, name: str, extents: Sequence[Extent], *, verify: bool = True
    ) -> bytes:
        _, data = self._call(
            {"op": "read", "name": name, "extents": [list(e) for e in extents],
             "verify": verify}
        )
        expected = sum(ln for _o, ln in extents)
        if len(data) != expected:
            raise ProtocolError(
                f"server returned {len(data)} bytes, expected {expected}"
            )
        return data

    def write(
        self,
        name: str,
        extents: Sequence[Extent],
        data: bytes | bytearray | memoryview,
    ) -> None:
        self._call(
            {"op": "write", "name": name, "extents": [list(e) for e in extents]},
            data,
        )

    def stats(self) -> dict[str, Any]:
        """Server-side observability: Prometheus text + recent span log."""
        reply, _ = self._call({"op": "stats"})
        return {
            "name": reply.get("name", f"{self.host}:{self.port}"),
            "metrics": reply.get("metrics", ""),
            "spans": reply.get("spans", []),
        }


class _BoundGauge:
    """A gauge pre-bound to one label set (the registry has no native
    bound-gauge helper; health transitions are rare, so one dict build
    per transition is fine)."""

    __slots__ = ("_gauge", "_labels")

    def __init__(self, gauge: Any, labels: dict[str, Any]) -> None:
        self._gauge = gauge
        self._labels = labels

    def set(self, value: float) -> None:
        self._gauge.set(value, **self._labels)


class _TransitionCounter:
    """Health-transition counter keeping the base label set fixed and
    adding the destination state per event."""

    __slots__ = ("_counter", "_labels")

    def __init__(self, registry: MetricsRegistry, labels: dict[str, Any]) -> None:
        self._counter = registry.counter(
            "dpfs_net_health_transitions_total",
            "server health state changes, by destination state",
        )
        self._labels = labels

    def inc(self, *, to: str) -> None:
        self._counter.inc(to=to, **self._labels)


class RemoteBackend(StorageBackend):
    """Storage backend over a set of (host, port) DPFS servers.

    ``timeout`` bounds each socket exchange; ``pool_size`` caps the
    sockets kept per server; ``down_after`` sets how many consecutive
    failures mark a server DOWN, and a nonzero ``ping_interval_s``
    starts a daemon thread that pings non-UP servers so recovery is
    noticed even on an idle mount.  Requests are never retried here:
    §4.2 busy rejections and lost connections surface as transient
    errors for the dispatcher's retry budget (``io_retries``).
    """

    def __init__(
        self,
        addresses: Sequence[tuple[str, int]],
        timeout: float = 30.0,
        *,
        pool_size: int = 4,
        down_after: int = 3,
        ping_interval_s: float | None = None,
    ) -> None:
        if not addresses:
            raise TransportError("need at least one server address")
        self.connections = [
            ServerConnection(
                host,
                port,
                timeout,
                pool_size=pool_size,
                down_after=down_after,
            )
            for host, port in addresses
        ]
        self._servers = [conn.info for conn in self.connections]
        self.ping_interval_s = ping_interval_s
        self._prober_stop = threading.Event()
        self._prober: threading.Thread | None = None
        if ping_interval_s:
            self._prober = threading.Thread(
                target=self._probe_loop, name="dpfs-net-prober", daemon=True
            )
            self._prober.start()

    def _probe_loop(self) -> None:
        """Ping every non-UP server each interval (background thread)."""
        assert self.ping_interval_s is not None
        while not self._prober_stop.wait(self.ping_interval_s):
            for conn in self.connections:
                if self._prober_stop.is_set():
                    return
                if conn.health is not ServerHealth.UP:
                    conn.probe()

    @property
    def servers(self) -> list[ServerInfo]:
        return list(self._servers)

    def bind_metrics(self, registry: MetricsRegistry) -> None:
        """Adopt a shared registry (``DPFS`` calls this with its own)."""
        for i, conn in enumerate(self.connections):
            conn.bind_metrics(registry, i)

    def server_stats(self) -> list[dict[str, Any]]:
        """Observability snapshot (metrics text + span log) per server."""
        return [conn.stats() for conn in self.connections]

    def health(self) -> list[dict[str, Any]]:
        """Per-server health/pool snapshot (``dpfs stats`` health column)."""
        return [
            {"server": i, **conn.health_snapshot()}
            for i, conn in enumerate(self.connections)
        ]

    def close(self) -> None:
        self._prober_stop.set()
        if self._prober is not None:
            self._prober.join(timeout=5)
            self._prober = None
        for conn in self.connections:
            conn.close()

    # -- backend interface ---------------------------------------------------
    def create_subfile(self, server: int, name: str) -> None:
        self._check_server(server)
        self.connections[server].create(name)

    def delete_subfile(self, server: int, name: str) -> None:
        self._check_server(server)
        self.connections[server].delete(name)

    def subfile_exists(self, server: int, name: str) -> bool:
        self._check_server(server)
        return self.connections[server].exists(name)

    def rename_subfile(self, server: int, old: str, new: str) -> None:
        self._check_server(server)
        self.connections[server].rename(old, new)

    def list_subfiles(self, server: int) -> list[str]:
        self._check_server(server)
        return self.connections[server].list()

    def subfile_size(self, server: int, name: str) -> int:
        self._check_server(server)
        return self.connections[server].size(name)

    def read_extents(
        self, server: int, name: str, extents: Sequence[Extent], *, verify: bool = True
    ) -> bytes:
        self._check_server(server)
        return self.connections[server].read(name, extents, verify=verify)

    def write_extents(
        self,
        server: int,
        name: str,
        extents: Sequence[Extent],
        data: bytes | bytearray | memoryview,
    ) -> None:
        self._check_server(server)
        self._check_payload(extents, data)
        self.connections[server].write(name, extents, data)

    def server_health(self, server: int) -> int:
        """Pool health (2=UP, 1=DEGRADED, 0=DOWN) — replicated reads use
        this to route around a server the pool already knows is dead."""
        self._check_server(server)
        return self.connections[server].health.value

"""The DPFS server program (§2).

One server process sits on one storage device, stores subfiles on its
local file system, and services client requests — "the server ... uses
the local file system API to actually perform I/O".  Concurrency comes
from a thread per connection (the paper's servers "spawn multiple
processes or threads" per request); actual disk I/O is serialized by
one lock, mirroring the sequential nature of the device.  A write
hashes the bricks it touched under that lock and returns their
``(crc, version)``, so clients never read a brick back to checksum it.

Run standalone::

    dpfs server --root /scratch/dpfs0 --port 7001

or embedded (tests)::

    with DPFSServer(root, port=0) as server:
        ... connect to server.address ...
"""

from __future__ import annotations

import os
import socket
import socketserver
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any

from ..backends.base import VersionClock
from ..backends.local import (
    create_subfile,
    delete_subfile,
    escape_subfile_name,
    read_subfile,
    write_subfile,
)
from ..core.checksum import CRC_ALGORITHM
from ..errors import ProtocolError
from ..obs.registry import MetricsRegistry
from ..util import Extent
from .protocol import MAX_PAYLOAD, OPS, recv_message, send_message

__all__ = ["DPFSServer"]


def _parse_bricks(raw: Any) -> list[Extent]:
    """The ``(local_offset, size)`` brick list of a write header.

    Checked before the write is applied, so a rejected request leaves
    the subfile untouched: bricks must not overlap, and each must be
    non-empty and no larger than the wire's payload limit (the server
    reads each whole brick back to hash it).
    """
    try:
        bricks = [(int(off), int(size)) for off, size in raw]
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed brick list: {exc}") from None
    end = 0
    for off, size in sorted(bricks):
        if off < end or not 0 < size <= MAX_PAYLOAD:
            raise ProtocolError(f"invalid or overlapping brick ({off}, {size})")
        end = off + size
    return bricks


class _Handler(socketserver.BaseRequestHandler):
    """One thread per client connection; loops over framed requests."""

    server: "_TCPServer"

    def handle(self) -> None:
        sock: socket.socket = self.request
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        while True:
            try:
                header, payload = recv_message(sock)
            except (ProtocolError, OSError):
                # closed, reset (ECONNRESET raises OSError inside
                # _recv_exact, not ProtocolError) or garbage: drop the
                # connection quietly instead of killing the handler
                # thread with an unhandled-exception traceback
                return
            try:
                reply, data = self.server.owner._dispatch(header, payload)
            except Exception as exc:  # noqa: BLE001 - reported to the client
                reply, data = (
                    {
                        "ok": False,
                        "error": str(exc),
                        "kind": type(exc).__name__,
                    },
                    b"",
                )
            try:
                send_message(sock, reply, data)
            except OSError:
                return


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    owner: "DPFSServer"


class ServerBusy(Exception):
    """§4.2: "This could make a server too busy to handle all the
    requests ... The un-handled requests have to try again later."  The
    server rejects work beyond ``max_concurrent`` with this error; the
    client retries with backoff."""


class DPFSServer:
    """A storage server bound to a root directory."""

    def __init__(
        self,
        root: str | os.PathLike[str],
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        name: str | None = None,
        capacity: int = 1 << 30,
        performance: float = 1.0,
        max_concurrent: int | None = None,
        io_delay_s: float = 0.0,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.capacity = capacity
        self.performance = performance
        self.max_concurrent = max_concurrent
        #: artificial per-I/O delay (testing aid: makes overload windows
        #: deterministic)
        self.io_delay_s = io_delay_s
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._tcp = _TCPServer((host, port), _Handler)
        self._tcp.owner = self
        self.name = name or f"dpfs://{self.address[0]}:{self.address[1]}"
        self._thread: threading.Thread | None = None
        self._io_lock = threading.Lock()
        self._clock = VersionClock()
        self.requests_served = 0
        self.requests_rejected = 0
        #: server-side observability: every op is counted and timed in
        #: the registry; requests carrying a client request id (``rid``)
        #: additionally land in a bounded span log so ``dpfs trace`` can
        #: match server time to the client's trace
        self.metrics = MetricsRegistry()
        self._c_requests = self.metrics.counter(
            "dpfs_server_requests_total", "requests served, by op"
        )
        self._c_rejected = self.metrics.counter(
            "dpfs_server_rejected_total", "requests rejected at the admission gate"
        )
        self._h_seconds = self.metrics.histogram(
            "dpfs_server_request_seconds", "request service time, by op"
        )
        self._c_read_bytes = self.metrics.counter(
            "dpfs_server_bytes_read_total", "payload bytes served by reads"
        )
        self._c_written_bytes = self.metrics.counter(
            "dpfs_server_bytes_written_total", "payload bytes applied by writes"
        )
        self._g_inflight = self.metrics.gauge(
            "dpfs_server_inflight_requests", "read/write requests in service"
        )
        self.span_log: deque[dict[str, Any]] = deque(maxlen=256)

    # -- lifecycle ---------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        return self._tcp.server_address  # type: ignore[return-value]

    def start(self) -> "DPFSServer":
        self._thread = threading.Thread(
            target=self._tcp.serve_forever, name=f"dpfs-server-{self.address[1]}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        try:
            # wakes serve_forever's select() at once instead of at its
            # next 0.5 s poll, so shutdown() below returns promptly
            self._tcp.socket.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._tcp.shutdown()
        self._tcp.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "DPFSServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- request dispatch -----------------------------------------------------
    def _path(self, name: str) -> str:
        return os.path.join(self.root, escape_subfile_name(name))

    def _dispatch(self, header: dict[str, Any], payload: bytes) -> tuple[dict[str, Any], bytes]:
        op = header.get("op")
        if op not in OPS:
            raise ProtocolError(f"unknown operation {op!r}")
        rid = header.get("rid")
        start = time.perf_counter()
        try:
            reply, data = self._admit_and_dispatch(op, header, payload)
        except Exception:
            self._observe(op, rid, time.perf_counter() - start, payload, None, error=True)
            raise
        self._observe(op, rid, time.perf_counter() - start, payload, data)
        if rid is not None:
            reply.setdefault("rid", rid)
        return reply, data

    def _admit_and_dispatch(
        self, op: str, header: dict[str, Any], payload: bytes
    ) -> tuple[dict[str, Any], bytes]:
        if self.max_concurrent is not None and op in ("read", "write"):
            with self._inflight_lock:
                if self._inflight >= self.max_concurrent:
                    self.requests_rejected += 1
                    self._c_rejected.inc(op=op)
                    raise ServerBusy(
                        f"server at {self.max_concurrent} concurrent "
                        f"requests; try again later"
                    )
                self._inflight += 1
                self._g_inflight.set(self._inflight)
            try:
                if self.io_delay_s:
                    time.sleep(self.io_delay_s)
                return self._dispatch_inner(op, header, payload)
            finally:
                with self._inflight_lock:
                    self._inflight -= 1
                    self._g_inflight.set(self._inflight)
        return self._dispatch_inner(op, header, payload)

    def _observe(
        self,
        op: str,
        rid: Any,
        elapsed_s: float,
        payload: bytes,
        data: bytes | None,
        *,
        error: bool = False,
    ) -> None:
        """Registry + span-log bookkeeping for one serviced request."""
        self._c_requests.inc(op=op)
        self._h_seconds.observe(elapsed_s, op=op)
        if op == "read" and data:
            self._c_read_bytes.inc(len(data))
        elif op == "write" and payload:
            self._c_written_bytes.inc(len(payload))
        if rid is not None:
            record = {
                "rid": rid,
                "op": op,
                "name": f"server.{op}",
                "duration_s": elapsed_s,
                "at": time.time(),
                "nbytes": len(data) if op == "read" and data else len(payload),
            }
            if error:
                record["error"] = True
            self.span_log.append(record)

    def _dispatch_inner(
        self, op: str, header: dict[str, Any], payload: bytes
    ) -> tuple[dict[str, Any], bytes]:
        self.requests_served += 1
        if op == "ping":
            return (
                {
                    "ok": True,
                    "name": self.name,
                    "capacity": self.capacity,
                    "performance": self.performance,
                },
                b"",
            )
        if op == "stats":
            return (
                {
                    "ok": True,
                    "name": self.name,
                    "metrics": self.metrics.render(),
                    "spans": list(self.span_log),
                },
                b"",
            )
        if op == "list":
            from ..backends.local import unescape_subfile_name

            names = sorted(
                unescape_subfile_name(p.name)
                for p in self.root.iterdir()
                if p.is_file()
            )
            return {"ok": True, "names": names}, b""
        name = header.get("name")
        if not isinstance(name, str) or not name:
            raise ProtocolError("missing subfile name")
        # a missing subfile raises FileNotFoundError, which the client
        # turns back into a FileSystemError: a silent ok would let
        # metadata and storage diverge unnoticed
        path = self._path(name)
        if op == "create":
            create_subfile(path)
            return {"ok": True}, b""
        if op == "delete":
            delete_subfile(path)
            return {"ok": True}, b""
        if op == "exists":
            return {"ok": True, "exists": os.path.exists(path)}, b""
        if op == "rename":
            new_name = header.get("new_name")
            if not isinstance(new_name, str) or not new_name:
                raise ProtocolError("rename needs new_name")
            os.replace(path, self._path(new_name))
            return {"ok": True}, b""
        if op == "size":
            return {"ok": True, "size": os.stat(path).st_size}, b""
        extents = [
            (int(off), int(ln)) for off, ln in header.get("extents", [])
        ]
        for off, ln in extents:
            if off < 0 or ln < 0:
                raise ProtocolError(f"invalid extent ({off}, {ln})")
        if op == "read":
            with self._io_lock:
                return {"ok": True}, read_subfile(path, extents)
        # write
        total = sum(ln for _o, ln in extents)
        if total != len(payload):
            raise ProtocolError(
                f"extents cover {total} bytes but payload is {len(payload)}"
            )
        bricks = _parse_bricks(header.get("bricks", []))
        algo = str(header.get("brick_algo", CRC_ALGORITHM))
        with self._io_lock:
            crcs = write_subfile(path, extents, payload, bricks, algo, self._clock)
        return {"ok": True, "crcs": crcs}, b""

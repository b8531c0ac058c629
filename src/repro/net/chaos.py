"""Fault-injecting TCP proxy (testing aid).

Sits between a DPFS client and a real :class:`~repro.net.server.DPFSServer`
and misbehaves on a deterministic schedule, so tests can kill a live
server mid-read and assert the client's connection pool recovers.  The
scheduling API mirrors :class:`repro.backends.faulty.FaultyBackend`
(``*_next`` rules with a ``times`` budget, ``heal()``, a
``faults_fired`` tally)::

    proxy = ChaosProxy(server.address)
    proxy.start()
    backend = RemoteBackend([proxy.address])

    proxy.drop_next(times=2)          # refuse the next two connections
    proxy.delay_messages(0.2, times=1)  # hold the next reply 200 ms
    proxy.truncate_next()             # cut the next reply mid-frame
    proxy.corrupt_next()              # flip a payload byte in the next frame
    proxy.sever_after(3)              # kill one connection after 3 msgs
    proxy.lose_reply("rename")        # relay a rename, cut before its reply
    proxy.sever_all()                 # kill every live connection now
    proxy.retarget(new_address)       # upstream restarted elsewhere
    proxy.heal()                      # drop every rule

The proxy is frame-aware: it relays whole wire-protocol messages
(8-byte prefix + header + payload), so ``truncate_next`` can cut a
frame exactly in half — the victim sees a clean "connection closed
mid-message" desync, the worst case the client must survive — and
``sever_after`` counts real messages, not bytes.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any

__all__ = ["ChaosProxy"]

_PREFIX = struct.Struct("!II")


def _read_exact(sock: socket.socket, nbytes: int) -> bytes | None:
    """Read exactly ``nbytes``; None on EOF/reset (pump terminates)."""
    chunks: list[bytes] = []
    remaining = nbytes
    while remaining > 0:
        try:
            chunk = sock.recv(min(remaining, 1 << 20))
        except OSError:
            return None
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


@dataclass
class _Rule:
    """One scheduled misbehavior (mirrors ``faulty._Rule``)."""

    kind: str                       # drop | delay | truncate | corrupt | sever
    times: int | None = None        # None = forever
    delay_s: float = 0.0
    after_messages: int = 0
    direction: str | None = None    # "c2s" | "s2c" | None = both
    op: str | None = None           # sever: only the reply to this op
    fired: int = 0

    def live(self) -> bool:
        return self.times is None or self.fired < self.times

    def matches(self, kind: str, direction: str) -> bool:
        if self.kind != kind or not self.live():
            return False
        return self.direction is None or self.direction == direction


class _Pipe:
    """One proxied connection: two pump threads, one message counter."""

    def __init__(
        self, proxy: "ChaosProxy", client: socket.socket, upstream: socket.socket
    ) -> None:
        self.proxy = proxy
        self.client = client
        self.upstream = upstream
        self.messages = 0           # relayed frames, both directions
        self.last_op: str | None = None  # op of the last request relayed
        self._dead = False
        self._lock = threading.Lock()
        self._threads = [
            threading.Thread(
                target=self._pump, args=(client, upstream, "c2s"),
                name="chaos-c2s", daemon=True,
            ),
            threading.Thread(
                target=self._pump, args=(upstream, client, "s2c"),
                name="chaos-s2c", daemon=True,
            ),
        ]

    def start(self) -> None:
        for t in self._threads:
            t.start()

    def sever(self) -> None:
        """Kill both halves now (idempotent)."""
        with self._lock:
            if self._dead:
                return
            self._dead = True
        for sock in (self.client, self.upstream):
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        self.proxy._forget(self)

    def _pump(self, src: socket.socket, dst: socket.socket, direction: str) -> None:
        while True:
            prefix = _read_exact(src, _PREFIX.size)
            if prefix is None:
                break
            header_len, payload_len = _PREFIX.unpack(prefix)
            body = _read_exact(src, header_len + payload_len)
            if body is None:
                break
            if direction == "c2s":
                # set before the request is relayed, so it is in place
                # before the server can reply
                self.last_op = json.loads(body[:header_len]).get("op")
            delay_s, verdict = self.proxy._on_message(self, direction, payload_len)
            if delay_s:
                time.sleep(delay_s)
            if verdict == "corrupt":
                # flip one bit mid-payload: the frame still parses, the
                # receiver's wire checksum is what must catch it
                mutated = bytearray(body)
                mutated[header_len + payload_len // 2] ^= 0x01
                body = bytes(mutated)
            if verdict == "truncate":
                # forward the prefix plus half the body, then cut: the
                # receiver is left waiting mid-frame until the close
                try:
                    dst.sendall(prefix + body[: max(1, len(body) // 2)])
                except OSError:
                    pass
                break
            if verdict == "sever":
                break
            try:
                dst.sendall(prefix + body)
            except OSError:
                break
        self.sever()


class ChaosProxy:
    """A TCP proxy in front of one DPFS server, with fault schedules."""

    def __init__(
        self,
        upstream: tuple[str, int],
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._upstream = (upstream[0], upstream[1])
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(64)
        self.address: tuple[str, int] = self._listener.getsockname()
        self._rules: list[_Rule] = []
        self._rules_lock = threading.Lock()
        self._pipes: set[_Pipe] = set()
        self._pipes_lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._closed = False
        self.faults_fired: dict[str, int] = defaultdict(int)
        self.connections_total = 0

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "ChaosProxy":
        self._thread = threading.Thread(
            target=self._accept_loop, name=f"chaos-proxy-{self.address[1]}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._closed = True
        try:
            # close() alone does not wake a thread blocked in accept()
            # on Linux; shutdown() does, so the join below is prompt
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:  # pragma: no cover
            pass
        self.sever_all()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "ChaosProxy":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def retarget(self, upstream: tuple[str, int]) -> None:
        """Point new connections at a restarted upstream server."""
        with self._rules_lock:
            self._upstream = (upstream[0], upstream[1])

    # -- scheduling (mirrors FaultyBackend) --------------------------------
    def drop_next(self, times: int = 1) -> None:
        """Close the next ``times`` accepted connections immediately."""
        with self._rules_lock:
            self._rules.append(_Rule("drop", times))

    def delay_messages(
        self,
        delay_s: float,
        times: int | None = None,
        *,
        direction: str | None = "s2c",
    ) -> None:
        """Hold each of the next ``times`` messages for ``delay_s``."""
        with self._rules_lock:
            self._rules.append(
                _Rule("delay", times, delay_s=delay_s, direction=direction)
            )

    def truncate_next(self, times: int = 1, *, direction: str | None = "s2c") -> None:
        """Cut the next ``times`` frames in half, then sever the pipe."""
        with self._rules_lock:
            self._rules.append(_Rule("truncate", times, direction=direction))

    def corrupt_next(self, times: int = 1, *, direction: str | None = "s2c") -> None:
        """Flip one payload byte in each of the next ``times`` frames
        that carry a payload (header-only frames pass untouched)."""
        with self._rules_lock:
            self._rules.append(_Rule("corrupt", times, direction=direction))

    def sever_after(self, n_messages: int, times: int = 1) -> None:
        """Kill a connection once it has relayed ``n_messages`` frames
        (``times`` counts affected connections)."""
        with self._rules_lock:
            self._rules.append(_Rule("sever", times, after_messages=n_messages))

    def lose_reply(self, op: str, times: int = 1) -> None:
        """Relay the next ``times`` requests whose op is ``op``, then kill
        the connection instead of relaying the reply: the server has
        done the work and the client never hears of it."""
        with self._rules_lock:
            self._rules.append(_Rule("sever", times, direction="s2c", op=op))

    def sever_all(self) -> None:
        """Kill every live proxied connection right now (server death)."""
        with self._pipes_lock:
            pipes = list(self._pipes)
        for pipe in pipes:
            pipe.sever()

    def heal(self) -> None:
        """Drop every fault rule."""
        with self._rules_lock:
            self._rules.clear()

    def live_connections(self) -> int:
        with self._pipes_lock:
            return len(self._pipes)

    # -- plumbing ----------------------------------------------------------
    def _forget(self, pipe: _Pipe) -> None:
        with self._pipes_lock:
            self._pipes.discard(pipe)

    def _should_drop(self) -> bool:
        with self._rules_lock:
            for rule in self._rules:
                if rule.matches("drop", "accept"):
                    rule.fired += 1
                    self.faults_fired["drop"] += 1
                    return True
        return False

    def _on_message(
        self, pipe: _Pipe, direction: str, payload_len: int = 0
    ) -> tuple[float, str]:
        """(delay_s, verdict) for one relayed frame; counts the frame."""
        delay_s = 0.0
        verdict = "pass"
        with self._rules_lock:
            pipe.messages += 1
            for rule in self._rules:
                if rule.matches("delay", direction):
                    rule.fired += 1
                    self.faults_fired["delay"] += 1
                    delay_s += rule.delay_s
            for rule in self._rules:
                if payload_len and rule.matches("corrupt", direction):
                    rule.fired += 1
                    self.faults_fired["corrupt"] += 1
                    return delay_s, "corrupt"
            for rule in self._rules:
                if rule.matches("truncate", direction):
                    rule.fired += 1
                    self.faults_fired["truncate"] += 1
                    return delay_s, "truncate"
            for rule in self._rules:
                if (
                    rule.matches("sever", direction)
                    and pipe.messages >= rule.after_messages
                    and rule.op in (None, pipe.last_op)
                ):
                    rule.fired += 1
                    self.faults_fired["sever"] += 1
                    return delay_s, "sever"
        return delay_s, verdict

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                client, _addr = self._listener.accept()
            except OSError:
                return  # listener closed
            self.connections_total += 1
            if self._should_drop():
                try:
                    client.close()
                except OSError:  # pragma: no cover
                    pass
                continue
            with self._rules_lock:
                upstream_addr = self._upstream
            try:
                upstream = socket.create_connection(upstream_addr, timeout=10)
            except OSError:
                # upstream dead: the client sees a reset, exactly what a
                # crashed server looks like
                try:
                    client.close()
                except OSError:  # pragma: no cover
                    pass
                continue
            client.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            upstream.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            pipe = _Pipe(self, client, upstream)
            with self._pipes_lock:
                self._pipes.add(pipe)
            pipe.start()

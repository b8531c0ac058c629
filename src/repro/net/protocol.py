"""Wire protocol between DPFS clients and servers.

The paper's clients talk to servers with BSD sockets over TCP/IP (§2).
We use a simple framed protocol: every message is

====================  =====================================================
8-byte prefix         ``!II`` — JSON header length, binary payload length
header (JSON, UTF-8)  ``{"op": ..., "name": ..., "extents": [[off, len]...]}``
payload (binary)      write data / read results
====================  =====================================================

Operations::

    ping            liveness + server info
    create          create a subfile
    delete          delete a subfile
    exists          does a subfile exist
    size            physical subfile size
    read            extent-list read  → payload; the server checks every
                    4 KiB chunk it covers against the subfile's sidecar
                    and fails the request with ``kind: ChecksumError``
                    on a mismatch (``"verify": false`` skips the check)
    write           extent-list write (payload attached); the server
                    re-stamps the sidecar entries of the chunks it
                    touched
    rename          rename a subfile (``new_name`` field)
    list            names of every subfile on the server
    stats           server observability: Prometheus text + span log

Responses carry ``{"ok": true, ...}`` or ``{"ok": false, "error": ...,
"kind": ...}``; errors re-raise client-side as the matching DPFS
exception type.

Messages with a payload carry a ``crc`` header field — the payload's
checksum, computed with the algorithm named by ``crc_algo`` (defaults
to the sender's :data:`repro.checksum.CRC_ALGORITHM`).
``recv_message`` verifies it and raises :class:`ProtocolError` on a
mismatch, so a flipped bit anywhere between the two ends surfaces as a
transport error (and a dispatcher retry) instead of silent corruption.
A receiver that does not know the named algorithm skips verification
rather than rejecting good data.

Any request may carry a ``rid`` field — the client-side trace's request
id.  Servers record it with their per-request span log (returned by the
``stats`` op) and echo it in the reply, so one id correlates the client
and server halves of the same I/O.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any

from ..checksum import CRC_ALGORITHM, checksum, checksum_fn
from ..errors import ProtocolError

__all__ = [
    "MAX_HEADER",
    "MAX_PAYLOAD",
    "send_message",
    "recv_message",
    "OPS",
]

_PREFIX = struct.Struct("!II")

#: sanity bounds so a corrupt prefix cannot allocate gigabytes
MAX_HEADER = 1 << 20          # 1 MiB of JSON
MAX_PAYLOAD = 1 << 31         # 2 GiB of data

OPS = frozenset(
    {
        "ping", "create", "delete", "exists", "size", "read", "write",
        "rename", "list", "stats",
    }
)


def send_message(
    sock: socket.socket,
    header: dict[str, Any],
    payload: bytes | bytearray | memoryview = b"",
) -> None:
    """Send one framed message (payloads are checksummed end-to-end).

    The payload is never copied into the frame: the prefix and header
    go out as one buffer and the payload as a second, gathered by
    ``sendmsg``.
    """
    if len(payload) > MAX_PAYLOAD:
        raise ProtocolError(
            f"payload too large: {len(payload)} bytes exceeds the "
            f"{MAX_PAYLOAD}-byte wire limit; split the request"
        )
    if payload:
        header = dict(header, crc=checksum(payload), crc_algo=CRC_ALGORITHM)
    raw_header = json.dumps(header, separators=(",", ":")).encode("utf-8")
    if len(raw_header) > MAX_HEADER:
        raise ProtocolError(f"header too large: {len(raw_header)} bytes")
    _send_all(sock, [_PREFIX.pack(len(raw_header), len(payload)) + raw_header, payload])


def _send_all(sock: socket.socket, buffers: list) -> None:
    """``sendmsg`` the buffers in order, resuming after partial sends."""
    views = [memoryview(b).cast("B") for b in buffers if len(b)]
    while views:
        sent = sock.sendmsg(views)
        while sent:
            head = views[0]
            if sent < len(head):
                views[0] = head[sent:]
                break
            sent -= len(head)
            views.pop(0)


def _recv_exact(sock: socket.socket, nbytes: int) -> bytearray:
    """Read exactly ``nbytes`` into one buffer, or raise on EOF.  The
    buffer starts at 1 MiB at most and doubles only once the bytes fill
    it, so a corrupt length prefix followed by EOF allocates little."""
    buf = bytearray(min(nbytes, 1 << 20))
    got = 0
    while got < nbytes:
        if got == len(buf):
            buf += bytes(min(len(buf), nbytes - len(buf)))
        n = sock.recv_into(memoryview(buf)[got:])
        if not n:
            raise ProtocolError(
                f"connection closed mid-message ({nbytes - got} bytes missing)"
            )
        got += n
    return buf


def recv_message(sock: socket.socket) -> tuple[dict[str, Any], bytes]:
    """Receive one framed message (the payload as the ``bytearray`` it
    was received into); raises ProtocolError on malformed input."""
    prefix = _recv_exact(sock, _PREFIX.size)
    header_len, payload_len = _PREFIX.unpack(prefix)
    if header_len > MAX_HEADER:
        raise ProtocolError(f"declared header length {header_len} too large")
    if payload_len > MAX_PAYLOAD:
        raise ProtocolError(f"declared payload length {payload_len} too large")
    raw_header = _recv_exact(sock, header_len)
    try:
        header = json.loads(raw_header.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed message header: {exc}") from exc
    if not isinstance(header, dict):
        raise ProtocolError("message header must be a JSON object")
    payload = _recv_exact(sock, payload_len) if payload_len else b""
    if payload and "crc" in header:
        _verify_payload(header, payload)
    return header, payload


def _verify_payload(header: dict[str, Any], payload: bytes) -> None:
    """Check the payload against the header's ``crc`` field."""
    try:
        crc = checksum_fn(str(header.get("crc_algo", CRC_ALGORITHM)))
    except KeyError:
        return  # peer used an algorithm we don't know; don't reject good data
    actual = crc(payload, 0)
    if actual != header["crc"]:
        raise ProtocolError(
            f"payload checksum mismatch: header says {header['crc']}, "
            f"payload hashes to {actual} — corrupted in transit"
        )

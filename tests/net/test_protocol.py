"""Wire protocol framing tests over a socketpair."""

import socket
import struct
import threading

import pytest

from repro.errors import ProtocolError
from repro.net.protocol import MAX_HEADER, recv_message, send_message


@pytest.fixture
def pair():
    a, b = socket.socketpair()
    yield a, b
    a.close()
    b.close()


def test_roundtrip_header_only(pair):
    a, b = pair
    send_message(a, {"op": "ping"})
    header, payload = recv_message(b)
    assert header == {"op": "ping"}
    assert payload == b""


def test_roundtrip_with_payload(pair):
    a, b = pair
    blob = bytes(range(256)) * 10
    send_message(a, {"op": "write", "extents": [[0, len(blob)]]}, blob)
    header, payload = recv_message(b)
    assert header["op"] == "write"
    assert payload == blob


def test_multiple_messages_in_sequence(pair):
    a, b = pair
    for i in range(5):
        send_message(a, {"seq": i}, bytes([i]))
    for i in range(5):
        header, payload = recv_message(b)
        assert header["seq"] == i
        assert payload == bytes([i])


def test_large_payload_chunked_delivery(pair):
    a, b = pair
    blob = b"z" * (1 << 20)

    def sender():
        send_message(a, {"op": "read"}, blob)

    t = threading.Thread(target=sender)
    t.start()
    header, payload = recv_message(b)
    t.join()
    assert payload == blob


def test_eof_mid_message_raises(pair):
    a, b = pair
    a.sendall(struct.pack("!II", 100, 0))  # promises 100-byte header
    a.close()
    with pytest.raises(ProtocolError):
        recv_message(b)


def test_oversized_header_rejected(pair):
    a, b = pair
    a.sendall(struct.pack("!II", MAX_HEADER + 1, 0))
    with pytest.raises(ProtocolError):
        recv_message(b)


def test_malformed_json_rejected(pair):
    a, b = pair
    garbage = b"not json!!"
    a.sendall(struct.pack("!II", len(garbage), 0) + garbage)
    with pytest.raises(ProtocolError):
        recv_message(b)


def test_non_object_header_rejected(pair):
    a, b = pair
    body = b"[1, 2, 3]"
    a.sendall(struct.pack("!II", len(body), 0) + body)
    with pytest.raises(ProtocolError):
        recv_message(b)


def test_send_oversized_header_rejected(pair):
    a, _b = pair
    with pytest.raises(ProtocolError):
        send_message(a, {"x": "y" * (MAX_HEADER + 1)})


def test_send_oversized_payload_rejected(pair, monkeypatch):
    import repro.net.protocol as protocol

    monkeypatch.setattr(protocol, "MAX_PAYLOAD", 1024)
    a, _b = pair
    with pytest.raises(ProtocolError, match="payload too large"):
        send_message(a, {"op": "write"}, b"x" * 2048)


def test_oversized_declared_payload_rejected(pair):
    from repro.net.protocol import MAX_PAYLOAD

    a, b = pair
    a.sendall(struct.pack("!II", 2, MAX_PAYLOAD + 1))
    with pytest.raises(ProtocolError):
        recv_message(b)


def test_payload_crc_attached_and_verified(pair):
    a, b = pair
    send_message(a, {"op": "write"}, b"hello")
    header, payload = recv_message(b)
    assert "crc" in header and "crc_algo" in header
    assert payload == b"hello"


def test_payload_crc_mismatch_rejected(pair):
    a, b = pair
    raw = b'{"op":"read","crc":1,"crc_algo":"crc32"}'
    a.sendall(struct.pack("!II", len(raw), 5) + raw + b"hello")
    with pytest.raises(ProtocolError, match="checksum"):
        recv_message(b)


def test_unknown_crc_algo_skips_verification(pair):
    a, b = pair
    raw = b'{"op":"read","crc":1,"crc_algo":"sha999"}'
    a.sendall(struct.pack("!II", len(raw), 5) + raw + b"hello")
    _header, payload = recv_message(b)
    assert payload == b"hello"


def test_header_only_frames_carry_no_crc(pair):
    a, b = pair
    send_message(a, {"op": "ping"})
    header, _ = recv_message(b)
    assert "crc" not in header


class _TrickleSocket:
    """Accepts at most ``step`` bytes per ``sendmsg`` call (and fails
    once far more than one frame was sent, so a sender that never
    advances cannot loop forever)."""

    def __init__(self, step):
        self.step = step
        self.sent = bytearray()
        self.calls = 0
        self.first_call = None

    def sendmsg(self, buffers):
        if len(self.sent) > 1 << 16:
            raise AssertionError("sender re-sent bytes it already sent")
        self.calls += 1
        if self.first_call is None:
            self.first_call = [len(b) for b in buffers]
        budget = self.step
        for buf in buffers:
            take = bytes(buf[:budget])
            self.sent += take
            budget -= len(take)
            if not budget:
                break
        return self.step - budget


@pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
def test_partial_sendmsg_delivers_frame_byte_exact(pair, kind):
    """The payload goes out as its own scatter-gather buffer, and a
    send that takes only part of the frame resumes where it stopped."""
    blob = bytes(range(256)) * 5
    fake = _TrickleSocket(step=7)
    send_message(fake, {"op": "write", "extents": [[0, len(blob)]]}, kind(blob))
    assert fake.calls == -(-len(fake.sent) // 7)
    assert len(fake.first_call) == 2 and fake.first_call[1] == len(blob)

    reference = _TrickleSocket(step=1 << 30)
    send_message(reference, {"op": "write", "extents": [[0, len(blob)]]}, blob)
    assert fake.sent == reference.sent

    a, b = pair
    a.sendall(fake.sent)
    header, payload = recv_message(b)
    assert header["op"] == "write"
    assert payload == blob


@pytest.mark.parametrize("size", [0, 4096, 8 << 20])
def test_payload_received_into_one_buffer(pair, size):
    """0 B, 4 KiB and 8 MiB payloads arrive byte-exact, each in the one
    ``bytearray`` it was received into."""
    a, b = pair
    blob = bytes(range(256)) * (size // 256)
    sender = threading.Thread(target=send_message, args=(a, {"op": "read"}, blob))
    sender.start()
    _header, payload = recv_message(b)
    sender.join()
    assert payload == blob
    assert isinstance(payload, bytearray) or size == 0


def test_declared_max_payload_then_eof_allocates_little(pair):
    """A prefix declaring the largest payload, then EOF: ProtocolError,
    and the receive buffer never grew past its first megabyte."""
    import tracemalloc

    from repro.net.protocol import MAX_PAYLOAD

    a, b = pair
    header = b'{"op":"read"}'
    a.sendall(struct.pack("!II", len(header), MAX_PAYLOAD) + header + b"x" * 100)
    a.shutdown(socket.SHUT_WR)
    tracemalloc.start()
    try:
        with pytest.raises(ProtocolError, match="closed mid-message"):
            recv_message(b)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20

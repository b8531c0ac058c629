"""The write path: one wire request per touched copy, and the servers
that store a brick return its checksum.

Every backend implements ``write_extents(..., bricks, crc_algo) ->
[(crc, version)]``; the handle commits the checksum of the lowest-index
copy that took a write, and metadata keeps it unless the stored one was
stamped by the same server with a newer version.
"""

import re
import time

import pytest

from repro.backends.faulty import FaultyBackend
from repro.backends.local import LocalBackend
from repro.backends.memory import MemoryBackend
from repro.backends.simulated import SimulatedBackend
from repro.core import DPFS, Hint, scrub
from repro.core.checksum import CRC_ALGORITHM, checksum
from repro.errors import ChecksumError, ServerError
from repro.net import DPFSServer, RemoteBackend
from repro.net.protocol import MAX_PAYLOAD
from repro.netsim import CLASS1

BRICK = 4096


def payload(n, salt=0):
    return bytes((7 * i + 13 + salt) % 256 for i in range(n))


@pytest.fixture
def servers(tmp_path):
    started = [DPFSServer(tmp_path / f"s{i}").start() for i in range(3)]
    yield started
    for s in started:
        s.stop()


@pytest.fixture(params=["memory", "local", "simulated", "faulty", "remote"])
def backend(request, tmp_path):
    kind = request.param
    if kind == "memory":
        yield MemoryBackend(2)
    elif kind == "local":
        yield LocalBackend(tmp_path / "local", 2)
    elif kind == "simulated":
        yield SimulatedBackend([CLASS1] * 2)
    elif kind == "faulty":
        yield FaultyBackend(MemoryBackend(2))
    else:
        started = [DPFSServer(tmp_path / f"s{i}").start() for i in range(2)]
        remote = RemoteBackend([s.address for s in started])
        yield remote
        remote.close()
        for s in started:
            s.stop()


# -- the backend contract ----------------------------------------------------

def test_backend_returns_checksums_of_the_stored_bricks(backend):
    """A brick covered whole and a partially written one both match the
    bytes a read returns."""
    backend.create_subfile(0, "/f")
    backend.write_extents(0, "/f", [(0, 2 * BRICK)], payload(2 * BRICK))
    extents = [(BRICK + 100, 50), (2 * BRICK, BRICK)]
    data = payload(50, 1) + payload(BRICK, 2)
    bricks = [(BRICK, BRICK), (2 * BRICK, BRICK)]
    crcs = backend.write_extents(0, "/f", extents, data, bricks, CRC_ALGORITHM)
    assert len(crcs) == 2
    for (off, size), (crc, _version) in zip(bricks, crcs):
        assert crc == checksum(backend.read_extents(0, "/f", [(off, size)]))


def test_backend_hashes_sparse_tail_as_zeros(backend):
    backend.create_subfile(0, "/f")
    ((crc, _),) = backend.write_extents(
        0, "/f", [(0, 10)], b"x" * 10, [(0, BRICK)], CRC_ALGORITHM
    )
    assert crc == checksum(b"x" * 10 + bytes(BRICK - 10))


def test_backend_versions_increase_per_server(backend):
    backend.create_subfile(0, "/f")
    versions = [
        backend.write_extents(
            0, "/f", [(0, 4)], b"abcd", [(0, BRICK)], CRC_ALGORITHM
        )[0][1]
        for _ in range(5)
    ]
    assert versions == sorted(set(versions))


def test_backend_without_bricks_returns_nothing(backend):
    backend.create_subfile(0, "/f")
    assert backend.write_extents(0, "/f", [(0, 4)], b"abcd") == []


def test_backend_copies_a_memoryview_payload(backend):
    """The caller may reuse its buffer as soon as write_extents returns."""
    backend.create_subfile(0, "/f")
    buf = bytearray(b"a" * 64)
    backend.write_extents(0, "/f", [(0, 32), (100, 32)], memoryview(buf))
    buf[:] = b"b" * 64
    assert backend.read_extents(0, "/f", [(0, 32), (100, 32)]) == b"a" * 64


def test_unknown_algorithm_yields_unknown_checksum(backend):
    backend.create_subfile(0, "/f")
    ((crc, version),) = backend.write_extents(
        0, "/f", [(0, 4)], b"abcd", [(0, BRICK)], "no-such-crc"
    )
    assert crc is None and version > 0


@pytest.mark.parametrize(
    "bricks",
    [
        [(0, 8), (4, 8)],
        [(8, 8), (0, 9)],
        [(0, 0)],
        [(-1, 8)],
        [(0, MAX_PAYLOAD + 1)],
        [(0,)],
    ],
)
def test_server_rejects_a_bad_brick_list_before_writing(tmp_path, bricks):
    """Overlapping, empty, negative or oversized bricks fail the request
    with ProtocolError, and the write is not applied."""
    with DPFSServer(tmp_path / "s") as server:
        remote = RemoteBackend([server.address])
        try:
            remote.create_subfile(0, "/f")
            remote.write_extents(0, "/f", [(0, 16)], b"a" * 16)
            with pytest.raises(ServerError, match="ProtocolError"):
                remote.write_extents(
                    0, "/f", [(0, 16)], b"b" * 16, bricks, CRC_ALGORITHM
                )
            assert remote.read_extents(0, "/f", [(0, 16)]) == b"a" * 16
        finally:
            remote.close()


def test_brick_touched_twice_is_hashed_after_both_extents():
    """Two extents of one request land in one brick: the checksum covers
    the bytes both left behind."""
    backend = MemoryBackend(1)
    backend.create_subfile(0, "/f")
    data = b"a" * BRICK + b"Z"
    ((crc, _),) = backend.write_extents(
        0, "/f", [(0, BRICK), (5, 1)], data, [(0, BRICK)], CRC_ALGORITHM
    )
    assert crc == checksum(b"a" * 5 + b"Z" + b"a" * (BRICK - 6))


# -- metadata ordering -------------------------------------------------------

def test_metadata_keeps_the_newest_version():
    fs = DPFS.memory(2)
    hint = Hint.linear(file_size=2 * BRICK, brick_size=BRICK)
    fs.write_file("/f", bytes(2 * BRICK), hint)
    meta = fs.meta

    def stored():
        record, _ = meta.load_file("/f")
        return record.brick_crcs[0], record.brick_crc_versions[0]

    _, (name, v0) = stored()
    assert meta.update_brick_crcs("/f", {0: 11}, {0: (name, v0 + 100)}) == {0: 11}
    assert meta.update_brick_crcs("/f", {0: 22}, {0: (name, v0 + 50)}) == {}
    assert stored() == (11, [name, v0 + 100])
    assert meta.update_brick_crcs("/f", {0: 33}, {0: (name, v0 + 101)}) == {0: 33}
    # a scrub-style update sets the crc and keeps the stored stamp
    assert meta.update_brick_crcs("/f", {0: 44}) == {0: 44}
    assert stored() == (44, [name, v0 + 101])
    # another server's clock is not compared: its stamp replaces
    assert meta.update_brick_crcs("/f", {0: 55}, {0: ("other", 1)}) == {0: 55}
    assert stored() == (55, ["other", 1])
    assert meta.update_brick_crcs("/f", {0: 66}, {0: (name, v0)}) == {0: 66}
    assert stored() == (66, [name, v0])


def test_growth_extends_the_version_list():
    fs = DPFS.memory(2)
    hint = Hint.linear(file_size=BRICK, brick_size=BRICK)
    fs.write_file("/f", payload(BRICK), hint)
    with fs.open("/f", "r+") as h:
        h.write(BRICK, payload(2 * BRICK))
    record, bmap = fs.meta.load_file("/f")
    assert len(record.brick_crc_versions) == len(bmap) == 3
    assert all(v is not None for v in record.brick_crc_versions)
    assert scrub(fs).clean


def test_replica_clock_running_ahead_does_not_mask_later_writes():
    """A degraded write takes its checksum from a replica whose clock
    runs far ahead; the next write's checksum, from the primary with a
    lower version, must still be committed, so the brick verifies."""
    inner = MemoryBackend(3)
    backend = FaultyBackend(inner)
    fs = DPFS(backend)
    hint = Hint.linear(file_size=BRICK, brick_size=BRICK, replicas=2)
    fs.write_file("/f", payload(BRICK), hint)
    record, bmap = fs.meta.load_file("/f")
    primary = bmap.location(0).server
    (rloc,) = fs.meta.load_replica_map("/f", record).locations(0)
    inner._clocks[rloc.server]._last = time.time_ns() + 10**15  # ~12 days
    backend.fail_on("write", server=primary)
    with fs.open("/f", "r+") as h:
        h.write(100, payload(50, 1))
    backend.heal()
    assert fs.metrics.counter("dpfs_write_degraded_total").total() == 1
    fresh = payload(BRICK, 2)
    with fs.open("/f", "r+") as h:
        h.write(0, fresh)
    record, _ = fs.meta.load_file("/f")
    assert record.brick_crcs[0] == checksum(fresh)
    assert fs.read_file("/f") == fresh
    assert fs.metrics.counter("dpfs_checksum_errors_total").total() == 0
    assert scrub(fs).clean


# -- stale checksums held by an open reader ----------------------------------

def _rewrite_under_open_reader(fs, hint):
    data = payload(2 * BRICK)
    fs.write_file("/f", data, hint)
    reader = fs.open("/f", "r")
    fresh = payload(BRICK, 5)
    with fs.open("/f", "r+") as writer:
        writer.write(0, fresh)
    return reader, fresh


def test_reader_sees_brick_rewritten_by_another_handle():
    fs = DPFS.memory(2)
    reader, fresh = _rewrite_under_open_reader(
        fs, Hint.linear(file_size=2 * BRICK, brick_size=BRICK)
    )
    assert reader.read(0, BRICK) == fresh
    assert fs.metrics.counter("dpfs_checksum_errors_total").total() == 0


def test_replicated_reader_does_not_quarantine_a_good_copy():
    fs = DPFS.memory(3)
    reader, fresh = _rewrite_under_open_reader(
        fs, Hint.linear(file_size=2 * BRICK, brick_size=BRICK, replicas=2)
    )
    assert reader.read(0, BRICK) == fresh
    assert not fs.quarantine
    assert fs.metrics.counter("dpfs_read_failovers_total").total() == 0
    assert fs.metrics.counter("dpfs_repairs_total").total() == 0
    assert fs.metrics.counter("dpfs_checksum_errors_total").total() == 0


def test_real_corruption_still_detected_after_refresh():
    fs = DPFS.memory(2)
    hint = Hint.linear(file_size=BRICK, brick_size=BRICK)
    fs.write_file("/f", payload(BRICK), hint)
    _, bmap = fs.meta.load_file("/f")
    loc = bmap.location(0)
    with fs.open("/f", "r") as h:
        fs.backend.write_extents(
            loc.server, "/f", [(loc.local_offset, 1)], b"\xff"
        )
        with pytest.raises(ChecksumError):
            h.read(0, BRICK)


# -- over TCP: one request per touched copy ----------------------------------

def _op_counts(fs, op):
    pattern = re.compile(rf'^dpfs_server_requests_total\{{op="{op}"\}} (\S+)$', re.M)
    counts = []
    for stats in fs.backend.server_stats():
        match = pattern.search(stats["metrics"])
        counts.append(int(float(match.group(1))) if match else 0)
    return counts


@pytest.mark.parametrize("replicas", [1, 2])
def test_partial_writes_issue_one_write_per_copy_and_no_reads(servers, replicas):
    fs = DPFS.remote([s.address for s in servers])
    try:
        size = 8 * 16 * BRICK
        hint = Hint.linear(file_size=size, brick_size=16 * BRICK, replicas=replicas)
        fs.write_file("/f", bytes(size), hint)
        reads, writes = _op_counts(fs, "read"), _op_counts(fs, "write")
        n = 12
        with fs.open("/f", "r+") as h:
            for i in range(n):
                # inside one brick, never covering it whole
                offset = (i % 8) * 16 * BRICK + (i // 8) * 2 * BRICK + 512
                h.write(offset, payload(BRICK, i))
        assert _op_counts(fs, "read") == reads
        added = [b - a for a, b in zip(writes, _op_counts(fs, "write"))]
        assert sum(added) == n * replicas
        assert scrub(fs).clean
    finally:
        fs.close()


def test_checksum_comes_from_the_lowest_index_copy():
    """A replica that had drifted hashes differently after a partial
    write; the primary's checksum is the one committed, so scrub finds
    the replica, not the primary, at fault."""
    from repro.core.brick import replica_subfile

    fs = DPFS.memory(3)
    hint = Hint.linear(file_size=BRICK, brick_size=BRICK, replicas=2)
    fs.write_file("/f", payload(BRICK), hint)
    record, bmap = fs.meta.load_file("/f")
    (rloc,) = fs.meta.load_replica_map("/f", record).locations(0)
    fs.backend.write_extents(
        rloc.server, replica_subfile("/f"), [(rloc.local_offset + 9, 1)], b"?"
    )
    with fs.open("/f", "r+") as h:
        h.write(100, b"new")
    record, _ = fs.meta.load_file("/f")
    ploc = bmap.location(0)
    primary = fs.backend.read_extents(ploc.server, "/f", [(ploc.local_offset, BRICK)])
    assert record.brick_crcs[0] == checksum(primary)
    (finding,) = scrub(fs).findings
    assert finding.kind == "checksum-mismatch" and finding.server == rloc.server

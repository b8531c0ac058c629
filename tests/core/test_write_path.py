"""The write path: one wire request per touched copy, and the servers
that store a brick keep its checksums, one per 4 KiB chunk.

Every backend implements ``write_extents(server, name, extents, data)``,
which re-stamps the sidecar entry of each chunk the extents touch, and
``read_extents``, which verifies every chunk it covers.  No checksum
travels back to the client or into metadata.
"""

import re

import pytest

from repro.backends.chunks import CHUNK_SIZE
from repro.backends.faulty import FaultyBackend
from repro.backends.local import LocalBackend, escape_subfile_name
from repro.backends.memory import MemoryBackend
from repro.backends.simulated import SimulatedBackend
from repro.core import DPFS, Hint, scrub
from repro.core.brick import subfile_names
from repro.errors import ChecksumError, ServerError
from repro.net import DPFSServer, RemoteBackend
from repro.netsim import CLASS1

from ..rot import rot, rot_file

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
        remote.roots = [s.root for s in started]  # where rot() finds the bytes
        yield remote
        remote.close()
        for s in started:
            s.stop()


def rot_any(backend, server, name, offset, data):
    if isinstance(backend, RemoteBackend):
        rot_file(backend.roots[server] / escape_subfile_name(name), offset, data)
    else:
        rot(backend, server, name, offset, data)


# -- the backend contract ----------------------------------------------------

def test_backend_keeps_checksums_of_the_stored_chunks(backend):
    """After a whole-chunk and a partial write, reads at any offset
    verify; a stored byte changed behind the server's back fails every
    read covering its chunk, and no other."""
    backend.create_subfile(0, "/f")
    backend.write_extents(0, "/f", [(0, 2 * BRICK)], payload(2 * BRICK))
    extents = [(BRICK + 100, 50), (2 * BRICK, BRICK)]
    backend.write_extents(0, "/f", extents, payload(50, 1) + payload(BRICK, 2))
    expected = bytearray(payload(2 * BRICK))
    expected[BRICK + 100 : BRICK + 150] = payload(50, 1)
    expected += payload(BRICK, 2)
    assert backend.read_extents(0, "/f", [(0, 3 * BRICK)]) == expected
    assert backend.read_extents(0, "/f", [(BRICK + 90, 20)]) == expected[
        BRICK + 90 : BRICK + 110
    ]
    rot_any(backend, 0, "/f", BRICK + 7, b"\x00")
    for off, ln in [(BRICK, 1), (2 * BRICK - 1, 1), (BRICK - 10, 20)]:
        with pytest.raises(ChecksumError):
            backend.read_extents(0, "/f", [(off, ln)])
    assert backend.read_extents(0, "/f", [(0, BRICK), (2 * BRICK, 10)]) == (
        expected[:BRICK] + expected[2 * BRICK : 2 * BRICK + 10]
    )


def test_backend_hashes_sparse_tail_as_zeros(backend):
    """A chunk's checksum covers the part past the subfile's end as
    zeros, and a chunk no write reached verifies as zeros."""
    backend.create_subfile(0, "/f")
    backend.write_extents(0, "/f", [(0, 10)], b"x" * 10)
    assert backend.read_extents(0, "/f", [(0, BRICK)]) == b"x" * 10 + bytes(BRICK - 10)
    assert backend.read_extents(0, "/f", [(3 * CHUNK_SIZE, 10)]) == bytes(10)


def test_backend_without_bricks_returns_nothing(backend):
    """A write takes no brick list and returns nothing: its server keeps
    the checksums."""
    backend.create_subfile(0, "/f")
    assert backend.write_extents(0, "/f", [(0, 4)], b"abcd") is None
    assert backend.read_extents(0, "/f", [(0, 4)]) == b"abcd"


def test_backend_copies_a_memoryview_payload(backend):
    """The caller may reuse its buffer as soon as write_extents returns."""
    backend.create_subfile(0, "/f")
    buf = bytearray(b"a" * 64)
    backend.write_extents(0, "/f", [(0, 32), (100, 32)], memoryview(buf))
    buf[:] = b"b" * 64
    assert backend.read_extents(0, "/f", [(0, 32), (100, 32)]) == b"a" * 64


@pytest.mark.parametrize(
    "extents",
    [
        [(-1, 16)],
        [(0, 8), (8, -8)],
        [(0, 15)],
        [(0, 17)],
        [("x", 16)],
        [(0,)],
    ],
)
def test_server_rejects_a_bad_extent_list_before_writing(tmp_path, extents):
    """Negative, malformed, or payload-disagreeing extents fail the
    request, and the write is not applied."""
    with DPFSServer(tmp_path / "s") as server:
        remote = RemoteBackend([server.address])
        try:
            remote.create_subfile(0, "/f")
            remote.write_extents(0, "/f", [(0, 16)], b"a" * 16)
            with pytest.raises(ServerError, match="ProtocolError"):
                # past the client's own payload check, straight to the wire
                remote.connections[0].write("/f", extents, b"b" * 16)
            assert remote.read_extents(0, "/f", [(0, 16)]) == b"a" * 16
        finally:
            remote.close()


def test_brick_touched_twice_is_hashed_after_both_extents():
    """Two extents of one request land in one chunk: its checksum covers
    the bytes both left behind."""
    backend = MemoryBackend(1)
    backend.create_subfile(0, "/f")
    backend.write_extents(0, "/f", [(0, BRICK), (5, 1)], b"a" * BRICK + b"Z")
    assert backend.read_extents(0, "/f", [(0, BRICK)]) == (
        b"a" * 5 + b"Z" + b"a" * (BRICK - 6)
    )


# -- no written flags --------------------------------------------------------

def test_growth_keeps_no_written_flags():
    fs = DPFS.memory(2)
    hint = Hint.linear(file_size=BRICK, brick_size=BRICK)
    fs.write_file("/f", payload(BRICK), hint)
    with fs.open("/f", "r+") as h:
        h.write(BRICK, payload(2 * BRICK))
    _record, bmap = fs.meta.load_file("/f")
    assert len(bmap) == 3 and "written" not in fs.stat("/f")["geometry"]
    assert fs.read_file("/f") == payload(BRICK) + payload(2 * BRICK)
    assert scrub(fs).clean


def test_unwritten_bricks_stay_unmarked():
    """A brick's first write changes no metadata: the attr row stays as
    the create left it, and the bricks never written read as zeros."""
    fs = DPFS.memory(2)
    hint = Hint.linear(file_size=4 * BRICK, brick_size=BRICK)
    with fs.open("/f", "w", hint=hint) as h:
        created = fs.stat("/f")
        h.write(BRICK + 1, b"x")
    assert fs.stat("/f") == created
    assert fs.read_file("/f") == bytes(BRICK + 1) + b"x" + bytes(3 * BRICK - 2)


# -- a brick rewritten under an open reader -----------------------------------

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
    assert not fs.stale_copies
    assert fs.metrics.counter("dpfs_read_failovers_total").total() == 0
    assert fs.metrics.counter("dpfs_repairs_total").total() == 0
    assert fs.metrics.counter("dpfs_checksum_errors_total").total() == 0


def test_real_corruption_still_detected_after_refresh():
    fs = DPFS.memory(2)
    hint = Hint.linear(file_size=BRICK, brick_size=BRICK)
    fs.write_file("/f", payload(BRICK), hint)
    record, bmap = fs.meta.load_file("/f")
    loc = bmap.location(0)
    with fs.open("/f", "r") as h:
        rot(fs.backend, loc.server, subfile_names(record.file_id)[0], loc.local_offset, b"\xff")
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
    """A replica that had drifted still differs after a partial write;
    its bytes, and so its checksums, are the ones that lose to the
    primary's, so scrub finds the replica, not the primary, at fault."""
    fs = DPFS.memory(3)
    hint = Hint.linear(file_size=BRICK, brick_size=BRICK, replicas=2)
    fs.write_file("/f", payload(BRICK), hint)
    record, bmap = fs.meta.load_file("/f")
    (rloc,) = fs.meta.load_replica_map(record).locations(0)
    name, rname = subfile_names(record.file_id)
    fs.backend.write_extents(
        rloc.server, rname, [(rloc.local_offset + 9, 1)], b"?"
    )
    with fs.open("/f", "r+") as h:
        h.write(100, b"new")
    ploc = bmap.location(0)
    primary = fs.backend.read_extents(ploc.server, name, [(ploc.local_offset, BRICK)])
    (finding,) = scrub(fs).findings
    assert finding.kind == "replica-divergence" and finding.server == rloc.server
    assert all(f.repaired for f in scrub(fs, repair=True).findings)
    assert fs.backend.read_extents(
        rloc.server, rname, [(rloc.local_offset, BRICK)]
    ) == primary
    assert fs.read_file("/f") == primary


# -- degraded writes and the stale list ----------------------------------------

def _degraded_write(fs, backend, patch):
    """Write ``patch`` over brick 0 of a replicated /f while its primary's
    server fails every write; returns that server."""
    hint = Hint.linear(file_size=2 * BRICK, brick_size=BRICK, replicas=2)
    fs.write_file("/f", payload(2 * BRICK), hint)
    primary = fs.meta.load_file("/f")[1].location(0).server
    backend.fail_on("write", server=primary)
    with fs.open("/f", "r+") as h:
        h.write(0, patch)
    backend.heal()
    return primary


def test_degraded_write_lists_the_missed_copy_and_scrub_clears_it():
    backend = FaultyBackend(MemoryBackend(3))
    fs = DPFS(backend, io_retries=0)
    gauge = fs.metrics.gauge("dpfs_stale_copies")
    primary = _degraded_write(fs, backend, payload(BRICK, 9))
    file_id = fs.meta.load_file("/f")[0].file_id
    assert fs.metrics.counter("dpfs_write_degraded_total").total() == 1
    assert fs.stale_copies == fs.meta.stale_copies() == {(file_id, 0, primary)}
    assert gauge.value() == 1
    (finding,) = scrub(fs).findings
    assert finding.kind == "stale-copy" and finding.server == primary
    assert all(f.repaired for f in scrub(fs, repair=True).findings)
    assert gauge.value() == 0 and fs.meta.stale_copies() == set()
    assert scrub(fs).clean
    assert fs.read_file("/f") == payload(BRICK, 9) + payload(2 * BRICK)[BRICK:]


def test_read_after_a_degraded_write_skips_the_stale_copy_after_remount():
    """The missed copy is the primary, which reads prefer; a fresh mount
    of the same metadata still serves the new bytes from the replica."""
    backend = FaultyBackend(MemoryBackend(3))
    fs = DPFS(backend, io_retries=0)
    patch = payload(BRICK, 5)
    _degraded_write(fs, backend, patch)
    remounted = DPFS(backend, fs.db)
    assert remounted.read_file("/f")[:BRICK] == patch
    assert remounted.metrics.gauge("dpfs_stale_copies").value() == 1


def test_a_live_mount_sees_copies_another_mount_listed_stale():
    """Two mounts share the metadata; one writes degraded after the
    other mounted.  The other's next open reads the stale list again,
    so it serves the new bytes rather than the missed primary's."""
    backend = FaultyBackend(MemoryBackend(3))
    fs = DPFS(backend, io_retries=0)
    other = DPFS(backend, fs.db)
    patch = payload(BRICK, 6)
    _degraded_write(fs, backend, patch)
    assert other.read_file("/f")[:BRICK] == patch
    assert other.metrics.gauge("dpfs_stale_copies").value() == 1


def test_local_sidecar_moves_from_attribute_to_file(tmp_path):
    """A small subfile's checksums live in an attribute of it; once they
    outgrow it, a sidecar file takes over every entry, the ones the
    attribute held included, and delete leaves nothing behind."""
    import os

    from repro.backends.local import SIDECAR_SUFFIX, XATTR

    backend = LocalBackend(tmp_path, 1)
    backend.create_subfile(0, "7")
    backend.write_extents(0, "7", [(0, BRICK)], payload(BRICK))
    path = backend._path(0, "7")
    assert os.listxattr(path) == [XATTR]
    assert not os.path.exists(path + SIDECAR_SUFFIX)
    big = 80 * CHUNK_SIZE
    backend.write_extents(0, "7", [(BRICK, big)], payload(big, 1))
    assert os.path.exists(path + SIDECAR_SUFFIX)
    assert backend.list_subfiles(0) == ["7"]
    whole = backend.read_extents(0, "7", [(0, BRICK + big)])
    assert whole == payload(BRICK) + payload(big, 1)
    rot(backend, 0, "7", 10, b"\xff")
    with pytest.raises(ChecksumError):
        backend.read_extents(0, "7", [(0, 20)])
    backend.delete_subfile(0, "7")
    assert os.listdir(tmp_path / "server_0") == []

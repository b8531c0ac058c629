"""Brick replication: placement, writes fanning to all copies, degraded
reads with transparent failover, inline read-repair, and namespace ops."""

import pytest

from repro.backends.faulty import FaultyBackend
from repro.backends.memory import MemoryBackend
from repro.core import DPFS, Hint
from repro.core.brick import ReplicaMap, file_id_of, subfile_names
from repro.core.placement import Greedy, RoundRobin, build_replicated_maps
from repro.errors import ChecksumError, InvalidHint, PlacementError

from ..rot import rot

BRICK = 4 * 1024


def make_fs(n_servers=3, **kwargs):
    backend = FaultyBackend(MemoryBackend(n_servers))
    return DPFS(backend, io_retries=2, **kwargs), backend


def rhint(size, replicas=2):
    return Hint.linear(file_size=size, brick_size=BRICK, replicas=replicas)


def payload(n):
    return bytes((7 * i + 13) % 256 for i in range(n))


def corrupt_copy(fs, path, brick_id, copy):
    """Garble one stored copy of a brick behind its server's back."""
    record, bmap = fs.meta.load_file(path)
    name, rname = subfile_names(record.file_id)
    if copy == 0:
        loc = bmap.location(brick_id)
    else:
        rmap = fs.meta.load_replica_map(record)
        loc = rmap.locations(brick_id)[copy - 1]
        name = rname
    rot(fs.backend, loc.server, name, loc.local_offset, b"\xde" * loc.size)
    return loc.server


# -- placement ---------------------------------------------------------------

def test_assign_replicas_distinct_servers():
    for policy in (RoundRobin(4), Greedy([1.0, 1.0, 3.0, 3.0])):
        for _ in range(8):
            servers = policy.assign_replicas(3)
            assert len(servers) == len(set(servers)) == 3


def test_assign_replicas_more_copies_than_servers():
    with pytest.raises(PlacementError):
        RoundRobin(2).assign_replicas(3)


def test_build_replicated_maps_no_colocated_copies():
    bmap, rmap = build_replicated_maps(Greedy([1.0] * 4), [BRICK] * 10, replicas=3)
    for brick_id in range(10):
        servers = {bmap.location(brick_id).server}
        servers.update(loc.server for loc in rmap.locations(brick_id))
        assert len(servers) == 3


def test_replica_map_rejects_brick_twice_on_one_server():
    with pytest.raises(PlacementError):
        ReplicaMap.build(2, [[0, 0], []], [BRICK])


def test_replica_subfile_naming_cannot_collide():
    # no file's replica subfile can shadow any file's primary one, and
    # each name leads back to its own file
    primaries = {subfile_names(i)[0] for i in range(1, 200)}
    replicas = {subfile_names(i)[1] for i in range(1, 200)}
    assert len(primaries) == len(replicas) == 199
    assert not primaries & replicas
    assert all(file_id_of(subfile_names(i)[1]) == i for i in range(1, 200))


# -- create / layout ---------------------------------------------------------

def test_create_replicated_file_layout():
    fs, _ = make_fs(3)
    data = payload(3 * BRICK)
    with fs.open("/f", "w", rhint(len(data), replicas=2)) as h:
        h.write(0, data)
    record, bmap = fs.meta.load_file("/f")
    assert record.replicas == 2
    rmap = fs.meta.load_replica_map(record)
    for brick_id in range(len(bmap)):
        locs = rmap.locations(brick_id)
        assert len(locs) == 1
        assert locs[0].server != bmap.location(brick_id).server
    assert "written" not in fs.stat("/f")["geometry"]
    assert fs.read_file("/f") == data


def test_replicas_exceeding_servers_rejected():
    fs, _ = make_fs(2)
    with pytest.raises(InvalidHint):
        fs.open("/f", "w", rhint(BRICK, replicas=3))


def test_zero_replicas_rejected():
    with pytest.raises(InvalidHint):
        Hint.linear(file_size=BRICK, replicas=0).validate()


def test_df_accounts_replica_bytes():
    fs, _ = make_fs(3)
    data = payload(3 * BRICK)
    fs.write_file("/f", data, rhint(len(data), replicas=2))
    used = sum(row["used"] for row in fs.df())
    assert used == 2 * 3 * BRICK


def test_unreplicated_files_have_no_replica_subfiles():
    fs, _ = make_fs(3)
    fs.write_file("/f", payload(2 * BRICK))
    _, rname = subfile_names(fs.meta.load_file("/f")[0].file_id)
    for server in range(3):
        assert rname not in fs.backend.list_subfiles(server)


# -- degraded reads / failover ----------------------------------------------

def test_read_survives_corrupt_primary_and_repairs_it():
    fs, _ = make_fs(3)
    data = payload(4 * BRICK)
    fs.write_file("/f", data, rhint(len(data), replicas=2))
    server = corrupt_copy(fs, "/f", 1, copy=0)

    assert fs.read_file("/f") == data
    m = fs.metrics
    assert m.counter("dpfs_checksum_errors_total").total() >= 1
    assert m.counter("dpfs_read_failovers_total").by_label("reason")["checksum"] >= 1
    assert m.counter("dpfs_repairs_total").total() >= 1
    # inline read-repair rewrote the primary: clean reads from now on
    assert (fs.meta.load_file("/f")[0].file_id, 1, server) not in fs.stale_copies
    assert fs.read_file("/f") == data
    from repro.core import scrub

    assert scrub(fs).clean


def test_read_survives_corrupt_replica():
    fs, _ = make_fs(3)
    data = payload(2 * BRICK)
    fs.write_file("/f", data, rhint(len(data), replicas=2))
    corrupt_copy(fs, "/f", 0, copy=1)
    # primary is intact and preferred; the read never sees the bad copy
    assert fs.read_file("/f") == data


def test_read_fails_over_on_server_error():
    fs, backend = make_fs(3)
    data = payload(3 * BRICK)
    fs.write_file("/f", data, rhint(len(data), replicas=2))
    record, bmap = fs.meta.load_file("/f")
    victim = bmap.location(0).server
    backend.fail_on("read", server=victim)

    assert fs.read_file("/f") == data
    reasons = fs.metrics.counter("dpfs_read_failovers_total").by_label("reason")
    assert reasons.get("error", 0) >= 1


def test_read_error_without_replicas_propagates():
    fs, backend = make_fs(3)
    fs.write_file("/f", payload(BRICK))
    record, bmap = fs.meta.load_file("/f")
    backend.fail_on("read", server=bmap.location(0).server)
    with pytest.raises(Exception):
        fs.read_file("/f")


def test_checksum_error_without_replicas_is_fatal():
    fs, _ = make_fs(3)
    data = payload(2 * BRICK)
    fs.write_file("/f", data, rhint(len(data), replicas=1))
    corrupt_copy(fs, "/f", 0, copy=0)
    with pytest.raises(ChecksumError):
        fs.read_file("/f")


def test_both_copies_corrupt_raises():
    fs, _ = make_fs(3)
    data = payload(BRICK)
    fs.write_file("/f", data, rhint(len(data), replicas=2))
    corrupt_copy(fs, "/f", 0, copy=0)
    corrupt_copy(fs, "/f", 0, copy=1)
    with pytest.raises(ChecksumError):
        fs.read_file("/f")


def test_health_aware_copy_choice(monkeypatch):
    fs, backend = make_fs(3)
    data = payload(2 * BRICK)
    fs.write_file("/f", data, rhint(len(data), replicas=2))
    record, bmap = fs.meta.load_file("/f")
    down = bmap.location(0).server
    monkeypatch.setattr(
        type(backend), "server_health",
        lambda self, server: 0 if server == down else 2,
    )
    assert fs.read_file("/f") == data
    reasons = fs.metrics.counter("dpfs_read_failovers_total").by_label("reason")
    assert reasons.get("health", 0) >= 1
    # the DOWN server was never asked to read
    assert backend.faults_fired.get("read", 0) == 0


# -- degraded writes ---------------------------------------------------------

def test_write_survives_one_dead_server():
    fs, backend = make_fs(3)
    data = payload(3 * BRICK)
    fs.write_file("/f", data, rhint(len(data), replicas=2))
    backend.fail_on("write", server=0)

    with fs.open("/f", "r+") as h:
        h.write(0, payload(3 * BRICK)[::-1])
    assert fs.metrics.counter("dpfs_write_degraded_total").total() >= 1
    backend.heal()
    # every brick kept at least one fresh copy; reads are byte-correct
    # (stale copies on server 0 lose checksum arbitration)
    assert fs.read_file("/f") == payload(3 * BRICK)[::-1]


def test_write_fails_when_no_copy_of_a_brick_lands():
    fs, backend = make_fs(3)
    data = payload(2 * BRICK)
    fs.write_file("/f", data, rhint(len(data), replicas=2))
    backend.fail_on("write")  # every server
    with fs.open("/f", "r+") as h:
        with pytest.raises(Exception):
            h.write(0, data[::-1])


def test_unreplicated_write_error_propagates():
    fs, backend = make_fs(3)
    fs.write_file("/f", payload(BRICK))
    record, bmap = fs.meta.load_file("/f")
    backend.fail_on("write", server=bmap.location(0).server)
    with fs.open("/f", "r+") as h:
        with pytest.raises(Exception):
            h.write(0, payload(BRICK))


def _concurrent_partial_writers(fs, path):
    """Six handles write disjoint 2 KiB segments of 4 KiB bricks at once;
    return the written bytes."""
    import threading

    n_threads, seg = 6, BRICK // 2
    total = n_threads * seg
    fs.write_file(path, bytes(total), rhint(total, replicas=2))
    handles = [fs.open(path, "r+") for _ in range(n_threads)]
    barrier = threading.Barrier(n_threads)
    errors = []

    def work(i):
        try:
            barrier.wait(timeout=30)
            handles[i].write(i * seg, bytes([i + 1]) * seg)
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    for h in handles:
        h.close()
    return b"".join(bytes([i + 1]) * seg for i in range(n_threads))


def test_concurrent_partial_writers_keep_checksums_fresh(tmp_path):
    """Disjoint-extent writers sharing bricks (2 KiB segments in 4 KiB
    bricks) must leave chunk checksums matching the merged bytes, over
    memory and over TCP, 20 rounds each.  Each server re-stamps a chunk
    under the lock that serialises its writes, from the bytes every
    write so far left in it, so the writers' order does not matter."""
    import sys

    from repro.core import scrub
    from repro.net import DPFSServer

    fs, _ = make_fs(3)
    servers = [DPFSServer(tmp_path / f"s{i}").start() for i in range(3)]
    tcp = None
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # more thread interleavings per round
    try:
        tcp = DPFS.remote([s.address for s in servers], io_retries=2)
        for mount in (fs, tcp):
            for round_ in range(20):
                path = f"/f{round_}"
                expected = _concurrent_partial_writers(mount, path)
                assert mount.read_file(path) == expected
                assert scrub(mount).clean
    finally:
        sys.setswitchinterval(interval)
        if tcp is not None:
            tcp.close()
        for s in servers:
            s.stop()


def test_partial_brick_write_keeps_checksums_fresh():
    fs, _ = make_fs(3)
    data = payload(2 * BRICK)
    fs.write_file("/f", data, rhint(len(data), replicas=2))
    with fs.open("/f", "r+") as h:
        h.write(100, b"XYZ" * 10)
    expected = bytearray(data)
    expected[100:130] = b"XYZ" * 10
    assert fs.read_file("/f") == bytes(expected)
    from repro.core import scrub

    assert scrub(fs).clean  # chunk checksums match the merged contents


# -- growth / namespace ops --------------------------------------------------

def test_replicated_file_growth():
    fs, _ = make_fs(3)
    data = payload(2 * BRICK)
    fs.write_file("/f", data, rhint(len(data), replicas=2))
    extra = payload(3 * BRICK)[::-1]
    with fs.open("/f", "r+") as h:
        h.write(len(data), extra)
    record, bmap = fs.meta.load_file("/f")
    rmap = fs.meta.load_replica_map(record)
    for brick_id in range(len(bmap)):
        assert len(rmap.locations(brick_id)) == 1
    assert fs.read_file("/f") == data + extra
    from repro.core import fsck

    assert fsck(fs).clean


def test_rename_moves_replica_subfiles():
    fs, _ = make_fs(3)
    data = payload(2 * BRICK)
    fs.write_file("/f", data, rhint(len(data), replicas=2))
    _, rname = subfile_names(fs.meta.load_file("/f")[0].file_id)
    before = [fs.backend.list_subfiles(server) for server in range(3)]
    assert sum(rname in names for names in before) == 2
    fs.rename("/f", "/g")
    assert fs.read_file("/g") == data
    # the subfiles carry the file's id, which the rename leaves alone
    assert [fs.backend.list_subfiles(server) for server in range(3)] == before
    from repro.core import fsck

    assert fsck(fs).clean


def test_remove_deletes_replica_subfiles_and_quarantine():
    """Remove drops the file's listed stale copies, in memory and in
    metadata (the quarantine of an older build)."""
    fs, _ = make_fs(3)
    data = payload(2 * BRICK)
    fs.write_file("/f", data, rhint(len(data), replicas=2))
    fs._list_stale({(fs.meta.load_file("/f")[0].file_id, 0, 1)})
    fs.remove("/f")
    for server in range(3):
        assert fs.backend.list_subfiles(server) == []
    assert not fs.stale_copies
    assert fs.meta.stale_copies() == set()


def test_three_copies_survive_double_corruption():
    fs, _ = make_fs(4)
    data = payload(3 * BRICK)
    fs.write_file("/f", data, rhint(len(data), replicas=3))
    corrupt_copy(fs, "/f", 2, copy=0)
    corrupt_copy(fs, "/f", 2, copy=1)
    assert fs.read_file("/f") == data
    assert fs.metrics.counter("dpfs_repairs_total").total() >= 1

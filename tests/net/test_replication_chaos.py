"""Acceptance scenario for replicated DPFS over the real TCP transport:
3 servers behind chaos proxies, ``replicas=2`` — killing one server
mid-workload and corrupting one subfile on disk both yield byte-correct
reads, nonzero repair/failover counters, and a clean fsck after
``scrub --repair``."""

import pytest

from repro.backends.local import escape_subfile_name
from repro.core import DPFS, Hint, fsck, scrub
from repro.core.brick import replica_subfile
from repro.net import ChaosProxy, DPFSServer

BRICK = 8 * 1024
N = 3


@pytest.fixture
def cluster(tmp_path):
    servers = [DPFSServer(tmp_path / f"srv{i}").start() for i in range(N)]
    proxies = [ChaosProxy(s.address).start() for s in servers]
    fs = DPFS.remote(
        [p.address for p in proxies],
        timeout=5.0,
        down_after=1,
        io_retries=1,
        io_backoff_s=0.001,
    )
    yield fs, servers, proxies, tmp_path
    fs.close()
    for p in proxies:
        p.stop()
    for s in servers:
        s.stop()


def rhint(size, replicas=2):
    return Hint.linear(file_size=size, brick_size=BRICK, replicas=replicas)


def payload(n, seed=0):
    return bytes((5 * i + seed) % 256 for i in range(n))


def kill(proxy):
    """Make one server unreachable: refuse new dials, cut live pipes."""
    proxy.drop_next(times=None)
    proxy.sever_all()


def test_kill_one_server_mid_workload(cluster):
    fs, _servers, proxies, _tmp = cluster
    data = payload(6 * BRICK)
    fs.write_file("/f", data, rhint(len(data)))
    assert fs.read_file("/f") == data

    kill(proxies[0])

    # workload continues: overwrite half the file, then read everything
    fresh = payload(6 * BRICK, seed=77)
    with fs.open("/f", "r+") as h:
        h.write(0, fresh[: 3 * BRICK])
    assert fs.read_file("/f") == fresh[: 3 * BRICK] + data[3 * BRICK :]

    m = fs.metrics
    assert m.counter("dpfs_read_failovers_total").total() >= 1
    assert m.counter("dpfs_write_degraded_total").total() >= 1

    # server comes back with stale copies; scrub repairs them from the
    # surviving replicas and fsck agrees everything is consistent again
    proxies[0].heal()
    report = scrub(fs, repair=True)
    assert not report.unrepaired
    assert fsck(fs).clean
    assert fs.read_file("/f") == fresh[: 3 * BRICK] + data[3 * BRICK :]


def test_corrupt_subfile_on_disk(cluster):
    fs, servers, _proxies, tmp_path = cluster
    data = payload(4 * BRICK)
    fs.write_file("/f", data, rhint(len(data)))

    # garble the primary copy of brick 1 in the server's backing file
    _record, bmap = fs.meta.load_file("/f")
    loc = bmap.location(1)
    disk = tmp_path / f"srv{loc.server}" / escape_subfile_name("/f")
    raw = bytearray(disk.read_bytes())
    raw[loc.local_offset : loc.local_offset + loc.size] = b"\xee" * loc.size
    disk.write_bytes(bytes(raw))

    assert fs.read_file("/f") == data  # byte-correct via the replica
    m = fs.metrics
    assert m.counter("dpfs_repairs_total").total() >= 1
    assert m.counter("dpfs_checksum_errors_total").total() >= 1
    assert (
        m.counter("dpfs_read_failovers_total").by_label("reason")["checksum"]
        >= 1
    )

    # inline read-repair already rewrote the copy: nothing left to find
    assert scrub(fs, repair=True).clean
    assert fsck(fs).clean


def test_corrupt_replica_on_disk_found_by_scrub(cluster):
    fs, _servers, _proxies, tmp_path = cluster
    data = payload(3 * BRICK)
    fs.write_file("/f", data, rhint(len(data)))

    record, _bmap = fs.meta.load_file("/f")
    rmap = fs.meta.load_replica_map("/f", record)
    rloc = rmap.locations(0)[0]
    disk = tmp_path / f"srv{rloc.server}" / escape_subfile_name(
        replica_subfile("/f")
    )
    raw = bytearray(disk.read_bytes())
    raw[rloc.local_offset] ^= 0xFF
    disk.write_bytes(bytes(raw))

    # reads prefer the intact primary; only the scrubber sees the damage
    assert fs.read_file("/f") == data
    report = scrub(fs)
    assert report.by_kind("checksum-mismatch")
    assert not scrub(fs, repair=True).unrepaired
    assert scrub(fs).clean and fsck(fs).clean


def test_wire_corruption_detected_and_retried(cluster):
    fs, _servers, proxies, _tmp = cluster
    data = payload(2 * BRICK)
    fs.write_file("/f", data, rhint(len(data)))

    for p in proxies:
        p.corrupt_next(times=1)  # flip a byte in the next data reply

    # the flipped frame fails the wire checksum, the socket is discarded,
    # and the dispatcher's transient retry re-reads clean bytes
    assert fs.read_file("/f") == data
    assert sum(p.faults_fired.get("corrupt", 0) for p in proxies) >= 1


def test_replicated_write_fans_to_both_copies(cluster):
    fs, servers, _proxies, tmp_path = cluster
    data = payload(2 * BRICK)
    fs.write_file("/f", data, rhint(len(data)))
    record, bmap = fs.meta.load_file("/f")
    rmap = fs.meta.load_replica_map("/f", record)
    for brick_id in range(len(bmap)):
        loc = bmap.location(brick_id)
        rloc = rmap.locations(brick_id)[0]
        primary = (tmp_path / f"srv{loc.server}" / escape_subfile_name("/f")).read_bytes()
        replica = (
            tmp_path
            / f"srv{rloc.server}"
            / escape_subfile_name(replica_subfile("/f"))
        ).read_bytes()
        want = data[brick_id * BRICK : (brick_id + 1) * BRICK]
        assert primary[loc.local_offset : loc.local_offset + loc.size] == want
        assert replica[rloc.local_offset : rloc.local_offset + rloc.size] == want

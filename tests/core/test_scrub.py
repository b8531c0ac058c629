"""Scrubber tests: every finding kind, repair semantics, fsck integration."""

import logging

import pytest

from repro.backends.chunks import CHUNK_SIZE
from repro.core import DPFS, Hint, fsck, scrub
from repro.core.brick import subfile_names
from repro.metadb import Database

from ..rot import rot, rot_sums
from .legacy_root import make_pre_sidecar

BRICK = 4 * 1024


@pytest.fixture
def fs():
    return DPFS.memory(n_servers=3)


def rhint(size, replicas=2):
    return Hint.linear(file_size=size, brick_size=BRICK, replicas=replicas)


def payload(n):
    return bytes((11 * i + 3) % 256 for i in range(n))


def file_id(fs, path):
    return fs.meta.load_file(path)[0].file_id


def locate(fs, path, brick_id, copy):
    record, bmap = fs.meta.load_file(path)
    name, rname = subfile_names(record.file_id)
    if copy == 0:
        return bmap.location(brick_id), name
    rmap = fs.meta.load_replica_map(record)
    return rmap.locations(brick_id)[copy - 1], rname


def garble(fs, path, brick_id, copy, junk=b"\xbd"):
    """Rot one copy's bytes behind its server's back (its chunks then
    fail their checksums)."""
    loc, name = locate(fs, path, brick_id, copy)
    rot(fs.backend, loc.server, name, loc.local_offset, junk * loc.size)
    return loc.server


def diverge(fs, path, brick_id, copy, junk=b"\xbd"):
    """Give one copy other bytes through its server, which re-stamps its
    checksums: a self-consistent copy that differs from the others."""
    loc, name = locate(fs, path, brick_id, copy)
    fs.backend.write_extents(
        loc.server, name, [(loc.local_offset, loc.size)], junk * loc.size
    )
    return loc.server


def test_clean_scrub(fs):
    data = payload(3 * BRICK)
    fs.write_file("/f", data, rhint(len(data)))
    report = scrub(fs)
    assert report.clean
    assert report.files_checked == 1
    assert report.bricks_checked == 3
    assert report.copies_checked == 6
    assert fs.metrics.counter("dpfs_scrub_bricks_total").total() == 3


def test_checksum_mismatch_found_and_repaired(fs):
    data = payload(2 * BRICK)
    fs.write_file("/f", data, rhint(len(data)))
    server = garble(fs, "/f", 1, copy=1)

    report = scrub(fs)
    findings = report.by_kind("checksum-mismatch")
    assert len(findings) == 1
    assert findings[0].brick_id == 1 and findings[0].server == server
    assert not findings[0].repaired
    assert not fs.stale_copies  # a report changes nothing

    repaired = scrub(fs, repair=True)
    assert repaired.by_kind("checksum-mismatch")[0].repaired
    assert (file_id(fs, "/f"), 1, server) not in fs.stale_copies
    assert scrub(fs).clean
    assert fs.read_file("/f") == data


def test_stale_checksum_is_metadata_repair(fs):
    """Both copies' bytes agree but their chunk checksums do not: the
    checksums are re-stamped from the bytes, which stay as they were."""
    data = payload(2 * BRICK)
    fs.write_file("/f", data, rhint(len(data)))
    servers = set()
    for copy in (0, 1):
        loc, name = locate(fs, "/f", 0, copy)
        rot_sums(fs.backend, loc.server, name, loc.local_offset // CHUNK_SIZE)
        servers.add(loc.server)

    report = scrub(fs)
    findings = report.by_kind("stale-checksum")
    assert {f.server for f in findings} == servers
    assert len(report.findings) == 2

    assert all(f.repaired for f in scrub(fs, repair=True).findings)
    assert scrub(fs).clean
    assert fs.read_file("/f") == data


def test_copies_rotted_in_different_chunks_are_left_unrepaired(fs):
    """No copy verifies and the failing copies hold different bytes:
    re-stamping either would bless its rot, so both are reported
    unrepairable and neither is rewritten."""
    data = payload(2 * CHUNK_SIZE)
    fs.write_file("/f", data, Hint.linear(
        file_size=len(data), brick_size=len(data), replicas=2
    ))
    copies = [locate(fs, "/f", 0, copy) for copy in (0, 1)]
    for chunk, (loc, name) in enumerate(copies):
        rot(fs.backend, loc.server, name, loc.local_offset + chunk * CHUNK_SIZE, b"\xbd")

    for repair in (False, True):
        report = scrub(fs, repair=repair)
        assert {(f.kind, f.server, f.repaired) for f in report.findings} == {
            ("checksum-mismatch", loc.server, False) for loc, _ in copies
        }
    for chunk, (loc, name) in enumerate(copies):
        raw = fs.backend.read_extents(
            loc.server, name, [(loc.local_offset, loc.size)], verify=False
        )
        # each copy still holds its rot and the other copy's good chunk
        assert raw[chunk * CHUNK_SIZE] == 0xBD
        good = (1 - chunk) * CHUNK_SIZE
        assert raw[good : good + CHUNK_SIZE] == data[good : good + CHUNK_SIZE]


def test_replica_divergence_majority_repair(fs):
    fs4 = DPFS.memory(n_servers=4)
    data = payload(BRICK)
    fs4.write_file("/f", data, rhint(len(data), replicas=3))
    loser = diverge(fs4, "/f", 0, copy=2)

    report = scrub(fs4)
    divergent = report.by_kind("replica-divergence")
    assert len(divergent) == 1 and divergent[0].server == loser

    repaired = scrub(fs4, repair=True)
    assert all(f.repaired for f in repaired.by_kind("replica-divergence"))
    assert scrub(fs4).clean
    assert fs4.read_file("/f") == data


def test_replica_divergence_without_majority_keeps_the_primary(fs):
    """Two self-consistent copies that differ, as two writers reaching
    them in different orders leave them: the primary wins."""
    data = payload(BRICK)
    fs.write_file("/f", data, rhint(len(data), replicas=2))
    diverge(fs, "/f", 0, copy=0)
    replica, _ = locate(fs, "/f", 0, copy=1)

    report = scrub(fs, repair=True)
    (divergent,) = report.findings
    assert divergent.kind == "replica-divergence"
    assert divergent.server == replica.server and divergent.repaired
    assert scrub(fs).clean
    assert fs.read_file("/f") == b"\xbd" * BRICK


def test_unreadable_copy_recreated(fs):
    data = payload(2 * BRICK)
    fs.write_file("/f", data, rhint(len(data)))
    loc, rname = locate(fs, "/f", 0, copy=1)
    fs.backend.delete_subfile(loc.server, rname)

    report = scrub(fs)
    assert report.by_kind("unreadable-copy")

    scrub(fs, repair=True)
    assert fs.backend.subfile_exists(loc.server, rname)
    assert scrub(fs).clean


# -- roots written before checksum sidecars ----------------------------------

def _pre_sidecar_root(root, data, **geometry):
    """A two-server root holding ``data`` as a replicated /f, in the shape
    the build before sidecars left it, with ``geometry`` keys overridden."""
    with DPFS.local(root, 2) as fs:
        fs.write_file("/f", data, rhint(len(data)))
    make_pre_sidecar(root, 2)
    db = Database(root / "dpfs.meta")
    stored = db.execute(
        "SELECT geometry FROM dpfs_file_attr WHERE filename = '/f'"
    ).scalar()
    db.execute(
        "UPDATE dpfs_file_attr SET geometry = ? WHERE filename = '/f'",
        [dict(stored, **geometry)],
    )
    db.close()


def test_none_checksum_backfilled_silently(tmp_path, caplog):
    """Bricks an older build stored no checksum for (a file from before
    checksums existed) get sidecars built from their bytes at mount,
    with nothing to check them against and nothing reported."""
    data = payload(2 * BRICK)
    _pre_sidecar_root(tmp_path, data, brick_crcs=[None, None])
    with caplog.at_level(logging.WARNING, logger="repro.core.filesystem"):
        fs = DPFS.local(tmp_path, 2)
    with fs:
        assert caplog.text == ""
        assert not {"brick_crcs", "written"} & set(fs.stat("/f")["geometry"])
        assert fs.read_file("/f") == data
        assert scrub(fs).clean
        assert scrub(fs, repair=True).clean
        garble(fs, "/f", 1, copy=0)  # the backfilled sidecar vouches
        assert [f.kind for f in scrub(fs).findings] == ["checksum-mismatch"]


def test_unknown_checksum_algorithm_reported_not_failed(tmp_path, caplog):
    """Only a root written before sidecars names a checksum algorithm:
    an unknown one is reported at its migration, and the file stays
    readable, its sidecars built from the bytes as they are."""
    data = payload(BRICK)
    _pre_sidecar_root(tmp_path, data, crc_algo="sha-unknown")
    with caplog.at_level(logging.WARNING, logger="repro.core.filesystem"):
        fs = DPFS.local(tmp_path, 2)
    with fs:
        assert "unknown algorithm 'sha-unknown'" in caplog.text
        assert fs.read_file("/f") == data
        assert scrub(fs).clean and fsck(fs).clean


def test_scrub_repairs_lift_quarantine_and_invalidate_cache():
    """A repaired copy leaves the stale list (which replaced the
    in-memory quarantine), in memory and in metadata."""
    fs = DPFS.memory(n_servers=3, cache_bytes=1 << 20)
    data = payload(2 * BRICK)
    fs.write_file("/f", data, rhint(len(data)))
    assert fs.read_file("/f") == data  # warm the cache
    server = garble(fs, "/f", 0, copy=0)
    fs._list_stale({(file_id(fs, "/f"), 0, server)})
    assert scrub(fs, repair=True).by_kind("stale-copy")[0].repaired
    assert not fs.stale_copies and fs.meta.stale_copies() == set()
    assert fs.read_file("/f") == data


def test_fsck_deep_pass_shares_scrub_findings(fs):
    data = payload(2 * BRICK)
    fs.write_file("/f", data, rhint(len(data)))
    garble(fs, "/f", 1, copy=0)
    report = fsck(fs)
    assert report.by_kind("checksum-mismatch")
    assert fsck(fs, repair=True).by_kind("checksum-mismatch")[0].repaired
    assert fsck(fs).clean


def test_fsck_shallow_pass_skips_data_reads(fs):
    data = payload(2 * BRICK)
    fs.write_file("/f", data, rhint(len(data)))
    garble(fs, "/f", 1, copy=0)
    assert fsck(fs, deep=False).clean  # metadata alone looks consistent


def test_fsck_missing_replica_refilled(fs):
    data = payload(3 * BRICK)
    fs.write_file("/f", data, rhint(len(data)))
    _, rname = subfile_names(file_id(fs, "/f"))
    victims = [
        s for s in range(3) if fs.backend.subfile_exists(s, rname)
    ]
    fs.backend.delete_subfile(victims[0], rname)

    report = fsck(fs, deep=False)
    assert report.by_kind("missing-replica")

    repaired = fsck(fs, repair=True)
    assert all(f.repaired for f in repaired.findings)
    assert fsck(fs).clean
    assert fs.read_file("/f") == data


def test_scrub_multiple_files(fs):
    for i in range(3):
        data = payload((i + 1) * BRICK)
        fs.write_file(f"/f{i}", data, rhint(len(data)))
    garble(fs, "/f2", 0, copy=0)
    report = scrub(fs)
    assert report.files_checked == 3
    assert len(report.findings) == 1
    assert report.findings[0].path == "/f2"
    assert "checksum-mismatch" in str(report)

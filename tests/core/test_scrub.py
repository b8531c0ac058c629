"""Scrubber tests: every finding kind, repair semantics, fsck integration."""

import pytest

from repro.core import DPFS, Hint, fsck, scrub
from repro.core.brick import subfile_names
from repro.core.scrub import verify_file_copies

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
    assert (file_id(fs, "/f"), 1, server) in fs.quarantine  # bad copy fenced off

    repaired = scrub(fs, repair=True)
    assert repaired.by_kind("checksum-mismatch")[0].repaired
    assert (file_id(fs, "/f"), 1, server) not in fs.quarantine
    assert scrub(fs).clean
    assert fs.read_file("/f") == data


def test_stale_checksum_is_metadata_repair(fs):
    data = payload(2 * BRICK)
    fs.write_file("/f", data, rhint(len(data)))
    fs.meta.update_brick_crcs(file_id(fs, "/f"), {0: 1234567})  # metadata goes stale

    report = scrub(fs)
    findings = report.by_kind("stale-checksum")
    assert len(findings) == 1
    assert findings[0].server == -1  # both copies agree; data is fine

    scrub(fs, repair=True)
    assert scrub(fs).clean
    assert fs.read_file("/f") == data


def test_replica_divergence_majority_repair(fs):
    fs4 = DPFS.memory(n_servers=4)
    data = payload(BRICK)
    fs4.write_file("/f", data, rhint(len(data), replicas=3))
    # erase the arbiter, then garble one of the three copies
    fs4.meta.update_brick_crcs(file_id(fs4, "/f"), {0: 7})
    loser = garble(fs4, "/f", 0, copy=2)

    report = scrub(fs4)
    divergent = report.by_kind("replica-divergence")
    assert len(divergent) == 1 and divergent[0].server == loser

    repaired = scrub(fs4, repair=True)
    assert all(f.repaired for f in repaired.by_kind("replica-divergence"))
    assert scrub(fs4).clean
    assert fs4.read_file("/f") == data


def test_replica_divergence_no_majority_unrepairable(fs):
    data = payload(BRICK)
    fs.write_file("/f", data, rhint(len(data), replicas=2))
    fs.meta.update_brick_crcs(file_id(fs, "/f"), {0: 7})  # arbiter gone
    garble(fs, "/f", 0, copy=1)

    report = scrub(fs, repair=True)
    divergent = report.by_kind("replica-divergence")
    assert len(divergent) == 1
    assert divergent[0].server == -1
    assert not divergent[0].repaired
    assert report.unrepaired


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


def test_none_checksum_backfilled_silently(fs):
    data = payload(2 * BRICK)
    fs.write_file("/f", data, rhint(len(data)))
    fs.meta.update_brick_crcs(file_id(fs, "/f"), {0: None, 1: None})  # legacy file

    report = scrub(fs)
    assert report.clean  # never-written/legacy bricks are not findings

    repaired = scrub(fs, repair=True)
    assert repaired.clean
    assert repaired.checksums_backfilled == 2
    record, _ = fs.meta.load_file("/f")
    assert all(crc is not None for crc in record.brick_crcs)


def test_unknown_checksum_algorithm_reported_not_failed(fs):
    import json

    data = payload(BRICK)
    fs.write_file("/f", data, rhint(len(data)))
    row = fs.db.execute(
        "SELECT geometry FROM dpfs_file_attr WHERE filename = '/f'"
    ).scalar()
    geometry = row if isinstance(row, dict) else json.loads(row)
    geometry["crc_algo"] = "sha-unknown"
    fs.db.execute(
        "UPDATE dpfs_file_attr SET geometry = ? WHERE filename = '/f'",
        [geometry],
    )
    findings = verify_file_copies(fs, "/f")
    assert [f.kind for f in findings] == ["unknown-checksum-algorithm"]
    # the file stays readable — unknown algorithms skip verification
    assert fs.read_file("/f") == data


def test_scrub_repairs_lift_quarantine_and_invalidate_cache():
    fs = DPFS.memory(n_servers=3, cache_bytes=1 << 20)
    data = payload(2 * BRICK)
    fs.write_file("/f", data, rhint(len(data)))
    assert fs.read_file("/f") == data  # warm the cache
    server = garble(fs, "/f", 0, copy=0)
    scrub(fs, repair=True)
    assert (file_id(fs, "/f"), 0, server) not in fs.quarantine
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

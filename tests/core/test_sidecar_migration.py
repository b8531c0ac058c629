"""Migration of a root written before checksum sidecars.

Such a root keeps one checksum per brick in each file's geometry and no
sidecar beside any subfile.  Its first mount builds every sidecar from
the stored bytes, checks each written brick against its old checksum
(a copy that fails is listed stale and logged, never taken as good),
and drops the checksums.  A crash or a DOWN server part way leaves the
rest to the next mount.
"""

import logging
import os

import pytest

from repro.backends.faulty import FaultyBackend
from repro.backends.local import SIDECAR_SUFFIX, XATTR, LocalBackend
from repro.core import DPFS, Hint, fsck, scrub
from repro.crashpoints import SimulatedCrash
from repro.errors import ChecksumError, MultiServerError
from repro.metadb import Database

from .legacy_root import make_pre_sidecar

BRICK = 4096
N = 4


def payload(n, salt):
    return bytes((3 * i + salt) % 251 for i in range(n))


FILES = {
    "/plain": (payload(3 * BRICK + 100, 1), 1),
    "/rep": (payload(4 * BRICK, 2), 2),
    "/sparse": (payload(BRICK, 3), 1),  # bricks 1-3 never written
}


def _pre_sidecar_root(root, flip=None):
    with DPFS.local(root, N) as fs:
        for path, (data, replicas) in FILES.items():
            size = 4 * BRICK if path == "/sparse" else len(data)
            hint = Hint.linear(file_size=size, brick_size=BRICK, replicas=replicas)
            with fs.open(path, "w", hint=hint) as h:
                h.write(0, data)
    make_pre_sidecar(root, N, flip=flip)


def _sidecars(root):
    """Subfiles with a sidecar: a file beside them, or their attribute."""
    found = []
    for s in range(N):
        for p in (root / f"server_{s}").iterdir():
            if p.name.endswith(SIDECAR_SUFFIX) or XATTR in os.listxattr(p):
                found.append(p)
    return found


def test_root_written_before_sidecars_is_migrated_once(tmp_path):
    root = tmp_path / "root"
    _pre_sidecar_root(root)
    assert _sidecars(root) == []
    for _mount in range(2):
        with DPFS.local(root, N) as fs:
            assert fs.meta.legacy_checksums() == []
            for path, (data, _replicas) in FILES.items():
                assert fs.read_file(path)[: len(data)] == data
                geometry = fs.stat(path)["geometry"]
                assert not {"brick_crcs", "crc_algo", "written"} & set(geometry)
            assert fs.read_file("/sparse") == FILES["/sparse"][0] + bytes(3 * BRICK)
            assert not fs.stale_copies
            assert fsck(fs).clean
    assert _sidecars(root)


@pytest.mark.parametrize("copy", [0, 1])
def test_a_flipped_byte_is_listed_stale_and_repaired_from_the_other_copy(
    tmp_path, caplog, copy
):
    root = tmp_path / "root"
    _pre_sidecar_root(root, flip=("/rep", 2, copy))
    with caplog.at_level(logging.WARNING, logger="repro.core.filesystem"):
        fs = DPFS.local(root, N)
    with fs:
        record, bmap = fs.meta.load_file("/rep")
        copies = [bmap.location(2)] + fs.meta.load_replica_map(record).locations(2)
        server = copies[copy].server
        assert fs.stale_copies == {(record.file_id, 2, server)}
        assert f"/rep brick 2: the copy on server {server}" in caplog.text
        assert fs.read_file("/rep") == FILES["/rep"][0]  # the stale copy is skipped
        (finding,) = scrub(fs).findings
        assert finding.kind == "stale-copy" and finding.server == server
        assert all(f.repaired for f in scrub(fs, repair=True).findings)
        assert fsck(fs).clean and not fs.stale_copies


def test_a_flipped_byte_without_another_copy_fails_reads(tmp_path):
    root = tmp_path / "root"
    _pre_sidecar_root(root, flip=("/plain", 1, 0))
    with DPFS.local(root, N) as fs:
        data = FILES["/plain"][0]
        with fs.open("/plain", "r") as h:
            assert h.read(0, BRICK) == data[:BRICK]
            with pytest.raises(ChecksumError):
                h.read(BRICK, 10)
        (finding,) = scrub(fs, repair=True).findings
        assert finding.kind == "stale-copy" and not finding.repaired


def test_migration_interrupted_part_way_finishes_on_the_next_mount(
    tmp_path, monkeypatch
):
    root = tmp_path / "root"
    _pre_sidecar_root(root)
    write = LocalBackend.write_extents
    done = []

    def crash_after_three(self, *args):
        if len(done) == 3:
            raise SimulatedCrash("migration")
        done.append(args)
        write(self, *args)

    monkeypatch.setattr(LocalBackend, "write_extents", crash_after_three)
    with pytest.raises(SimulatedCrash):
        DPFS.local(root, N)
    monkeypatch.undo()
    with DPFS.local(root, N) as fs:
        assert fs.meta.legacy_checksums() == []
        for path, (data, _replicas) in FILES.items():
            assert fs.read_file(path)[: len(data)] == data
        assert fsck(fs).clean


def test_migration_with_a_down_server_finishes_on_the_next_mount(tmp_path):
    root = tmp_path / "root"
    _pre_sidecar_root(root)
    backend = FaultyBackend(LocalBackend(root, N))
    backend.fail_on("write", server=2)
    db = Database(root / "dpfs.meta")
    with pytest.raises(MultiServerError) as excinfo:
        DPFS(backend, db)
    assert {server for server, _ in excinfo.value.errors} == {2}
    db.close()
    backend.heal()
    with DPFS(backend, Database(root / "dpfs.meta")) as fs:
        assert fs.meta.legacy_checksums() == []
        for path, (data, _replicas) in FILES.items():
            assert fs.read_file(path)[: len(data)] == data
        assert fsck(fs).clean

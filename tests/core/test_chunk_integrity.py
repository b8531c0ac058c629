"""At-rest integrity at chunk granularity: one stored byte flipped behind
its server's back, at a random offset, on the memory, local and TCP
backends.

Servers check every 4 KiB chunk a read covers, so a read fails over (or,
with one copy, raises :class:`ChecksumError`) exactly when it covers the
flipped byte's chunk — which can hold bytes of neighbouring bricks when
bricks are not chunk-sized.  With a second copy every read returns the
right bytes, read-repair and scrub rewrite whole chunks so they never
vouch for the flipped byte, and a scrub with repair leaves the file
clean.
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends.chunks import CHUNK_SIZE
from repro.backends.local import escape_subfile_name
from repro.core import DPFS, Hint, scrub
from repro.core.brick import subfile_names
from repro.errors import ChecksumError
from repro.net import DPFSServer

from ..rot import rot, rot_file

N_SERVERS = 3
_names = itertools.count()


@pytest.fixture(params=["memory", "local", "tcp"])
def mount(request, tmp_path):
    """A mount and a function that flips one stored byte of a subfile."""
    if request.param == "memory":
        fs = DPFS.memory(N_SERVERS)
        yield fs, lambda server, name, off: _flip(fs.backend, server, name, off)
        fs.close()
    elif request.param == "local":
        fs = DPFS.local(tmp_path / "root", N_SERVERS)
        yield fs, lambda server, name, off: _flip(fs.backend, server, name, off)
        fs.close()
    else:
        servers = [DPFSServer(tmp_path / f"s{i}").start() for i in range(N_SERVERS)]
        fs = DPFS.remote([s.address for s in servers])

        def flip_on_disk(server, name, off):
            path = servers[server].root / escape_subfile_name(name)
            byte = path.read_bytes()[off]
            rot_file(path, off, bytes([byte ^ 0x5A]))

        yield fs, flip_on_disk
        fs.close()
        for s in servers:
            s.stop()


def _flip(backend, server, name, off):
    byte = backend.read_extents(server, name, [(off, 1)], verify=False)[0]
    rot(backend, server, name, off, bytes([byte ^ 0x5A]))


def _chunk_ranges(bmap, rmap, brick, copy, subfile_off):
    """The logical byte ranges stored in the chunk holding ``subfile_off``
    of one copy's subfile."""
    lo = subfile_off // CHUNK_SIZE * CHUNK_SIZE
    if copy == 0:
        server = bmap.location(brick).server
        layout = [bmap.location(b) for b in bmap.bricklist(server)]
    else:
        server = rmap.locations(brick)[copy - 1].server
        layout = [
            loc
            for b in rmap.bricklists[server]
            for loc in rmap.locations(b)
            if loc.server == server
        ]
    ranges = []
    for loc in layout:
        a = max(lo, loc.local_offset)
        b = min(lo + CHUNK_SIZE, loc.local_offset + loc.size)
        if a < b:
            base = loc.brick_id * loc.size - loc.local_offset
            ranges.append((base + a, base + b))
    return ranges


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    replicas=st.sampled_from([1, 2]),
    brick=st.sampled_from([1000, CHUNK_SIZE, 3 * CHUNK_SIZE]),
    n_bricks=st.integers(1, 5),
    seed=st.binary(min_size=16, max_size=16),
    where=st.tuples(st.floats(0, 1, exclude_max=True), st.floats(0, 1, exclude_max=True)),
    copy=st.integers(0, 1),
    reads=st.lists(
        st.tuples(st.floats(0, 1, exclude_max=True), st.integers(1, 3 * CHUNK_SIZE)),
        min_size=1,
        max_size=4,
    ),
)
def test_a_flipped_byte_fails_or_fails_over_every_read_covering_its_chunk(
    mount, replicas, brick, n_bricks, seed, where, copy, reads
):
    fs, flip = mount
    size = brick * n_bricks
    data = (seed * (size // len(seed) + 1))[:size]
    path = f"/f{next(_names)}"
    fs.write_file(path, data, Hint.linear(file_size=size, brick_size=brick, replicas=replicas))
    record, bmap = fs.meta.load_file(path)
    rmap = fs.meta.load_replica_map(record) if replicas > 1 else None
    copy = copy if replicas > 1 else 0
    victim = int(where[0] * n_bricks)
    loc = bmap.location(victim) if copy == 0 else rmap.locations(victim)[copy - 1]
    off = loc.local_offset + int(where[1] * brick)
    flip(loc.server, subfile_names(record.file_id)[copy], off)
    chunk = _chunk_ranges(bmap, rmap, victim, copy, off)

    with fs.open(path, "r") as h:
        for start, length in reads:
            offset = int(start * size)
            covers = any(a < offset + length and offset < b for a, b in chunk)
            if replicas == 1 and covers:
                with pytest.raises(ChecksumError):
                    h.read(offset, length)
            else:
                assert h.read(offset, length) == data[offset : offset + length]
    if replicas > 1:
        assert fs.read_file(path) == data
        assert all(f.repaired for f in scrub(fs, repair=True).findings)
        assert scrub(fs).clean
        assert fs.read_file(path) == data
    fs.remove(path)


def test_read_repair_rewrites_the_neighbours_sharing_a_chunk():
    """Bricks 0 and 3 of a 1000-byte-brick file share the primary's first
    chunk on server 0.  A byte of brick 3 rots; reading brick 0 alone
    fails over and repairs brick 0, and that repair must rewrite brick 3
    too, or the re-stamped chunk would vouch for the rotten byte."""
    fs = DPFS.memory(N_SERVERS)
    data = bytes(range(256)) * 20
    fs.write_file("/f", data[:5000], Hint.linear(file_size=5000, brick_size=1000, replicas=2))
    record, bmap = fs.meta.load_file("/f")
    assert bmap.bricklist(0) == [0, 3]
    _flip(fs.backend, 0, subfile_names(record.file_id)[0], 1500)
    with fs.open("/f", "r") as h:
        assert h.read(0, 1000) == data[:1000]
    assert fs.metrics.counter("dpfs_repairs_total").total() == 1
    assert scrub(fs).clean
    assert fs.read_file("/f") == data[:5000]

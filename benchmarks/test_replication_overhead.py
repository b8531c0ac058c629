"""Replicated-write overhead: 1 vs 2 vs 3 copies.

A ``replicas=N`` write fans every brick to N distinct servers, so the
cluster stores exactly N× the bytes — that part is asserted, not
measured.  The interesting question is wall time: the replica writes
join the same parallel dispatch batch as the primaries and every
server admits concurrent requests, so the extra copies *overlap*
instead of serializing.  With a fixed per-I/O service delay on each
server (the same device model as ``test_net_pool``), a 3-copy write
should land well under 3× the 1-copy wall.

Real local disks make this unmeasurable — page-cache flush stalls on
shared runners swamp the signal with 10× run-to-run noise — so the
cost model is the delay-priced TCP server, where timing is governed by
how many I/Os serialize, which is exactly what replication changes.

Environment knobs (for CI smoke runs on slow shared runners)::

    DPFS_BENCH_REPL_BYTES   file size per write           (default 1 MiB)
    DPFS_BENCH_REPL_DELAY   per-I/O server delay seconds  (default 0.005)
"""

import os
import time

from conftest import BENCH_SHAPE  # noqa: F401  (harness import convention)

from repro.backends.local import SIDECAR_SUFFIX
from repro.core import DPFS, Hint
from repro.net import DPFSServer

FILE_BYTES = int(os.environ.get("DPFS_BENCH_REPL_BYTES", 1024 * 1024))
DELAY = float(os.environ.get("DPFS_BENCH_REPL_DELAY", 0.005))
BRICK = 64 * 1024
N_SERVERS = 4


def _timed_write(addresses, roots, replicas: int) -> tuple[float, int]:
    """Write one replicated file; return (wall seconds, bytes stored)."""
    fs = DPFS.remote(addresses, pool_size=4, io_workers=16)
    payload = bytes(range(256)) * (FILE_BYTES // 256)
    hint = Hint.linear(file_size=FILE_BYTES, brick_size=BRICK, replicas=replicas)

    start = time.perf_counter()
    fs.write_file("/f", payload, hint)
    wall = time.perf_counter() - start

    assert fs.read_file("/f") == payload
    # subfiles only: a large subfile's checksum sidecar file is not a
    # brick copy
    stored = sum(
        p.stat().st_size
        for d in roots
        for p in d.iterdir()
        if not p.name.endswith(SIDECAR_SUFFIX)
    )
    fs.remove("/f")
    fs.close()
    return wall, stored


def _compare(tmp_root) -> dict[int, tuple[float, int]]:
    roots = [tmp_root / f"srv{i}" for i in range(N_SERVERS)]
    servers = [DPFSServer(r, io_delay_s=DELAY, max_concurrent=64) for r in roots]
    for s in servers:
        s.start()
    try:
        addresses = [s.address for s in servers]
        return {r: _timed_write(addresses, roots, r) for r in (1, 2, 3)}
    finally:
        for s in servers:
            s.stop()


def test_replication_write_overhead(once, tmp_path):
    results = once(_compare, tmp_path)
    print()
    print(
        f"Replicated write — {FILE_BYTES // 1024} KiB file, "
        f"{BRICK // 1024} KiB bricks, {N_SERVERS} servers, "
        f"{DELAY * 1000:.1f} ms service delay"
    )
    base_wall, base_bytes = results[1]
    for replicas, (wall, stored) in results.items():
        print(
            f"  replicas={replicas}:  {wall * 1000:7.1f} ms wall "
            f"({wall / base_wall:4.2f}x)  {stored // 1024:6d} KiB stored"
        )

    # storage overhead is exact: N copies of every brick hit the servers
    for replicas, (_, stored) in results.items():
        assert stored == replicas * base_bytes

    # wall overhead stays sub-linear: the replica requests overlap in
    # the dispatch batch and the servers' admission windows instead of
    # serializing behind the primaries.  2.0 is deliberately loose.
    wall3, _ = results[3]
    assert wall3 < 2.0 * base_wall, "3-copy write should overlap, not serialize"

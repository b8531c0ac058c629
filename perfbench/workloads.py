"""The workloads: seeded inputs, set-up, ops and correctness oracle.

Each workload draws every input from ``numpy.random.default_rng(seed)``
before any timing starts: the initial file contents, a pool of write
payloads and the op sequence.  The op sequence is three arrays (kind,
target, payload index), so a long run costs a few bytes per op, and the
program receives only these generated values.

A workload keeps a client-side model of the file contents and checks
every read against it byte for byte.  The model is also the source of
the initial contents, so the inputs exist once and are all allocated
before the first mount.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

from repro import DPFS, Hint
from repro.core.fsck import fsck
from repro.core.scrub import scrub

from cluster import ServerCluster

__all__ = ["Op", "OpStream", "WORKLOADS", "make_workload"]

MiB = 1 << 20


def _mix(rng: np.random.Generator, n_ops: int, shares: tuple[int, ...]) -> np.ndarray:
    """Op kind codes in exact proportion ``shares``, shuffled per round.

    Every round of ``sum(shares)`` ops holds each kind exactly its share,
    so the mix of a run does not drift with the seed.
    """
    rounds = -(-n_ops // sum(shares))
    one = np.repeat(np.arange(len(shares), dtype=np.uint8), shares)
    return rng.permuted(np.tile(one, (rounds, 1)), axis=1).ravel()[:n_ops]


class Op(NamedTuple):
    kind: str
    target: Any   # byte offset or path
    payload: int  # index into the workload's payload pool, -1 for none


class OpStream:
    """A pre-generated op sequence, consumed in order across phases."""

    def __init__(
        self,
        kinds: tuple[str, ...],
        codes: np.ndarray,
        targets: np.ndarray,
        payloads: np.ndarray,
        names: list[str] | None = None,
    ) -> None:
        self.kinds = kinds
        self.codes = codes
        self.targets = targets
        self.payloads = payloads
        self.names = names
        self.pos = 0

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, i: int) -> Op:
        target = int(self.targets[i])
        if self.names is not None:
            target = self.names[target]
        return Op(self.kinds[self.codes[i]], target, int(self.payloads[i]))

    def take(self) -> Op | None:
        """The next op of the sequence, or None when it is used up."""
        if self.pos >= len(self.codes):
            return None
        self.pos += 1
        return self[self.pos - 1]


@dataclass
class Env:
    """Where a workload builds things: the repo's ``src`` and a scratch dir."""

    src: Path
    scratch: Path


def _pin_threads(pid: int, cpu: int) -> None:
    """Restrict every thread of process ``pid`` to ``cpu``."""
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            os.sched_setaffinity(int(task.name), {cpu})
        except ProcessLookupError:
            pass  # the thread ended meanwhile


class Session:
    """One set-up instance: a mount plus whatever hosts its storage."""

    def __init__(self, fs: DPFS, cluster: ServerCluster | None, root: Path | None):
        self.fs = fs
        self.cluster = cluster
        self.root = root

    def pin_to_one_cpu(self) -> int:
        """Move the load generator and its servers onto one CPU.

        Threads started later inherit the CPU from the thread that
        starts them.  Returns the CPU.
        """
        cpu = min(os.sched_getaffinity(0))
        pids = [os.getpid()]
        if self.cluster is not None:
            pids += [p.pid for p in self.cluster.procs]
        for pid in pids:
            _pin_threads(pid, cpu)
        return cpu

    def server_seconds(self) -> float | None:
        """Total service time the storage servers have spent on data ops."""
        if self.cluster is None:
            return None
        total = 0.0
        for stats in self.fs.backend.server_stats():
            for line in stats["metrics"].splitlines():
                if not line.startswith("dpfs_server_request_seconds_sum{"):
                    continue
                labels, value = line.rsplit(" ", 1)
                if 'op="stats"' in labels or 'op="ping"' in labels:
                    continue
                total += float(value)
        return total

    def close(self) -> None:
        try:
            self.fs.close()
        finally:
            if self.cluster is not None:
                self.cluster.stop()
            if self.root is not None:
                shutil.rmtree(self.root, ignore_errors=True)


class Workload:
    """Common shape of a workload; subclasses fill in the specifics."""

    name = ""
    kinds: tuple[str, ...] = ()
    read_kind = ""
    write_kind = ""
    #: generous upper bound of ops per second, sizing the op stream
    max_rate = 0
    #: run the timed phases with the load generator and servers on one CPU
    one_cpu = False

    def __init__(self, seed: int, n_ops: int, small: bool = False) -> None:
        self.small = small
        self.rng = np.random.default_rng(seed)
        self.generate(n_ops)

    # hooks ------------------------------------------------------------------
    def generate(self, n_ops: int) -> None:
        raise NotImplementedError

    def populate(self, fs: DPFS) -> None:
        raise NotImplementedError

    def open_phase(self, fs: DPFS) -> Any:
        return None

    def close_phase(self, state: Any) -> None:
        pass

    def run(self, fs: DPFS, state: Any, op: Op) -> Any:
        raise NotImplementedError

    def check(self, op: Op, result: Any) -> bool:
        raise NotImplementedError

    def payload_bytes(self, op: Op) -> int:
        raise NotImplementedError

    def verify(self, fs: DPFS) -> list[str]:
        raise NotImplementedError

    # set-up -----------------------------------------------------------------
    def mount(self, env: Env) -> Session:
        cluster = ServerCluster(env.src, env.scratch)
        try:
            cluster.start()
            fs = DPFS.remote(cluster.addresses, pool_size=1, io_workers=2)
        except BaseException:
            cluster.stop()
            raise
        return Session(fs, cluster, None)

    def setup(self, env: Env) -> Session:
        """Start storage, mount, and populate from the seeded inputs."""
        session = self.mount(env)
        try:
            self.populate(session.fs)
        except BaseException:
            session.close()
            raise
        return session


class Random4k(Workload):
    """4 KiB reads and writes at uniform offsets of one 64 MiB file."""

    name = "random_4k"
    kinds = ("read4k", "write4k")
    read_kind = "read4k"
    write_kind = "write4k"
    max_rate = 20000
    # each op is a chain of wakeups (client, io worker, server and back);
    # on one CPU every hand-off is a local context switch instead of a
    # wakeup of an idle vCPU through the hypervisor (README.md, "Load shape")
    one_cpu = True
    path = "/random"
    io = 4096

    def generate(self, n_ops: int) -> None:
        self.size = (4 if self.small else 64) * MiB
        self.brick = MiB
        rng = self.rng
        self.model = rng.integers(0, 256, self.size, dtype=np.uint8)
        self.pool = [rng.bytes(self.io) for _ in range(64)]
        codes = _mix(rng, n_ops, (7, 3))
        self.ops = OpStream(
            self.kinds,
            codes,
            rng.integers(0, self.size // self.io, n_ops) * self.io,
            np.where(codes == 1, rng.integers(0, len(self.pool), n_ops), -1),
        )

    def populate(self, fs: DPFS) -> None:
        hint = Hint.linear(file_size=self.size, brick_size=self.brick)
        chunk = 4 * MiB
        with fs.open(self.path, "w", hint=hint) as h:
            for off in range(0, self.size, chunk):
                h.write(off, self.model[off : off + chunk].tobytes())

    def open_phase(self, fs: DPFS) -> Any:
        return fs.open(self.path, "r+")

    def close_phase(self, state: Any) -> None:
        state.close()

    def run(self, fs: DPFS, state: Any, op: Op) -> Any:
        if op.kind == "read4k":
            return state.read(op.target, self.io)
        return state.write(op.target, self.pool[op.payload])

    def check(self, op: Op, result: Any) -> bool:
        span = slice(op.target, op.target + self.io)
        if op.kind == "write4k":
            self.model[span] = np.frombuffer(self.pool[op.payload], np.uint8)
            return result == self.io
        return result == self.model[span].tobytes()

    def payload_bytes(self, op: Op) -> int:
        return self.io

    def verify(self, fs: DPFS) -> list[str]:
        problems = [str(f) for f in scrub(fs).findings]
        if fs.read_file(self.path) != self.model.tobytes():
            problems.append(f"{self.path}: contents differ from the model")
        return problems


class SmallFiles(Workload):
    """Create / open-read / remove cycles over a namespace of fixed size."""

    name = "small_files"
    kinds = ("create", "open_read", "remove")
    read_kind = "open_read"
    write_kind = "create"
    max_rate = 3000
    dirs = 8
    io = 4096

    def generate(self, n_ops: int) -> None:
        self.live_files = 20 if self.small else 500
        rng = self.rng
        self.pool = [rng.bytes(self.io) for _ in range(64)]
        cycles = max(1, n_ops // 3)
        n_names = self.live_files + cycles
        dirs = rng.integers(0, self.dirs, n_names)
        self.names = [f"/d{d}/f{i:07d}" for i, d in enumerate(dirs)]
        self.contents = rng.integers(0, len(self.pool), n_names)
        picks = rng.integers(0, self.live_files, cycles)
        # replay the FIFO namespace so every op names a concrete path
        live = deque(range(self.live_files))
        targets = np.empty(3 * cycles, dtype=np.int64)
        for c in range(cycles):
            new = self.live_files + c
            live.append(new)
            targets[3 * c] = new
            targets[3 * c + 1] = live[picks[c]]
            targets[3 * c + 2] = live.popleft()
        codes = np.tile(np.arange(3, dtype=np.uint8), cycles)
        payloads = np.full(3 * cycles, -1)
        payloads[0::3] = self.contents[self.live_files :]
        self.ops = OpStream(self.kinds, codes, targets, payloads, self.names)

    def mount(self, env: Env) -> Session:
        root = Path(tempfile.mkdtemp(prefix="local-", dir=env.scratch))
        try:
            fs = DPFS.local(root, 4, io_workers=2)
        except BaseException:
            shutil.rmtree(root, ignore_errors=True)
            raise
        return Session(fs, None, root)

    def _create(self, fs: DPFS, path: str, payload: int) -> int:
        hint = Hint.linear(file_size=self.io, brick_size=self.io)
        with fs.open(path, "w", hint=hint) as h:
            return h.write(0, self.pool[payload])

    def populate(self, fs: DPFS) -> None:
        self.model = {}
        for d in range(self.dirs):
            fs.makedirs(f"/d{d}")
        for i in range(self.live_files):
            self._create(fs, self.names[i], int(self.contents[i]))
            self.model[self.names[i]] = int(self.contents[i])

    def run(self, fs: DPFS, state: Any, op: Op) -> Any:
        if op.kind == "create":
            return self._create(fs, op.target, op.payload)
        if op.kind == "open_read":
            with fs.open(op.target, "r") as h:
                return h.read(0, self.io)
        return fs.remove(op.target)

    def check(self, op: Op, result: Any) -> bool:
        if op.kind == "create":
            self.model[op.target] = op.payload
            return result == self.io
        if op.kind == "open_read":
            return result == self.pool[self.model[op.target]]
        return self.model.pop(op.target, None) is not None

    def payload_bytes(self, op: Op) -> int:
        return 0 if op.kind == "remove" else self.io

    def verify(self, fs: DPFS) -> list[str]:
        problems = [str(f) for f in fsck(fs).findings]
        problems += [f"pending intent {i.intent_id}" for i in fs.intents.pending()]
        listed = [
            f"/d{d}/{name}"
            for d in range(self.dirs)
            for name in fs.listdir(f"/d{d}")[1]
        ]
        if sorted(listed) != sorted(self.model):
            problems.append("namespace differs from the model")
        for path, payload in self.model.items():
            if fs.read_file(path) != self.pool[payload]:
                problems.append(f"{path}: contents differ from the model")
        return problems


WORKLOADS = {w.name: w for w in (Random4k, SmallFiles)}


def make_workload(
    name: str, seed: int, seconds: float, *, phases: int = 1,
    max_ops: int | None = None, small: bool = False,
) -> Workload:
    """Build a workload whose op stream covers ``phases`` timed phases."""
    cls = WORKLOADS[name]
    n_ops = max_ops if max_ops is not None else int(cls.max_rate * seconds)
    return cls(seed, n_ops * phases, small=small)

"""Storage-server processes and scratch directories for one benchmark run.

Every TCP workload runs its four storage servers as separate
``python -m repro server`` processes, so the servers and the load
generator never share one interpreter lock.  :class:`ServerCluster`
starts them on free ports (each server binds port 0 and prints the port
it got), waits until each answers a ``ping``, and on every exit path
terminates and reaps them and deletes their storage roots.
"""

from __future__ import annotations

import ctypes
import os
import re
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

__all__ = ["ServerCluster", "remove_scratch", "scratch_dir"]

#: the line ``dpfs server`` prints once it is listening
_READY = re.compile(r"dpfs server on ([0-9.]+):(\d+),")

#: how long a server may take to start listening
START_TIMEOUT_S = 30.0

#: how long a terminated server may take to exit before it is killed
STOP_TIMEOUT_S = 10.0


def scratch_dir(checkout: Path) -> Path:
    """A fresh directory for every temporary root of this run."""
    base = checkout / ".perfbench_tmp"
    base.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=base))


def remove_scratch(path: Path) -> None:
    """Delete a run's scratch directory, and its parent once empty."""
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()
    except OSError:
        pass  # another run still uses it


def _server_preexec() -> None:  # pragma: no cover - runs in the child
    # have the kernel kill the server if the benchmark process dies
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass


class ServerCluster:
    """``n`` storage-server processes under one temporary root.

    :meth:`stop` is idempotent; callers run it on every exit path, so no
    server or storage root outlives them.
    """

    def __init__(self, src: Path, scratch: Path, n: int = 4) -> None:
        self.src = src
        self.scratch = scratch
        self.n = n
        self.root: Path | None = None
        self.procs: list[subprocess.Popen] = []
        self.addresses: list[tuple[str, int]] = []

    def start(self) -> None:
        self.root = Path(tempfile.mkdtemp(prefix="servers-", dir=self.scratch))
        env = dict(os.environ, PYTHONPATH=str(self.src), PYTHONUNBUFFERED="1")
        for i in range(self.n):
            self.procs.append(
                subprocess.Popen(
                    [
                        sys.executable, "-m", "repro", "server",
                        "--root", str(self.root / f"s{i}"),
                        "--host", "127.0.0.1", "--port", "0",
                    ],
                    stdout=subprocess.PIPE,
                    stderr=subprocess.DEVNULL,
                    stdin=subprocess.DEVNULL,
                    env=env,
                    text=True,
                    preexec_fn=_server_preexec,
                )
            )
        deadline = time.monotonic() + START_TIMEOUT_S
        self.addresses = [self._await_ready(p, deadline) for p in self.procs]
        self._ping_all()

    @staticmethod
    def _await_ready(proc: subprocess.Popen, deadline: float) -> tuple[str, int]:
        assert proc.stdout is not None
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError("storage server did not start in time")
            ready, _, _ = select.select([proc.stdout], [], [], remaining)
            if not ready:
                continue
            line = proc.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"storage server exited with code {proc.wait()} before "
                    f"it listened"
                )
            match = _READY.search(line)
            if match:
                return match.group(1), int(match.group(2))

    def _ping_all(self) -> None:
        from repro.net.client import ServerConnection

        for host, port in self.addresses:
            conn = ServerConnection(host, port, timeout=10.0, pool_size=1)
            conn.close()

    def stop(self) -> None:
        """Terminate and reap every server, then delete the storage root."""
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()
        self.procs = []
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)
            self.root = None

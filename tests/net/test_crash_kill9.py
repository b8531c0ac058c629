"""Kill-9 acceptance: a real client process, talking to real TCP
servers through the chaos proxy, is murdered mid-operation with
``os._exit`` (no cleanup, no flush).  Remounting the same metadata
database against the same servers must recover without manual
intervention: fsck/scrub clean and every file in its old or its new
state.

- Mid-remove, after the commit: the remove intent is rolled forward,
  the removed file's subfiles are gone and the file beside it is
  intact.
- Mid-rename, inside its one transaction: the uncommitted UPDATE is
  gone, so the file keeps its old name and nothing is left to recover.

The child is armed through the environment
(``DPFS_CRASHPOINT=... DPFS_CRASHPOINT_MODE=exit``) and dies with
:data:`repro.core.crashpoints.CRASH_EXIT_CODE`, so the parent can tell
a simulated crash from any ordinary failure.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.core import DPFS, fsck, scrub
from repro.core.crashpoints import CRASH_EXIT_CODE
from repro.metadb import Database
from repro.net import ChaosProxy, DPFSServer

PAYLOAD_LEN = 8 * 1024
PAYLOAD = (bytes(range(256)) * 33)[:PAYLOAD_LEN]

CHILD = """
import sys
from repro.core import DPFS, Hint
from repro.metadb import Database

meta, mutation = sys.argv[1], sys.argv[2]
addrs = []
for spec in sys.argv[3:]:
    host, _, port = spec.rpartition(":")
    addrs.append((host, int(port)))
payload = (bytes(range(256)) * 33)[: {payload_len}]
fs = DPFS.remote(addrs, db=Database(meta), io_workers=1)
fs.makedirs("/d")
for path in ("/d/f", "/d/g"):
    fs.write_file(
        path, payload, Hint.linear(file_size=len(payload), brick_size=1024)
    )
if mutation == "remove":
    fs.remove("/d/f")   # the armed crash point kills us in here
else:
    fs.rename("/d/f", "/d/h")
raise SystemExit("crash point never fired")
""".format(payload_len=PAYLOAD_LEN)


def _crash_then_remount(tmp_path, mutation, point, check):
    meta = tmp_path / "client.meta"
    with DPFSServer(tmp_path / "srv0") as s0, DPFSServer(tmp_path / "srv1") as s1:
        with ChaosProxy(s0.address) as proxy:
            addrs = [proxy.address, s1.address]
            specs = [f"{h}:{p}" for h, p in addrs]
            env = dict(
                os.environ,
                PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]),
                DPFS_CRASHPOINT=point,
                DPFS_CRASHPOINT_MODE="exit",
            )
            proc = subprocess.run(
                [sys.executable, "-c", CHILD, str(meta), mutation, *specs],
                env=env,
                capture_output=True,
                text=True,
                timeout=45,
            )
            assert proc.returncode == CRASH_EXIT_CODE, (
                f"child exited {proc.returncode}, not the crash code "
                f"{CRASH_EXIT_CODE}\nstdout: {proc.stdout}\n"
                f"stderr: {proc.stderr}"
            )
            fs = DPFS.remote(addrs, db=Database(meta), io_workers=1)
            try:
                assert fs.last_recovery is not None
                assert fs.last_recovery.clean, str(fs.last_recovery)
                check(fs)
                assert fs.intents.pending() == []
                assert fs.read_file("/d/g") == PAYLOAD
                freport = fsck(fs)
                assert freport.clean, str(freport)
                sreport = scrub(fs)
                assert sreport.clean, str(sreport)
            finally:
                fs.close()


def test_kill9_mid_remove_recovers_on_remount(tmp_path):
    def check(fs):
        # the dead client committed the metadata drop but never touched
        # the subfiles; the mount rolled its intent forward
        (action,) = fs.last_recovery.recovered
        assert action.op == "remove" and action.path == "/d/f"
        assert not fs.exists("/d/f")

    _crash_then_remount(
        tmp_path, "remove", "filesystem.remove.after_metadata", check
    )


def test_kill9_mid_rename_recovers_on_remount(tmp_path):
    def check(fs):
        assert fs.last_recovery.actions == []
        assert fs.read_file("/d/f") == PAYLOAD
        assert not fs.exists("/d/h")

    _crash_then_remount(tmp_path, "rename", "filesystem.rename.in_commit", check)

"""The crash-point registry does not depend on import order.

Every point is declared in :mod:`repro.crashpoints` itself, so a
process that has imported nothing else already knows them all: the
sweep can enumerate them, and arming one through the environment is
validated like arming it through the API.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

from .test_crash_sweep import SWEEP

SRC = str(Path(repro.__file__).resolve().parents[1])


def _child(code: str, **env: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=SRC, **env),
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_registry_alone_lists_every_swept_point():
    proc = _child(
        "import sys\n"
        "from repro.crashpoints import registered\n"
        "assert 'repro.core.filesystem' not in sys.modules\n"
        "assert 'repro.backends.chunks' not in sys.modules\n"
        "print(' '.join(registered()))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == sorted(point for _op, point in SWEEP)


def test_environment_arming_is_validated():
    code = "from repro.crashpoints import armed_name\nprint(armed_name())\n"
    proc = _child(code, DPFS_CRASHPOINT="filesystem.remove.in_commit")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "filesystem.remove.in_commit"
    proc = _child(code, DPFS_CRASHPOINT="filesystem.no.such_point")
    assert proc.returncode != 0
    assert "unknown crash point" in proc.stderr

"""What each kind of process imports, and that every public name still
resolves.

A storage server loads only the wire, the subfile store, the metrics
registry, ``errors`` and ``util``: ``repro``, ``repro.backends`` and
``repro.net`` resolve the names they re-export on first use (PEP 562),
and the checksum and crash-point modules the server shares with the
client sit at the top level, outside ``repro.core``.  Each check runs
in a fresh interpreter, since this one has loaded everything already.
"""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.net.server import DPFSServer

SRC = str(Path(repro.__file__).resolve().parents[1])


def _run(code: str, *args: str) -> str:
    """Run ``code`` in a fresh interpreter; its standard output."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


LOADED = """
import sys
print(" ".join(m for m in sys.argv[1:] if m in sys.modules))
"""


def test_a_server_loads_no_client_stack():
    loaded = _run(
        "import repro.cli, repro.net.server" + LOADED,
        "numpy", "sqlite3", "repro.core", "repro.metadb", "repro.net.client",
    )
    assert loaded.split() == []


def test_a_remote_client_loads_no_server(tmp_path):
    with DPFSServer(tmp_path / "srv") as server:
        host, port = server.address
        loaded = _run(
            "from repro.core import DPFS\n"
            f"DPFS.remote([({host!r}, {port})]).close()" + LOADED,
            "repro.net.server", "socketserver", "repro.net.chaos",
        )
    assert loaded.split() == []


def _defined_by(value, name):
    """The object that ``value``'s defining module exports as its name."""
    module = importlib.import_module(value.__module__)
    return getattr(module, getattr(value, "__name__", name))


@pytest.mark.parametrize(
    "package", ["repro", "repro.core", "repro.backends", "repro.net"]
)
def test_every_public_name_resolves(package):
    """In a fresh interpreter, each name in ``__all__`` resolves to the
    object its defining module exports, never to a submodule."""
    out = _run(
        f"import importlib, inspect\n"
        f"pkg = importlib.import_module({package!r})\n"
        f"for name in pkg.__all__:\n"
        f"    value = getattr(pkg, name)\n"
        f"    assert not inspect.ismodule(value), name\n"
        f"    print(name, getattr(value, '__module__', '-'))\n"
    )
    pkg = importlib.import_module(package)
    names = [line.split()[0] for line in out.splitlines()]
    assert names == list(pkg.__all__)
    for line in out.splitlines():
        name, module = line.split()
        value = getattr(pkg, name)
        if module != "-":
            assert value is _defined_by(value, name), name
    with pytest.raises(AttributeError):
        getattr(pkg, "no_such_name")


def test_star_import_of_the_lazy_packages():
    _run(
        "from repro import *\n"
        "from repro.backends import *\n"
        "from repro.net import *\n"
        "assert DPFS and LocalBackend and DPFSServer and DPFSError\n"
    )


def test_function_names_that_are_also_module_names():
    """``fsck`` and ``scrub`` are submodules of ``repro.core`` and the
    functions it exports; ``checksum`` is a top-level module and a
    function.  Importing the modules first must not shadow the
    functions."""
    _run(
        "import inspect\n"
        "import repro.checksum, repro.core.fsck, repro.core.scrub\n"
        "from repro.core import checksum, fsck, scrub\n"
        "assert all(map(inspect.isfunction, (checksum, fsck, scrub)))\n"
        "assert checksum(b'x') == repro.checksum.checksum(b'x')\n"
    )
    from repro.core import checksum, fsck, scrub

    assert all(map(inspect.isfunction, (checksum, fsck, scrub)))

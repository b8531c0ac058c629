"""Fault injection: errors surface cleanly, metadata stays consistent,
and transient faults are absorbed by the dispatch layer's retry budget."""

import numpy as np
import pytest

from repro.backends import MemoryBackend
from repro.backends.faulty import FaultyBackend, InjectedFault, TransientFault
from repro.core import DPFS, Hint
from repro.core.fsck import fsck
from repro.errors import MultiServerError, RetryExhausted


@pytest.fixture
def faulty():
    return FaultyBackend(MemoryBackend(4))


@pytest.fixture
def fs(faulty):
    return DPFS(faulty)


def test_fail_next_fires_once(faulty):
    faulty.create_subfile(0, "/f")
    faulty.fail_next("read")
    with pytest.raises(InjectedFault):
        faulty.read_extents(0, "/f", [(0, 1)])
    assert faulty.read_extents(0, "/f", [(0, 1)]) == b"\x00"
    assert faulty.faults_fired["read"] == 1


def test_fail_on_until_heal(faulty):
    faulty.create_subfile(1, "/f")
    faulty.fail_on("write", server=1)
    for _ in range(3):
        with pytest.raises(InjectedFault):
            faulty.write_extents(1, "/f", [(0, 1)], b"x")
    # other servers unaffected
    faulty.create_subfile(0, "/f")
    faulty.write_extents(0, "/f", [(0, 1)], b"x")
    faulty.heal()
    faulty.write_extents(1, "/f", [(0, 1)], b"x")


def test_read_fault_propagates_through_handle(fs, faulty):
    fs.write_file("/f", b"payload" * 100)
    faulty.fail_next("read")
    with fs.open("/f", "r") as handle:
        with pytest.raises(InjectedFault):
            handle.read(0, 100)
        # retryable: the next read succeeds and is correct
        assert handle.read(0, 7) == b"payload"


def test_write_fault_leaves_metadata_consistent(fs, faulty):
    """A mid-write storage fault must not corrupt the namespace: the
    file stays readable and its metadata loads."""
    hint = Hint.multidim((32, 32), 8, (8, 8))
    data = np.zeros((32, 32))
    with fs.open("/f", "w", hint=hint) as handle:
        handle.write_array((0, 0), data)
    faulty.fail_next("write")
    with fs.open("/f", "r+") as handle:
        with pytest.raises(InjectedFault):
            handle.write_array((0, 0), np.ones((32, 32)))
    # metadata still loads; file still readable (possibly partially new)
    record, bmap = fs.meta.load_file("/f")
    assert record.size == 32 * 32 * 8
    with fs.open("/f", "r") as handle:
        got = handle.read_array((0, 0), (32, 32), np.float64)
    assert got.shape == (32, 32)


def test_create_fault_aborts_cleanly(fs, faulty):
    """If subfile creation fails mid-fan-out, the failure surfaces as
    one aggregate error.  The file's rows committed first and no byte
    of it was written, so fsck --repair recreates the missing subfile
    empty and the file is usable again: nothing is lost or orphaned."""
    faulty.fail_next("create")
    with pytest.raises(MultiServerError) as excinfo:
        fs.write_file("/doomed", b"x" * 10)
    assert any(isinstance(e, InjectedFault) for _s, e in excinfo.value.errors)
    report = fsck(fs, repair=True)
    assert [(f.kind, f.repaired) for f in report.findings] == [
        ("missing-subfile", True)
    ]
    assert fsck(fs).clean
    with fs.open("/doomed", "r+") as handle:
        handle.write(0, b"fresh")
    assert fs.read_file("/doomed") == b"fresh" + bytes(5)


def test_per_server_fault_with_combination(fs, faulty):
    """Only requests hitting the broken server fail; stats still sane."""
    fs.write_file(
        "/f", bytes(4096), hint=Hint.linear(file_size=4096, brick_size=256)
    )
    faulty.fail_on("read", server=2)
    with fs.open("/f", "r", combine=False) as handle:
        with pytest.raises(InjectedFault):
            handle.read(0, 4096)
        # requests to servers before the failure were recorded
        assert handle.stats.requests >= 1
    faulty.heal()
    assert fs.read_file("/f") == bytes(4096)


# ---------------------------------------------------------------------------
# transient faults × the dispatch retry budget
# ---------------------------------------------------------------------------

def _parallel_fs(faulty, retries=3):
    return DPFS(faulty, io_workers=4, io_retries=retries, io_backoff_s=0.0001)


def test_transient_fault_classes():
    t = TransientFault("x")
    assert isinstance(t, InjectedFault)
    assert t.transient
    assert not getattr(InjectedFault("x"), "transient", False)


def test_transient_read_fault_retried_to_success(faulty):
    fs = _parallel_fs(faulty)
    payload = b"payload" * 100
    fs.write_file("/f", payload)
    faulty.fail_next("read", times=2, transient=True)
    assert fs.read_file("/f") == payload
    assert faulty.faults_fired["read"] == 2


def test_transient_write_fault_retried_to_success(faulty):
    fs = _parallel_fs(faulty)
    fs.write_file(
        "/f", bytes(4096), hint=Hint.linear(file_size=4096, brick_size=256)
    )
    faulty.fail_next("write", times=1, transient=True)
    payload = bytes(range(256)) * 16
    with fs.open("/f", "r+") as handle:
        handle.write(0, payload)
        assert handle.stats.retries >= 1
    assert fs.read_file("/f") == payload


def test_retry_counters_land_on_the_faulting_server(faulty):
    fs = _parallel_fs(faulty)
    fs.write_file(
        "/f", bytes(4096), hint=Hint.linear(file_size=4096, brick_size=256)
    )
    faulty.fail_next("read", times=1, server=1, transient=True)
    with fs.open("/f", "r") as handle:
        handle.read(0, 4096)
        assert handle.stats.per_server_retries.get(1, 0) >= 1
        assert handle.stats.retries == sum(
            handle.stats.per_server_retries.values()
        )


def test_permanent_transient_fault_exhausts_budget_and_names_server(faulty):
    """A fault that keeps firing past the retry budget surfaces as
    RetryExhausted carrying the failing server's id."""
    fs = _parallel_fs(faulty, retries=2)
    fs.write_file(
        "/f", bytes(4096), hint=Hint.linear(file_size=4096, brick_size=256)
    )
    faulty.fail_on("read", server=2, transient=True)
    with pytest.raises(RetryExhausted) as excinfo:
        fs.read_file("/f")
    assert "server 2" in str(excinfo.value)
    assert isinstance(excinfo.value.__cause__, TransientFault)
    # the budget was actually consumed: 1 try + 2 retries
    assert faulty.faults_fired["read"] == 3
    faulty.heal()
    assert fs.read_file("/f") == bytes(4096)


def test_non_transient_fault_bypasses_retry_budget(faulty):
    """Plain InjectedFault must propagate unchanged on first occurrence
    even when the dispatcher has retries available."""
    fs = _parallel_fs(faulty, retries=5)
    fs.write_file("/f", b"x" * 1024)
    faulty.fail_next("read")
    with pytest.raises(InjectedFault):
        fs.read_file("/f")
    assert faulty.faults_fired["read"] == 1

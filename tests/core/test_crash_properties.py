"""Property-based crash consistency: for ANY namespace mutation, ANY
crash point inside it, ANY file geometry — crash, remount and one
``fsck --repair`` always yield an fsck-clean, scrub-clean namespace
with the file in exactly its old or its new state."""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.backends.memory import MemoryBackend
from repro.core import DPFS, Hint, fsck, scrub
from repro.crashpoints import SimulatedCrash, arm, disarm, registered
from repro.core.fsck import usage_oracle
from repro.metadb import Database

BRICK = 256


def _mount(backend, db, *, auto_recover=True):
    return DPFS(backend, db, io_workers=1, auto_recover=auto_recover)


@st.composite
def crash_scenarios(draw):
    op = draw(st.sampled_from(["create", "remove", "rename"]))
    point = draw(st.sampled_from(registered(f"filesystem.{op}.")))
    bricks = draw(st.integers(min_value=1, max_value=5))
    replicas = draw(st.sampled_from([1, 2]))
    return op, point, bricks * BRICK, replicas


@settings(max_examples=40, deadline=None)
@given(scenario=crash_scenarios())
def test_any_crash_prefix_recovers_to_old_or_new(scenario):
    op, point, nbytes, replicas = scenario
    payload = (bytes(range(256)) * (nbytes // 256 + 1))[:nbytes]
    hint = Hint.linear(file_size=nbytes, brick_size=BRICK, replicas=replicas)
    db = Database()
    backend = MemoryBackend(4)
    fs = _mount(backend, db, auto_recover=False)
    fs.makedirs("/d")
    if op in ("remove", "rename"):
        fs.write_file("/d/f", payload, hint)
    arm(point)
    try:
        with pytest.raises(SimulatedCrash):
            if op == "create":
                fs.write_file("/d/f", payload, hint)
            elif op == "remove":
                fs.remove("/d/f")
            else:
                fs.rename("/d/f", "/d/g")
    finally:
        disarm()

    fs2 = _mount(backend, db)
    assert fs2.last_recovery is not None
    assert fs2.last_recovery.clean, str(fs2.last_recovery)
    assert fs2.intents.pending() == []
    repaired = fsck(fs2, repair=True)
    assert all(f.repaired for f in repaired.findings), str(repaired)
    assert fs2.meta.server_usage() == usage_oracle(fs2.meta)
    freport = fsck(fs2)
    assert freport.clean, str(freport)
    sreport = scrub(fs2)
    assert sreport.clean, str(sreport)

    if op == "create":
        # the crash predates the first data write: created means zeros
        if fs2.exists("/d/f"):
            assert fs2.read_file("/d/f") == bytes(nbytes)
    elif op == "remove":
        if fs2.exists("/d/f"):
            assert fs2.read_file("/d/f") == payload
    else:
        old, new = fs2.exists("/d/f"), fs2.exists("/d/g")
        assert old != new
        assert fs2.read_file("/d/f" if old else "/d/g") == payload

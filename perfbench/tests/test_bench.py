"""Tests of the benchmark itself (run with ``pytest perfbench/tests``)."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cluster import ServerCluster
from harness import (
    END_TO_END,
    PER_LAYER,
    Phase,
    accounting_errors,
    end_to_end_metrics,
    per_layer_metrics,
    run_phase,
)
from ledger import Ledger, installed_wrappers
from repro.core.filesystem import DPFS
from repro.core.handle import FileHandle
from workloads import WORKLOADS, make_workload

CHECKOUT = Path(__file__).resolve().parents[2]
NAMES = sorted(WORKLOADS)
SMALL_OPS = {"random_4k": 120, "small_files": 45}
COUNTS = (
    "metadb.statements",
    "metadb.fsyncs",
    "striping.slices",
    "combine.requests",
    "backend.bytes_per_user_byte",
)


def _small(name, seed):
    return make_workload(name, seed, 60, phases=2, max_ops=SMALL_OPS[name], small=True)


def _ops(workload, n=None):
    return [workload.ops[i] for i in range(len(workload.ops) if n is None else n)]


def _server_pids(marker: str) -> set[int]:
    """Pids of running ``repro server`` processes whose command names ``marker``."""
    pids = set()
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            argv = (entry / "cmdline").read_bytes().split(b"\0")
        except OSError:
            continue
        if b"server" in argv and any(marker.encode() in a for a in argv):
            pids.add(int(entry.name))
    return pids


# -- seeded generation -----------------------------------------------------
@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    a, b, c = _small(name, 7), _small(name, 7), _small(name, 8)
    assert _ops(a) == _ops(b)
    assert _ops(a) != _ops(c)
    for x, y in zip(a.pool, b.pool):
        assert np.array_equal(np.asarray(x), np.asarray(y))
    assert any(
        not np.array_equal(np.asarray(x), np.asarray(y)) for x, y in zip(a.pool, c.pool)
    )


def _record(monkeypatch, calls):
    """Record every call the timed loop makes into the DPFS API."""

    def spy(cls, name, shape):
        original = getattr(cls, name)

        def wrapper(self, *args, **kwargs):
            calls.append(shape(*args, **kwargs))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    spy(DPFS, "open", lambda path, mode="r", hint=None, **kw: ("open", path, mode))
    spy(DPFS, "remove", lambda path: ("remove", path))
    spy(FileHandle, "read", lambda off, n: ("read", off, n))
    spy(FileHandle, "write", lambda off, data: ("write", off, bytes(data)))


def _expected(workload, ops):
    name = workload.name
    calls = []
    if name == "random_4k":
        calls.append(("open", workload.path, "r+"))
        for op in ops:
            if op.kind == "read4k":
                calls.append(("read", op.target, workload.io))
            else:
                calls.append(("write", op.target, workload.pool[op.payload]))
    else:
        for op in ops:
            if op.kind == "create":
                calls.append(("open", op.target, "w"))
                calls.append(("write", 0, workload.pool[op.payload]))
            elif op.kind == "open_read":
                calls += [("open", op.target, "r"), ("read", 0, workload.io)]
            else:
                calls.append(("remove", op.target))
    return calls


@pytest.mark.parametrize("name", NAMES)
def test_program_receives_only_generated_inputs(name, env, monkeypatch):
    workload = _small(name, 3)
    session = workload.setup(env)
    calls = []
    try:
        _record(monkeypatch, calls)
        phase = run_phase(workload, session, 60, max_ops=SMALL_OPS[name])
        monkeypatch.undo()
    finally:
        session.close()
    assert phase.errors == []
    assert phase.attempted == SMALL_OPS[name]
    assert calls == _expected(workload, _ops(workload, phase.attempted))


# -- count exactness and accounting ---------------------------------------
def _traced_run(name, env):
    workload = _small(name, 5)
    session = workload.setup(env)
    try:
        untraced = run_phase(workload, session, 60, max_ops=SMALL_OPS[name])
        assert installed_wrappers() == []
        with Ledger() as ledger:
            assert installed_wrappers()
            traced = run_phase(
                workload, session, 60, max_ops=SMALL_OPS[name], ledger=ledger
            )
        assert installed_wrappers() == []
        assert workload.verify(session.fs) == []
    finally:
        session.close()
    assert untraced.errors == traced.errors == []
    return workload, traced, per_layer_metrics(workload, traced, untraced)


#: counts fixed by the access shape alone, whatever the program does
SHAPE_COUNTS = {
    "random_4k": {
        "read4k.backend.bytes_per_user_byte": 1.0,
        "read4k.striping.slices": 1.0,
        "write4k.combine.requests": 1.0,
    },
}


@pytest.mark.parametrize("name", NAMES)
def test_counts_repeat_exactly_and_layers_add_up(name, env):
    workload, traced, first = _traced_run(name, env)
    _, _, second = _traced_run(name, env)
    keys = [
        f"{kind}.{c}" for kind in workload.kinds for c in COUNTS
        if f"{kind}.{c}" in PER_LAYER
    ]
    assert keys
    assert {k: first[k] for k in keys} == {k: second[k] for k in keys}
    for key, value in SHAPE_COUNTS.get(name, {}).items():
        assert first[key] == value
    assert accounting_errors(traced) == []
    for kind in workload.kinds:
        parts = sum(
            first[f"{kind}.{m}"]
            for m in ("handle.self_ms", "metadata.ms", "metadb.ms", "intent.ms",
                      "striping.ms", "combine.ms", "dispatch.ms", "backend.ms",
                      "checksum.ms")
            if f"{kind}.{m}" in PER_LAYER
        )
        assert parts == pytest.approx(first[f"{kind}.wall_ms"], rel=0.10)


def test_accounting_flags_time_outside_every_span():
    ledger = Ledger()
    ledger.begin_op()
    ledger.spans += [("handle", 0.0, 0.5), ("backend", 0.1, 0.3), ("handle", 0.6, 0.8)]
    covered = ledger.end_op("read4k", 0.0, 1.0)
    assert covered.self_s["backend"] == pytest.approx(0.2)
    assert covered.self_s["handle"] == pytest.approx(0.5)
    assert covered.unattributed_s == pytest.approx(0.3)
    phase = Phase(ledgers=[(covered, {})])
    assert accounting_errors(phase) == [
        "read4k: layers sum to 0.700000s of 1.000000s wall"
    ]
    ledger.begin_op()
    ledger.spans += [("handle", 0.0, 0.95), ("dispatch", 0.2, 0.4)]
    phase.ledgers = [(ledger.end_op("read4k", 0.0, 1.0), {})]
    assert accounting_errors(phase) == []


def test_failed_phase_still_reports_what_it_measured():
    workload = _small("random_4k", 1)
    phase = Phase(attempted=1, errors=["read4k 0: TransportError()"])
    metrics = end_to_end_metrics(workload, phase, [2.0, 1.0, 3.0], 0.0)
    assert metrics["setup_s"] == 1.0
    assert set(metrics) == {"setup_s", "client_rss_mib"}


# -- server lifecycle ------------------------------------------------------
def test_cluster_stop_reaps_servers_and_root(env):
    cluster = ServerCluster(env.src, env.scratch)
    try:
        cluster.start()
        procs = list(cluster.procs)
        assert len(_server_pids(str(env.scratch))) == 4
    finally:
        cluster.stop()
    assert all(p.poll() is not None for p in procs)
    assert _server_pids(str(env.scratch)) == set()
    assert list(env.scratch.iterdir()) == []


def test_one_cpu_pins_every_thread_of_client_and_servers(env):
    workload = _small("random_4k", 1)
    assert workload.one_cpu
    before = os.sched_getaffinity(0)
    session = workload.setup(env)
    try:
        cpu = session.pin_to_one_cpu()
        pids = [os.getpid()] + [p.pid for p in session.cluster.procs]
        tids = [
            int(t.name) for pid in pids for t in Path(f"/proc/{pid}/task").iterdir()
        ]
        assert len(tids) > len(pids)
        assert all(os.sched_getaffinity(tid) == {cpu} for tid in tids)
    finally:
        session.close()
        for task in Path(f"/proc/{os.getpid()}/task").iterdir():
            os.sched_setaffinity(int(task.name), before)


def test_failed_setup_leaves_no_server_or_root(env, monkeypatch):
    workload = _small("random_4k", 1)

    def broken(fs):
        raise RuntimeError("populate failed")

    monkeypatch.setattr(workload, "populate", broken)
    with pytest.raises(RuntimeError):
        workload.setup(env)
    assert _server_pids(str(env.scratch)) == set()
    assert list(env.scratch.iterdir()) == []


def test_benchmark_run_leaves_no_server_or_temp_root():
    scratch = CHECKOUT / ".perfbench_tmp"
    before_dirs = set(scratch.iterdir()) if scratch.exists() else set()
    before = _server_pids(str(scratch))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "random_4k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=CHECKOUT, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(END_TO_END)
    assert _server_pids(str(scratch)) <= before
    after_dirs = set(scratch.iterdir()) if scratch.exists() else set()
    assert after_dirs <= before_dirs


# -- the declared contract ---------------------------------------------------
def test_benchmark_json_declares_what_the_code_reports():
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(CHECKOUT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        CHECKOUT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "random_4k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""

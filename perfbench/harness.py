"""Timed phases, repeated set-up and the metrics a run reports.

A phase is a closed loop on one thread: it issues the next op only
after the previous one returned, until its time (or op budget) runs out.
Latency is measured around the DPFS call alone; the oracle check that
follows each op runs outside that window.
"""

from __future__ import annotations

import resource
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from ledger import LAYERS, Ledger, OpLedger, installed_wrappers
from workloads import Env, Session, Workload

__all__ = [
    "END_TO_END",
    "OPS",
    "PER_LAYER",
    "Phase",
    "accounting_errors",
    "end_to_end_metrics",
    "peak_rss_mib",
    "per_layer_metrics",
    "pristine_errors",
    "run_phase",
    "timed_setups",
]

#: end-to-end metrics: name -> unit.  Latency is the 1st percentile: on a
#: shared host whose speed varies, the share of a run spent slow moves
#: medians, tails and even the fastest decile by more than a regression
#: bound, while the fastest percent stays within it (README.md, "First
#: numbers").
END_TO_END = {
    "setup_s": "s",
    "client_rss_mib": "MiB",
    "read_p1_ms": "ms",
    "write_p1_ms": "ms",
}

#: layer measures each op kind enters: measure -> unit
_MEASURES = {
    "wall_ms": "ms",
    "handle.self_ms": "ms",
    "metadata.ms": "ms",
    "metadata.server_usage_ms": "ms",
    "metadb.ms": "ms",
    "metadb.statements": "count",
    "metadb.fsyncs": "count",
    "intent.ms": "ms",
    "striping.ms": "ms",
    "striping.slices": "count",
    "combine.ms": "ms",
    "combine.requests": "count",
    "dispatch.ms": "ms",
    "dispatch.queue_wait_ms": "ms",
    "backend.ms": "ms",
    "backend.bytes_per_user_byte": "ratio",
    "server.service_ms": "ms",
    "checksum.ms": "ms",
}

_DATA_PATH = [
    "wall_ms", "handle.self_ms", "striping.ms", "striping.slices",
    "combine.ms", "combine.requests", "dispatch.ms",
    "dispatch.queue_wait_ms", "backend.ms", "backend.bytes_per_user_byte",
]
_TCP = ["server.service_ms"]
_CRC_TXN = ["metadata.ms", "metadb.ms", "metadb.statements"]
_DURABLE = ["metadb.fsyncs", "intent.ms"]

#: the layer measures each op kind enters (pairs an op never enters are left out)
OPS: dict[str, list[str]] = {
    "read4k": _DATA_PATH + _TCP,
    "write4k": _DATA_PATH + _TCP + _CRC_TXN + ["checksum.ms"],
    "create": _DATA_PATH + _CRC_TXN + _DURABLE
    + ["metadata.server_usage_ms", "checksum.ms"],
    "open_read": _DATA_PATH + _CRC_TXN + ["checksum.ms"],
    "remove": [
        "wall_ms", "handle.self_ms", "dispatch.ms", "dispatch.queue_wait_ms",
        "backend.ms",
    ] + _CRC_TXN + _DURABLE,
}

#: workload-level per-layer metrics: name -> unit
_WORKLOAD_LEVEL = {
    "dispatch.retries": "per_1000_ops",
    "dispatch.failures": "per_1000_ops",
    "net.sockets_discarded": "per_1000_ops",
    "trace.overhead": "ratio",
}

#: every per-layer metric: name -> unit
PER_LAYER = {
    f"{op}.{measure}": _MEASURES[measure]
    for op, measures in OPS.items()
    for measure in measures
} | _WORKLOAD_LEVEL


@dataclass
class Phase:
    """What one timed phase measured."""

    wall_s: float = 0.0
    attempted: int = 0
    errors: list[str] = field(default_factory=list)
    latency_s: dict[str, list[float]] = field(
        default_factory=lambda: defaultdict(list)
    )
    ledgers: list[tuple[OpLedger, dict[str, float]]] = field(default_factory=list)
    registry: dict[str, float] = field(default_factory=dict)

    @property
    def completed(self) -> int:
        return sum(len(v) for v in self.latency_s.values())


def _registry_totals(fs) -> dict[str, float]:
    """Running totals of the mount's dispatch and socket counters."""
    out = {}
    for key, name in (
        ("queue_wait_s", "dpfs_dispatch_queue_wait_seconds"),
        ("retries", "dpfs_dispatch_retries_total"),
        ("failures", "dpfs_dispatch_failures_total"),
        ("sockets_discarded", "dpfs_net_sockets_discarded_total"),
    ):
        metric = fs.metrics.get(name)
        if metric is None:
            out[key] = 0.0
        elif hasattr(metric, "total_sum"):
            out[key] = float(metric.total_sum())
        else:
            out[key] = float(metric.total())
    return out


def run_phase(
    workload: Workload,
    session: Session,
    seconds: float,
    *,
    max_ops: int | None = None,
    ledger: Ledger | None = None,
) -> Phase:
    """Run the workload's next ops for ``seconds`` (or ``max_ops`` ops)."""
    fs = session.fs
    phase = Phase()
    state = workload.open_phase(fs)
    before = _registry_totals(fs)
    server_s = session.server_seconds() if ledger is not None else None
    bookkeeping = 0.0
    start = perf_counter()
    deadline = start + seconds
    try:
        while perf_counter() < deadline and (
            max_ops is None or phase.attempted < max_ops
        ):
            op = workload.ops.take()
            if op is None:
                break
            phase.attempted += 1
            if ledger is not None:
                b0 = perf_counter()
                ledger.begin_op()
                wait0 = _registry_totals(fs)["queue_wait_s"]
                bookkeeping += perf_counter() - b0
            t0 = perf_counter()
            try:
                result = workload.run(fs, state, op)
            except Exception as exc:  # noqa: BLE001 - reported as a failure
                phase.errors.append(f"{op.kind} {op.target}: {exc!r}")
                break
            t1 = perf_counter()
            phase.latency_s[op.kind].append(t1 - t0)
            if not workload.check(op, result):
                phase.errors.append(f"{op.kind} {op.target}: wrong bytes")
            if ledger is not None:
                b0 = perf_counter()
                op_ledger = ledger.end_op(op.kind, t0, t1)
                extra = {
                    "queue_wait_s": _registry_totals(fs)["queue_wait_s"] - wait0,
                    "payload": workload.payload_bytes(op),
                }
                if server_s is not None:
                    now_s = session.server_seconds()
                    extra["server_s"] = now_s - server_s
                    server_s = now_s
                phase.ledgers.append((op_ledger, extra))
                bookkeeping += perf_counter() - b0
        phase.wall_s = perf_counter() - start - bookkeeping
    finally:
        workload.close_phase(state)
    after = _registry_totals(fs)
    phase.registry = {k: after[k] - before[k] for k in after}
    return phase


def timed_setups(
    workload: Workload, env: Env, repeats: int
) -> tuple[Session, list[float]]:
    """Set up ``repeats`` times; keep the last session, time every one."""
    times = []
    session = None
    for _ in range(repeats):
        if session is not None:
            session.close()
        t0 = perf_counter()
        session = workload.setup(env)
        times.append(perf_counter() - t0)
    assert session is not None
    return session, times


def peak_rss_mib() -> float:
    """Peak resident set size of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end_metrics(
    workload: Workload, phase: Phase, setup_times: list[float], inputs_mib: float
) -> dict[str, float]:
    """The end-to-end metrics; a latency whose op kind never completed
    (the phase stopped at a failure) is left out."""
    metrics = {
        "setup_s": min(setup_times),
        "client_rss_mib": peak_rss_mib() - inputs_mib,
    }
    for name, kind in (
        ("read_p1_ms", workload.read_kind),
        ("write_p1_ms", workload.write_kind),
    ):
        if phase.latency_s[kind]:
            metrics[name] = float(np.percentile(phase.latency_s[kind], 1)) * 1000.0
    return metrics


def per_layer_metrics(
    workload: Workload, traced: Phase, untraced: Phase
) -> dict[str, float]:
    """Per-op means of the traced phase; 0 for ops this workload never runs."""
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    by_kind: dict[str, list[tuple[OpLedger, dict[str, float]]]] = defaultdict(list)
    for op_ledger, extra in traced.ledgers:
        by_kind[op_ledger.kind].append((op_ledger, extra))
    for kind, rows in by_kind.items():
        n = len(rows)
        ms = lambda f: 1000.0 * sum(f(o, e) for o, e in rows) / n  # noqa: E731
        cnt = lambda key: sum(o.counts.get(key, 0.0) for o, _ in rows) / n  # noqa: E731
        payload = sum(e["payload"] for _, e in rows)
        values = {
            "wall_ms": ms(lambda o, e: o.wall_s),
            "handle.self_ms": ms(lambda o, e: o.self_s["handle"]),
            "metadata.server_usage_ms": ms(lambda o, e: o.usage_s),
            "metadb.statements": cnt("statements"),
            "metadb.fsyncs": cnt("fsyncs"),
            "striping.slices": cnt("slices"),
            "combine.requests": cnt("requests"),
            "dispatch.queue_wait_ms": ms(lambda o, e: e["queue_wait_s"]),
            "backend.bytes_per_user_byte": (
                sum(o.counts.get("backend_bytes", 0.0) for o, _ in rows) / payload
                if payload
                else 0.0
            ),
            "server.service_ms": ms(lambda o, e: e.get("server_s", 0.0)),
        }
        for layer in LAYERS:
            values[f"{layer}.ms"] = ms(lambda o, e, layer=layer: o.self_s[layer])
        for measure in OPS[kind]:
            metrics[f"{kind}.{measure}"] = values[measure]
    per_k = 1000.0 / max(traced.completed, 1)
    metrics["dispatch.retries"] = traced.registry["retries"] * per_k
    metrics["dispatch.failures"] = traced.registry["failures"] * per_k
    metrics["net.sockets_discarded"] = traced.registry["sockets_discarded"] * per_k
    if traced.completed and untraced.completed:
        metrics["trace.overhead"] = (
            (traced.completed / traced.wall_s) / (untraced.completed / untraced.wall_s)
            - 1.0
        )
    return metrics


def accounting_errors(traced: Phase, tolerance: float = 0.10) -> list[str]:
    """Op kinds whose layer self times, ``handle.self_ms`` included, cover
    less than ``1 - tolerance`` of their wall time.

    The ledger charges every instant at most once, so the parts can never
    exceed the wall; what this catches is time inside no wrapped call at
    all, such as an entry point the ledger does not wrap.
    """
    sums: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])
    for op_ledger, _ in traced.ledgers:
        acc = sums[op_ledger.kind]
        acc[0] += sum(op_ledger.self_s.values())
        acc[1] += op_ledger.wall_s
    return [
        f"{kind}: layers sum to {parts:.6f}s of {wall:.6f}s wall"
        for kind, (parts, wall) in sums.items()
        if abs(parts - wall) > tolerance * wall
    ]


def pristine_errors() -> list[str]:
    """Wrappers still installed where an untraced run needs originals."""
    return [f"wrapper still installed: {name}" for name in installed_wrappers()]

"""The per-layer ledger of a traced run.

Wrappers installed from this file time the calls into each layer's
public functions; nothing inside ``src/`` is changed.  While an op runs,
every wrapped call appends a span ``(layer, start, end)``; only one op
is in flight, so every span recorded between an op's start and end
belongs to it, including spans from dispatcher worker threads.

Each instant of an op's wall time is charged to the innermost layer
active at that instant (``LAYERS`` lists them innermost first, the
DPFS entry points the workloads call last, as ``handle``), so no instant
is counted twice and a layer's ``ms`` is its self time.  An instant
inside no span at all is left unattributed: the accounting check in
``harness.py`` fails an op kind when that is more than 10 % of its wall.
"""

from __future__ import annotations

import functools
import os
import threading
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

import repro.core.handle as handle_mod
from repro.backends.local import LocalBackend
from repro.core.dispatch import Dispatcher
from repro.core.filesystem import DPFS
from repro.core.handle import FileHandle
from repro.core.intent import IntentLog
from repro.core.metadata import MetadataManager
from repro.core.striping import ArrayStriping, LinearStriping, MultidimStriping
from repro.metadb import Database
from repro.net.client import RemoteBackend

__all__ = ["LAYERS", "Ledger", "OpLedger", "installed_wrappers"]

#: layers in attribution order, innermost first
LAYERS = (
    "checksum",
    "metadb",
    "striping",
    "combine",
    "backend",
    "intent",
    "metadata",
    "dispatch",
    "handle",
)
_RANK = {layer: i for i, layer in enumerate(LAYERS)}

_BACKEND_METHODS = (
    "create_subfile",
    "delete_subfile",
    "subfile_exists",
    "rename_subfile",
    "list_subfiles",
    "subfile_size",
    "read_extents",
    "write_extents",
)

#: the DPFS entry points the workloads' ops call
_HANDLE_METHODS = (
    (DPFS, ("open", "remove")),
    (FileHandle, ("read", "write", "close")),
)


def _public_methods(cls: type) -> list[str]:
    return [
        name
        for name, value in vars(cls).items()
        if callable(value) and not name.startswith("_")
    ]


def _targets() -> list[tuple[Any, str, str]]:
    """Every ``(owner, attribute, layer)`` a traced run wraps."""
    targets: list[tuple[Any, str, str]] = [
        (MetadataManager, name, "metadata")
        for name in _public_methods(MetadataManager)
    ]
    targets += [
        (Database, "execute", "metadb"),
        (os, "fsync", "fsync"),
        (IntentLog, "begin", "intent"),
        (IntentLog, "mark", "intent"),
        (IntentLog, "retire", "intent"),
        (Dispatcher, "run", "dispatch"),
        (handle_mod, "plan_requests", "combine"),
        (handle_mod, "checksum_fn", "checksum"),
    ]
    for cls in (LinearStriping, MultidimStriping, ArrayStriping):
        for name in ("slices_for_region", "slices_for_extents"):
            if name in vars(cls):
                targets.append((cls, name, "striping"))
    for cls in (RemoteBackend, LocalBackend):
        targets += [(cls, name, "backend") for name in _BACKEND_METHODS]
    for cls, names in _HANDLE_METHODS:
        targets += [(cls, name, "handle") for name in names]
    return targets


_TARGETS = _targets()
#: the unwrapped functions, captured when this module is imported
_ORIGINALS = {(owner, attr): vars(owner)[attr] for owner, attr, _ in _TARGETS}


def installed_wrappers() -> list[str]:
    """Names of the targets that are currently not their originals."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for (owner, attr), original in _ORIGINALS.items()
        if vars(owner)[attr] is not original
    ]


class OpLedger:
    """What one op cost, layer by layer."""

    __slots__ = ("kind", "wall_s", "self_s", "unattributed_s", "usage_s", "counts")

    def __init__(self, kind: str, wall_s: float) -> None:
        self.kind = kind
        self.wall_s = wall_s
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.unattributed_s = 0.0
        self.usage_s = 0.0
        self.counts: dict[str, float] = defaultdict(float)


class Ledger:
    """Span and count recorder behind the traced-run wrappers."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._count_lock = threading.Lock()
        self._depth = threading.local()

    # -- recording ---------------------------------------------------------
    def _count(self, key: str, n: float) -> None:
        with self._count_lock:
            self.counts[key] += n

    def _wrap(
        self,
        fn: Callable,
        layer: str,
        count: Callable[[tuple, dict, Any], tuple[str, float]] | None = None,
    ) -> Callable:
        spans = self.spans
        depth = self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            level = getattr(depth, layer, 0)
            setattr(depth, layer, level + 1)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.append((layer, start, perf_counter()))
                setattr(depth, layer, level)
            if count is not None and level == 0:
                self._count(*count(args, kwargs, result))
            return result

        return wrapper

    def _replacement(self, owner: Any, attr: str, layer: str) -> Callable:
        original = _ORIGINALS[(owner, attr)]
        if layer == "fsync":

            @functools.wraps(original)
            def fsync(fd):
                self._count("fsyncs", 1)
                return original(fd)

            return fsync
        if layer == "checksum":

            @functools.wraps(original)
            def checksum_fn(algo):
                return self._wrap(original(algo), "checksum")

            return checksum_fn
        if attr == "server_usage":
            inner = self._wrap(original, "server_usage")
            return self._wrap(inner, "metadata")
        count = None
        if layer == "metadb":
            count = lambda a, k, r: ("statements", 1)  # noqa: E731
        elif layer == "striping":
            count = lambda a, k, r: ("slices", len(r))  # noqa: E731
        elif layer == "combine":
            count = lambda a, k, r: ("requests", len(r))  # noqa: E731
        elif attr == "read_extents":
            count = lambda a, k, r: ("backend_bytes", len(r))  # noqa: E731
        elif attr == "write_extents":
            count = lambda a, k, r: ("backend_bytes", len(a[4]))  # noqa: E731
        return self._wrap(original, layer, count)

    # -- lifecycle ---------------------------------------------------------
    def install(self) -> None:
        for owner, attr, layer in _TARGETS:
            setattr(owner, attr, self._replacement(owner, attr, layer))

    def uninstall(self) -> None:
        for (owner, attr), original in _ORIGINALS.items():
            setattr(owner, attr, original)

    def __enter__(self) -> "Ledger":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- per-op accounting -------------------------------------------------
    def begin_op(self) -> None:
        self.spans.clear()
        with self._count_lock:
            self.counts.clear()

    def end_op(self, kind: str, start: float, end: float) -> OpLedger:
        """Charge the spans recorded since :meth:`begin_op` to one op."""
        op = OpLedger(kind, end - start)
        events: list[tuple[float, int, int]] = []
        for layer, a, b in list(self.spans):
            a, b = max(a, start), min(b, end)
            if b <= a:
                continue
            if layer == "server_usage":
                op.usage_s += b - a
                continue
            rank = _RANK[layer]
            events.append((a, 1, rank))
            events.append((b, -1, rank))
        events.sort()
        active = [0] * len(LAYERS)
        charged = [0.0] * len(LAYERS)
        prev = start
        for t, delta, rank in events:
            if t > prev:
                inner = next((i for i, n in enumerate(active) if n), None)
                if inner is not None:
                    charged[inner] += t - prev
                prev = t
            active[rank] += delta
        for layer, seconds in zip(LAYERS, charged):
            op.self_s[layer] = seconds
        op.unattributed_s = op.wall_s - sum(charged)
        with self._count_lock:
            op.counts.update(self.counts)
        return op

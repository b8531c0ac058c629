"""Deterministic crash-point injection for crash-consistency testing.

Multi-step operations (:mod:`repro.core.filesystem`) and the write
of a chunk's checksums (:mod:`repro.backends.chunks`) call
:func:`crashpoint` at every step boundary::

    crashpoint(CP_REMOVE_AFTER_METADATA)

In a real run the call is a no-op costing one global read.  Tests arm a
named point with :func:`arm`; the next time execution reaches it the
process "crashes" — either by raising :class:`SimulatedCrash` (which,
being a :class:`BaseException`, sails through every ``except Exception``
recovery path exactly like a genuine ``kill -9`` would skip them) or,
in ``mode="exit"``, by calling :func:`os._exit` so no ``finally`` block
and no atexit hook runs at all.  A point fires **once** and disarms
itself, so the recovery sweep that follows can safely re-execute the
same code path.

Subprocess crash tests arm through the environment instead of the API:
``DPFS_CRASHPOINT=<name>`` (and optionally
``DPFS_CRASHPOINT_MODE=exit``) arms the point at import time, which is
how the kill-9 acceptance test murders a real client mid-operation.

Every point is declared here, as a ``CP_*`` constant, so the set the
systematic crash sweep enumerates, and :func:`arm` checks names
against, does not depend on which modules a process has imported.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Iterator
from contextlib import contextmanager

__all__ = [
    "SimulatedCrash",
    "crashpoint",
    "registered",
    "arm",
    "disarm",
    "armed_name",
    "armed",
]

#: exit status used by ``mode="exit"`` so a parent process can tell a
#: simulated crash apart from any ordinary failure
CRASH_EXIT_CODE = 86


class SimulatedCrash(BaseException):
    """An armed crash point fired.

    Deliberately *not* a :class:`repro.errors.DPFSError` — and not even
    an :class:`Exception` — so no error-handling or cleanup code in the
    library can absorb it: the operation dies mid-flight, exactly like
    the process it models.
    """

    def __init__(self, name: str) -> None:
        super().__init__(f"simulated crash at {name!r}")
        self.name = name


# -- the points ----------------------------------------------------------------
# One per boundary that separates two different durable states of a
# multi-step operation; the systematic crash sweep
# (tests/core/test_crash_sweep.py) arms each of these in turn and
# proves a remount plus ``fsck --repair`` restores a clean namespace.
# The ``mid_subfiles``/``mid_copy`` points sit *inside* the per-server
# fan-out, after one server's work, so they model a crash with the
# mutation half-applied across the cluster.  The ``in_commit`` points
# sit inside the commit transaction: a crash there means the
# transaction never became durable, so the operation never happened
# (create makes its subfiles inside it, so its ``mid_subfiles`` is one
# such point too).
# A boundary with no durable change between it and its neighbour (or
# the operation's start or end) has no point: a crash there leaves the
# same state as one at the neighbour.
CP_CREATE_MID_SUBFILES = "filesystem.create.mid_subfiles"
CP_CREATE_IN_COMMIT = "filesystem.create.in_commit"
CP_REMOVE_IN_COMMIT = "filesystem.remove.in_commit"
CP_REMOVE_AFTER_METADATA = "filesystem.remove.after_metadata"
CP_REMOVE_MID_SUBFILES = "filesystem.remove.mid_subfiles"
CP_REMOVE_AFTER_SUBFILES = "filesystem.remove.after_subfiles"
CP_RENAME_IN_COMMIT = "filesystem.rename.in_commit"
CP_GROW_MID_SUBFILES = "filesystem.grow.mid_subfiles"
CP_GROW_IN_COMMIT = "filesystem.grow.in_commit"
CP_REFILL_AFTER_INTENT = "filesystem.refill.after_intent"
CP_REFILL_MID_COPY = "filesystem.refill.mid_copy"
CP_REFILL_AFTER_COPY = "filesystem.refill.after_copy"
#: a write's bytes are in the subfile, its sidecar entries are not yet:
#: a crash here leaves a torn chunk that reads fail and scrub re-stamps
CP_WRITE_BEFORE_SIDECAR = "backend.write.before_sidecar"

#: every declared crash point: the ``CP_*`` constants above
_REGISTRY = frozenset(v for k, v in globals().items() if k.startswith("CP_"))

_lock = threading.Lock()


class _Armed:
    """One armed point; fires at most once."""

    __slots__ = ("name", "mode", "fired")

    def __init__(self, name: str, mode: str) -> None:
        self.name = name
        self.mode = mode
        self.fired = False


_armed: _Armed | None = None


def registered(prefix: str = "") -> list[str]:
    """All declared crash points (optionally filtered by name prefix)."""
    return sorted(n for n in _REGISTRY if n.startswith(prefix))


def arm(name: str, *, mode: str = "raise") -> None:
    """Arm one crash point; the next :func:`crashpoint(name)` fires it.

    ``mode="raise"`` raises :class:`SimulatedCrash`; ``mode="exit"``
    terminates the process with ``os._exit(CRASH_EXIT_CODE)``.
    """
    global _armed
    if mode not in ("raise", "exit"):
        raise ValueError(f"unknown crash mode {mode!r}")
    if name not in _REGISTRY:
        raise KeyError(
            f"unknown crash point {name!r}; registered points: "
            f"{registered()}"
        )
    with _lock:
        _armed = _Armed(name, mode)


def disarm() -> None:
    """Disarm whatever is armed (idempotent)."""
    global _armed
    with _lock:
        _armed = None


def armed_name() -> str | None:
    """Name of the currently armed point, if any."""
    a = _armed
    return a.name if a is not None else None


@contextmanager
def armed(name: str, *, mode: str = "raise") -> Iterator[None]:
    """``with armed("..."):`` — arm on entry, disarm on exit."""
    arm(name, mode=mode)
    try:
        yield
    finally:
        disarm()


def crashpoint(name: str) -> None:
    """Crash here if ``name`` is armed; otherwise do nothing.

    The disarmed path is a single global load and ``is None`` test so
    production code can call this on every step boundary for free.
    """
    a = _armed
    if a is None or a.name != name:
        return
    _fire(a)


def _fire(a: _Armed) -> None:
    global _armed
    with _lock:
        if a.fired:        # lost the race: another thread already fired
            return
        a.fired = True
        _armed = None
    if a.mode == "exit":
        os._exit(CRASH_EXIT_CODE)  # no cleanup, no flush: a real crash
    raise SimulatedCrash(a.name)


# -- environment arming (subprocess crash tests) ----------------------------
_env_point = os.environ.get("DPFS_CRASHPOINT")
if _env_point:  # pragma: no cover - exercised via subprocess tests
    arm(_env_point, mode=os.environ.get("DPFS_CRASHPOINT_MODE", "raise"))

"""Persistent intent journal for crash-consistent multi-step operations.

The paper's metadata consistency story is per-statement: every SQL
transaction is atomic (§5).  But DPFS's interesting mutations span the
metadata database *and* N storage servers — create, remove, rename,
grow, replica refill — and a client that dies between the database
commit and the last subfile operation leaves the two sources of truth
disagreeing (orphan subfiles, data stranded under an old name, ...).

This module supplies the standard cure: **write-ahead intents**.
Before its first side effect, an operation records an intent row in the
``dpfs_intent`` metadata table — the operation name, its arguments, the
ordered list of idempotent steps it will take, and which step is the
*commit point*.  Steps are marked off as they complete; the row is
retired when the operation finishes.  After a crash the journal names
exactly which operations were in flight, and the recovery engine
(:func:`recover`) applies one rule:

    *If the commit step completed, roll the intent forward (re-execute
    every remaining step — all steps are idempotent, so re-executing
    completed ones too is harmless).  Otherwise roll it back (undo in
    reverse).  Then retire the intent.*

An empty commit step means "always roll forward" (used by pure-repair
operations like replica refill, where re-running from scratch is both
safe and the only useful recovery).

Recovery runs automatically when a :class:`~repro.core.filesystem.DPFS`
instance is constructed (``auto_recover=True``, the default) and on
demand through ``dpfs recover`` / :meth:`DPFS.recover`.  The automatic
mount-time sweep only touches intents older than the mount's
``recover_grace_s`` (intents are stamped with their creation time), so
a second mount sharing the metadata database cannot roll back an
operation a *live* client is still executing; the explicit calls sweep
every pending intent regardless of age.  ``dpfs fsck`` surfaces
still-pending intents as ``pending-intent`` findings.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from ..errors import IntentError
from ..metadb import Database

if TYPE_CHECKING:  # pragma: no cover
    from .filesystem import DPFS

__all__ = [
    "Intent",
    "IntentLog",
    "RecoveryAction",
    "RecoveryReport",
    "recover",
]


@dataclass
class Intent:
    """One in-flight (or crashed) multi-step operation."""

    intent_id: str
    op: str
    args: dict[str, Any]
    steps: list[str]
    done: list[str]
    commit_step: str
    #: wall-clock creation time (``time.time()``); lets recovery tell a
    #: freshly-begun intent of a *live* client from one a dead client
    #: abandoned.
    created_at: float = 0.0

    def age_s(self, now: float | None = None) -> float:
        """Seconds since the intent was journalled."""
        return (time.time() if now is None else now) - self.created_at

    @property
    def committed(self) -> bool:
        """True when recovery must roll forward rather than back."""
        return not self.commit_step or self.commit_step in self.done

    @property
    def path(self) -> str:
        """Primary path the intent concerns (for reports/findings)."""
        return str(
            self.args.get("path") or self.args.get("old") or "?"
        )


class IntentLog:
    """The ``dpfs_intent`` table: write-ahead records of multi-step ops."""

    def __init__(self, db: Database) -> None:
        self.db = db
        self.db.execute(
            "CREATE TABLE IF NOT EXISTS dpfs_intent ("
            " intent_id TEXT PRIMARY KEY,"
            " op TEXT NOT NULL,"
            " args JSON NOT NULL,"
            " steps JSON NOT NULL,"
            " done JSON NOT NULL,"
            " commit_step TEXT NOT NULL,"
            " created_at REAL NOT NULL)"
        )

    # ------------------------------------------------------------------
    def begin(
        self,
        op: str,
        args: dict[str, Any],
        steps: list[str],
        commit_step: str,
    ) -> Intent:
        """Persist a new intent *before* the operation's first side effect."""
        if commit_step and commit_step not in steps:
            raise IntentError(
                f"commit step {commit_step!r} not among steps {steps}"
            )
        with self.db.transaction():
            existing = [
                row["intent_id"]
                for row in self.db.execute(
                    "SELECT intent_id FROM dpfs_intent"
                ).rows
            ]
            seq = 1 + max(
                (int(i[1:]) for i in existing if i[1:].isdigit()), default=0
            )
            intent = Intent(
                intent_id=f"i{seq:08d}",
                op=op,
                args=dict(args),
                steps=list(steps),
                done=[],
                commit_step=commit_step,
                created_at=time.time(),
            )
            self.db.execute(
                "INSERT INTO dpfs_intent VALUES (?, ?, ?, ?, ?, ?, ?)",
                [
                    intent.intent_id,
                    intent.op,
                    intent.args,
                    intent.steps,
                    intent.done,
                    intent.commit_step,
                    intent.created_at,
                ],
            )
        return intent

    def mark(self, intent: Intent, step: str) -> None:
        """Record one completed step (single-statement, hence atomic)."""
        if step not in intent.steps:
            raise IntentError(
                f"step {step!r} not among {intent.op} steps {intent.steps}"
            )
        if step not in intent.done:
            intent.done.append(step)
        self.db.execute(
            "UPDATE dpfs_intent SET done = ? WHERE intent_id = ?",
            [intent.done, intent.intent_id],
        )

    def retire(self, intent: Intent) -> None:
        """Drop a finished (or undone) intent (idempotent)."""
        self.db.execute(
            "DELETE FROM dpfs_intent WHERE intent_id = ?", [intent.intent_id]
        )

    def pending(self, min_age_s: float = 0.0) -> list[Intent]:
        """Every unretired intent, oldest first.

        ``min_age_s`` filters to intents journalled at least that many
        seconds ago — the mount-time auto-recovery sweep uses it as a
        grace period so a *live* concurrent client's in-flight intents
        are never mistaken for crash debris.
        """
        rows = self.db.execute(
            "SELECT intent_id, op, args, steps, done, commit_step, "
            "created_at FROM dpfs_intent ORDER BY intent_id"
        ).rows
        now = time.time()
        intents = []
        for row in rows:
            intent = Intent(
                intent_id=row["intent_id"],
                op=row["op"],
                args=dict(row["args"]),
                steps=list(row["steps"]),
                done=list(row["done"]),
                commit_step=row["commit_step"],
                created_at=float(row["created_at"]),
            )
            if intent.age_s(now) >= min_age_s:
                intents.append(intent)
        return intents


# ---------------------------------------------------------------------------
# recovery engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RecoveryAction:
    """What recovery did about one pending intent."""

    intent_id: str
    op: str
    path: str
    direction: str        # "forward" | "back"
    ok: bool
    detail: str = ""

    def __str__(self) -> str:
        mark = "DONE" if self.ok else "STUCK"
        verb = "rolled forward" if self.direction == "forward" else "rolled back"
        tail = f" — {self.detail}" if self.detail else ""
        return f"[{mark}] {self.op} {self.path}: {verb}{tail}"


@dataclass
class RecoveryReport:
    """Outcome of one recovery sweep."""

    actions: list[RecoveryAction] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return all(a.ok for a in self.actions)

    @property
    def recovered(self) -> list[RecoveryAction]:
        return [a for a in self.actions if a.ok]

    @property
    def stuck(self) -> list[RecoveryAction]:
        return [a for a in self.actions if not a.ok]

    def __str__(self) -> str:
        lines = [
            f"recover: {len(self.actions)} pending intent(s), "
            f"{len(self.recovered)} recovered, {len(self.stuck)} stuck"
        ]
        lines += [str(a) for a in self.actions]
        return "\n".join(lines)


def _forward_create(fs: "DPFS", args: dict[str, Any]) -> None:
    fs._redo_create_subfiles(args["path"], bool(args.get("replicated")))


def _back_create(fs: "DPFS", args: dict[str, Any]) -> None:
    # If the path exists in metadata, this (uncommitted) intent lost a
    # create race: a concurrent winner committed and the subfiles now
    # belong to *its* file.  Rolling them back would strand the winner.
    if fs.meta.file_exists(args["path"]):
        return
    fs._undo_create_subfiles(args["path"])


def _forward_remove(fs: "DPFS", args: dict[str, Any]) -> None:
    fs._redo_remove_subfiles(args["path"])


def _forward_rename(fs: "DPFS", args: dict[str, Any]) -> None:
    fs._redo_rename_subfiles(
        args["old"], args["new"], bool(args.get("replicated"))
    )


def _forward_grow(fs: "DPFS", args: dict[str, Any]) -> None:
    # grow is a single metadata transaction (its commit step); once that
    # committed there is no storage-side work — bricks materialise
    # lazily on first write — and before it nothing happened at all.
    return None


def _forward_refill(fs: "DPFS", args: dict[str, Any]) -> None:
    server = args.get("server")
    fs._redo_refill_replicas(
        args["path"], int(server) if server is not None else None
    )


def _noop(fs: "DPFS", args: dict[str, Any]) -> None:
    return None


_FORWARD: dict[str, Callable[["DPFS", dict[str, Any]], None]] = {
    "create": _forward_create,
    "remove": _forward_remove,
    "rename": _forward_rename,
    "grow": _forward_grow,
    "refill": _forward_refill,
}

_BACK: dict[str, Callable[["DPFS", dict[str, Any]], None]] = {
    "create": _back_create,
    "remove": _noop,      # commit (metadata removal) never happened
    "rename": _noop,      # commit (metadata rekey) never happened
    "grow": _noop,
    "refill": _noop,      # refill always rolls forward (commit_step "")
}


def recover(fs: "DPFS", min_age_s: float = 0.0) -> RecoveryReport:
    """Roll every pending intent forward or back; retire what succeeds.

    Failures (an unreachable server, say) leave the intent pending so a
    later sweep — or ``dpfs fsck --repair`` — can finish the job; they
    never abort the sweep for the remaining intents.

    ``min_age_s`` limits the sweep to intents at least that old.  The
    mount-time auto sweep passes the mount's recovery grace period so it
    never "recovers" (i.e. corrupts) an operation a live client sharing
    the metadata database is still executing; an explicit
    ``dpfs recover`` / :meth:`DPFS.recover` call sweeps everything.
    """
    report = RecoveryReport()
    c_recovered = fs.metrics.counter(
        "dpfs_intents_recovered_total",
        "pending intents resolved by recovery, by direction",
    )
    c_stuck = fs.metrics.counter(
        "dpfs_intents_stuck_total",
        "pending intents recovery could not resolve",
    )
    for intent in fs.intents.pending(min_age_s):
        direction = "forward" if intent.committed else "back"
        handler = (_FORWARD if intent.committed else _BACK).get(intent.op)
        if handler is None:
            report.actions.append(
                RecoveryAction(
                    intent.intent_id, intent.op, intent.path, direction,
                    False, f"unknown intent op {intent.op!r}",
                )
            )
            c_stuck.inc(op=intent.op)
            continue
        try:
            handler(fs, intent.args)
        except Exception as exc:  # noqa: BLE001 - reported, intent kept
            report.actions.append(
                RecoveryAction(
                    intent.intent_id, intent.op, intent.path, direction,
                    False, str(exc),
                )
            )
            c_stuck.inc(op=intent.op)
            continue
        fs.intents.retire(intent)
        report.actions.append(
            RecoveryAction(
                intent.intent_id, intent.op, intent.path, direction, True
            )
        )
        c_recovered.inc(op=intent.op, direction=direction)
    return report

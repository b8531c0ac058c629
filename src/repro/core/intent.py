"""Persistent intent journal: the server side of remove and refill
finishes after a crash.

The paper's metadata consistency story is per-statement: every SQL
transaction is atomic (§5).  Two DPFS mutations still have work left on
the storage servers after their metadata is settled: *remove* drops a
file's rows, then deletes its subfiles; *replica refill* recreates a
lost replica subfile, then copies its bricks back from the primaries.
A client that dies in between leaves subfiles metadata no longer
accounts for, or a replica subfile half full.

Each of the two records an **intent** in the ``dpfs_intent`` metadata
table no later than its first side effect (remove inside its commit
transaction, refill before it copies) and retires it when done.  Their
work is idempotent and addressed by a file id that is never reused, so
recovery (:func:`recover`) has one rule: *re-run every pending intent,
then retire it*.  Nothing is ever rolled back, and sweeping the intent
of a mount that is still alive is harmless: the deletes and copies it
repeats are ones that mount makes too.

The other mutations journal nothing.  Create commits its row and then
makes the subfiles, so a crash leaves a file no byte was written to,
whose missing subfiles ``dpfs fsck --repair`` recreates empty.  Rename
is one UPDATE, and grow one transaction after its subfiles exist.

Recovery runs automatically when a :class:`~repro.core.filesystem.DPFS`
instance is constructed (``auto_recover=True``, the default) and on
demand through ``dpfs recover`` / :meth:`DPFS.recover`.  ``dpfs fsck``
surfaces still-pending intents as ``pending-intent`` findings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

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

    intent_id: int
    op: str
    args: dict[str, Any]
    #: steps recorded finished with :meth:`IntentLog.mark` (reports only)
    done: list[str] = field(default_factory=list)

    @property
    def path(self) -> str:
        """Path the intent concerns (for reports/findings)."""
        return str(self.args.get("path", "?"))


class IntentLog:
    """The ``dpfs_intent`` table: write-ahead records of multi-step ops.

    Ids are AUTOINCREMENT, so a retired intent's id is never handed out
    again and a late :meth:`retire` cannot drop a newer intent.
    """

    def __init__(self, db: Database) -> None:
        self.db = db
        self.db.execute(
            "CREATE TABLE IF NOT EXISTS dpfs_intent ("
            " intent_id INTEGER PRIMARY KEY AUTOINCREMENT,"
            " op TEXT NOT NULL,"
            " args JSON NOT NULL,"
            " done JSON NOT NULL DEFAULT '[]')"
        )

    # ------------------------------------------------------------------
    def begin(self, op: str, args: dict[str, Any]) -> Intent:
        """Persist a new intent (one INSERT) before, or in the same
        transaction as, the operation's first side effect."""
        intent_id = self.db.execute(
            "INSERT INTO dpfs_intent (op, args) VALUES (?, ?)", [op, dict(args)]
        ).lastrowid
        return Intent(intent_id, op, dict(args))

    def mark(self, intent: Intent, step: str) -> None:
        """Record one finished step, shown by fsck's ``pending-intent``
        finding; recovery re-runs the whole intent regardless."""
        if step not in intent.done:
            intent.done.append(step)
        self.db.execute(
            "UPDATE dpfs_intent SET done = ? WHERE intent_id = ?",
            [intent.done, intent.intent_id],
        )

    def retire(self, intent: Intent) -> None:
        """Drop a finished intent (idempotent)."""
        self.db.execute(
            "DELETE FROM dpfs_intent WHERE intent_id = ?", [intent.intent_id]
        )

    def pending(self) -> list[Intent]:
        """Every unretired intent, oldest first."""
        return [
            Intent(row["intent_id"], row["op"], dict(row["args"]), list(row["done"]))
            for row in self.db.execute(
                "SELECT intent_id, op, args, done FROM dpfs_intent"
                " ORDER BY intent_id"
            ).rows
        ]


# ---------------------------------------------------------------------------
# recovery engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RecoveryAction:
    """What recovery did about one pending intent."""

    intent_id: int
    op: str
    path: str
    ok: bool
    detail: str = ""

    def __str__(self) -> str:
        mark = "DONE" if self.ok else "STUCK"
        tail = f" — {self.detail}" if self.detail else ""
        return f"[{mark}] {self.op} {self.path}: rolled forward{tail}"


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


def _forward_remove(fs: "DPFS", args: dict[str, Any]) -> None:
    fs._redo_remove_subfiles(args["file_id"], args["servers"])


def _forward_refill(fs: "DPFS", args: dict[str, Any]) -> None:
    fs._redo_refill_replicas(args["file_id"], args["server"])


_FORWARD: dict[str, Callable[["DPFS", dict[str, Any]], None]] = {
    "remove": _forward_remove,
    "refill": _forward_refill,
}


def recover(fs: "DPFS") -> RecoveryReport:
    """Roll every pending intent forward; retire what succeeds.

    Failures (an unreachable server, say) leave the intent pending so a
    later sweep — or ``dpfs fsck --repair`` — can finish the job; they
    never abort the sweep for the remaining intents.
    """
    report = RecoveryReport()
    c_recovered = fs.metrics.counter(
        "dpfs_intents_recovered_total", "pending intents rolled forward"
    )
    c_stuck = fs.metrics.counter(
        "dpfs_intents_stuck_total",
        "pending intents recovery could not resolve",
    )
    for intent in fs.intents.pending():
        handler = _FORWARD.get(intent.op)
        try:
            if handler is None:
                raise LookupError(f"unknown intent op {intent.op!r}")
            handler(fs, intent.args)
        except Exception as exc:  # noqa: BLE001 - reported, intent kept
            report.actions.append(
                RecoveryAction(
                    intent.intent_id, intent.op, intent.path, False, str(exc)
                )
            )
            c_stuck.inc(op=intent.op)
            continue
        fs.intents.retire(intent)
        report.actions.append(
            RecoveryAction(intent.intent_id, intent.op, intent.path, True)
        )
        c_recovered.inc(op=intent.op)
    return report

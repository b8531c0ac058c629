"""File system consistency checker (fsck) for DPFS.

The paper's reliability story is "the transaction mechanism provided by
database systems can help maintain meta data consistency" (§5); fsck is
the complementary tool that cross-checks the *two* sources of truth —
the metadata database and the servers' subfiles — and reports (or
repairs) drift between them:

=====================  =====================================================
``pending-intent``     the intent journal holds a remove or refill a
                       crashed client never finished (repair: run the
                       recovery engine, which rolls it forward)
``missing-subfile``    a bricklist references a server where the subfile
                       does not exist, and no brick it held was written
                       or each written one has another copy (repair:
                       recreate empty; unwritten bricks read as zeros,
                       and the deep pass rewrites written ones from
                       their other copy)
``lost-subfile``       as ``missing-subfile``, but a brick it held has a
                       stored checksum and no other copy: its bytes are
                       gone (unrepairable: reported, and reads keep
                       failing rather than return zeros)
``missing-replica``    a replica bricklist references a server where the
                       replica subfile does not exist (repair: recreate
                       and refill every replica brick from its primary)
``orphan-subfile``     a server holds a subfile but no row of its file
                       (repair: delete)
``bad-brick-map``      a file's distribution rows are not a permutation of
                       its bricks (unrepairable: reported only)
``usage-drift``        a server's ``used`` counter in ``dpfs_server``
                       disagrees with the sum of its bricks over every
                       bricklist (repair: rewrite the counters)
=====================  =====================================================

Directory membership needs no pass: a file's or directory's own
``parent`` key is the only record of it, and the database's foreign key
refuses any statement that would leave a child without its directory.

With ``deep=True`` (the default) fsck additionally runs the scrubber's
copy verification over every file, surfacing ``checksum-mismatch``,
``stale-checksum``, ``replica-divergence`` and ``unreadable-copy``
findings with the same repair semantics as ``dpfs scrub``
(:mod:`repro.core.scrub`).

    report = fsck(fs)
    if not report.clean:
        fsck(fs, repair=True)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..errors import DPFSError
from .brick import file_id_of, subfile_names
from .metadata import _BRICK_SIZES_OF

if TYPE_CHECKING:  # pragma: no cover
    from .filesystem import DPFS
    from .metadata import Holders, MetadataManager

__all__ = ["Finding", "FsckReport", "fsck", "rewrite_usage", "usage_oracle"]

# Every server's bytes summed over every distribution and replica
# bricklist: the oracle for the ``used`` counters.  It reads the whole
# namespace, so only fsck (and the one-time fill of a root written
# before the counters existed) runs it.
_SERVER_USAGE_SQL = (
    "SELECT server_id, SUM(size) AS used FROM ("
    + _BRICK_SIZES_OF.format("dpfs_file_distribution")
    + " UNION ALL "
    + _BRICK_SIZES_OF.format("dpfs_file_replica")
    + ") GROUP BY server_id"
)


def usage_oracle(meta: "MetadataManager") -> dict[int, int]:
    """Physical bytes each server holds, recounted from the bricklists."""
    usage = {row["server_id"]: 0 for row in meta.servers()}
    for row in meta.db.execute(_SERVER_USAGE_SQL).rows:
        # NULL: only empty bricklists name the server
        usage[row["server_id"]] = row["used"] or 0
    return usage


def rewrite_usage(meta: "MetadataManager", usage: dict[int, int]) -> None:
    """Set the servers' ``used`` counters (``usage``: server id → bytes)."""
    with meta.db.transaction():
        for server_id, used in usage.items():
            meta.db.execute(
                "UPDATE dpfs_server SET used = ? WHERE server_id = ?",
                [used, server_id],
            )


@dataclass(frozen=True)
class Finding:
    """One inconsistency."""

    kind: str
    path: str
    detail: str
    repaired: bool = False

    def __str__(self) -> str:
        mark = "FIXED" if self.repaired else "FOUND"
        return f"[{mark}] {self.kind}: {self.path} — {self.detail}"


@dataclass
class FsckReport:
    """Outcome of one consistency pass."""

    files_checked: int = 0
    findings: list[Finding] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings

    def by_kind(self, kind: str) -> list[Finding]:
        return [f for f in self.findings if f.kind == kind]

    def __str__(self) -> str:
        lines = [
            f"fsck: {self.files_checked} files, "
            f"{len(self.findings)} finding(s)"
        ]
        lines += [str(f) for f in self.findings]
        return "\n".join(lines)


def _belongs(holders: "Holders", server: int, name: str, file_id: int) -> bool:
    """Whether subfile ``name`` of file ``file_id``, whose row servers
    are ``holders``, belongs on ``server``: a replicated file's two
    subfiles on any of its row servers (remove deletes both names on
    each, and an older build made both on every server), an
    unreplicated file's primary one on its distribution-row servers."""
    if holders.replica:
        return server in holders.servers()
    return server in holders.primary and name == subfile_names(file_id)[0]


def fsck(fs: "DPFS", repair: bool = False, *, deep: bool = True) -> FsckReport:
    """Cross-check metadata against storage; optionally repair.

    ``deep=True`` adds the scrubber's checksum verification of every
    brick copy (reads all data; disable for a metadata-only pass).
    """
    from .scrub import verify_file_copies

    report = FsckReport()
    meta = fs.meta
    backend = fs.backend

    # -- pass 0: crashed multi-step operations (intent journal) ----------------
    # Run before everything else: finishing a half-done remove or
    # refill is what makes the later passes see a consistent tree.
    pending = fs.intents.pending()
    if pending:
        outcome = {}
        if repair:
            outcome = {a.intent_id: a for a in fs.recover().actions}
        for intent in pending:
            action = outcome.get(intent.intent_id)
            detail = (
                f"{intent.op} interrupted mid-flight (steps done: "
                f"{', '.join(intent.done) or 'none'})"
            )
            if action is not None and not action.ok and action.detail:
                detail += f" — recovery stuck: {action.detail}"
            report.findings.append(
                Finding(
                    "pending-intent",
                    intent.path,
                    detail,
                    bool(action and action.ok),
                )
            )

    # file id → the servers holding its rows, for the orphan pass
    known: dict[int, Holders] = {}

    # -- pass 1: every file's brick map and subfiles --------------------------
    for row in meta.db.execute(
        "SELECT filename, file_id FROM dpfs_file_attr ORDER BY filename"
    ).rows:
        path, file_id = row["filename"], row["file_id"]
        report.files_checked += 1
        known[file_id] = meta.holders(file_id)
        try:
            record, bmap = meta.load_file(file_id)
        except DPFSError as exc:
            report.findings.append(
                Finding("bad-brick-map", path, str(exc))
            )
            continue
        rmap = None
        if record.replicas > 1:
            try:
                rmap = meta.load_replica_map(record)
            except DPFSError as exc:
                # checked below as if no brick had another copy
                report.findings.append(
                    Finding("bad-brick-map", path, f"replica map: {exc}")
                )
        name, rname = subfile_names(file_id)
        for server in range(backend.n_servers):
            bricks = bmap.bricklist(server)
            if not bricks or backend.subfile_exists(server, name):
                continue
            # a brick with a stored checksum held data; without another
            # copy to rewrite it from, an empty subfile would turn it
            # into zeros no read could tell from the real bytes
            lost = [
                b for b in bricks
                if record.brick_crcs[b] is not None
                and (rmap is None or not rmap.servers_of(b))
            ]
            if lost:
                report.findings.append(
                    Finding(
                        "lost-subfile",
                        path,
                        f"server {server} lost the subfile holding written "
                        f"brick(s) {lost}, which have no other copy",
                    )
                )
                continue
            if repair:
                backend.create_subfile(server, name)
            report.findings.append(
                Finding(
                    "missing-subfile",
                    path,
                    f"server {server} holds bricks but no subfile",
                    repair,
                )
            )
        if rmap is None:
            continue
        for server in range(backend.n_servers):
            if not rmap.bricklists[server]:
                continue
            if not backend.subfile_exists(server, rname):
                repaired = False
                if repair:
                    repaired = fs.refill_replica_subfile(path, server)
                report.findings.append(
                    Finding(
                        "missing-replica",
                        path,
                        f"server {server} holds replica bricks but no "
                        f"replica subfile",
                        repaired,
                    )
                )

    # -- deep pass: checksum-verify every copy of every brick ------------------
    # (after pass 1, whose recreated subfiles this pass rewrites from
    # their other copy)
    if deep:
        for path in meta.iter_files():
            try:
                copy_findings = verify_file_copies(fs, path, repair=repair)
            except DPFSError:
                continue  # already reported as bad-brick-map above
            for cf in copy_findings:
                report.findings.append(
                    Finding(
                        cf.kind,
                        cf.path,
                        f"brick {cf.brick_id}"
                        + (f" server {cf.server}" if cf.server >= 0 else "")
                        + f": {cf.detail}",
                        cf.repaired,
                    )
                )

    # -- pass 2: usage counters ↔ bricklists ---------------------------------
    oracle = usage_oracle(meta)
    drifted = [
        row for row in meta.servers() if row["used"] != oracle[row["server_id"]]
    ]
    if drifted and repair:
        rewrite_usage(meta, oracle)
    for row in drifted:
        report.findings.append(
            Finding(
                "usage-drift",
                row["server_name"],
                f"counter says {row['used']} bytes used, its bricks hold "
                f"{oracle[row['server_id']]}",
                repair,
            )
        )

    # -- pass 3: orphan subfiles on the servers --------------------------------
    for server in range(backend.n_servers):
        for name in backend.list_subfiles(server):
            file_id = file_id_of(name)
            if file_id is not None:
                # a file created since pass 1 commits its rows before it
                # makes its subfiles: look again before calling one orphan
                holders = known.get(file_id) or meta.holders(file_id)
                if _belongs(holders, server, name, file_id):
                    continue
            repaired = False
            if repair:
                backend.delete_subfile(server, name)
                repaired = True
            report.findings.append(
                Finding(
                    "orphan-subfile",
                    name,
                    f"server {server} holds a subfile but no row of its file",
                    repaired,
                )
            )
    return report


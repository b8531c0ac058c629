"""At-rest checksum scrubbing and replica repair.

Read-repair (:mod:`repro.core.handle`) only heals bricks that get
*read*; the scrubber is its offline twin — it walks every file, reads
every copy of every brick, and compares each copy's checksum against
the one stored in metadata.  The stored checksum arbitrates:

=====================  ====================================================
``checksum-mismatch``  a copy differs from the stored checksum while some
                       copy still matches (repair: rewrite the bad copy
                       from a matching one)
``stale-checksum``     every readable copy agrees but none matches the
                       stored checksum — the metadata record is the stale
                       party, e.g. a crash between data and metadata
                       updates (repair: store the agreed checksum)
``replica-divergence`` copies disagree and the stored checksum matches
                       none of them; with three or more copies a strict
                       majority wins (repair: rewrite the minority and
                       store the majority checksum), otherwise the brick
                       is reported unrepairable
``unreadable-copy``    a copy could not be read at all (repair: rewrite
                       from a verified copy, recreating the subfile)
``pending-intent``     the intent journal holds an unfinished multi-step
                       operation — data findings on that path may be
                       transient (report-only: ``dpfs recover`` or
                       ``dpfs fsck --repair`` resolve it)
=====================  ====================================================

Bricks whose stored checksum is ``None`` (never written, or created
before checksums existed) are not findings; ``repair=True`` silently
backfills their checksum when every copy agrees.

Repaired copies are lifted from the file system's quarantine set;
unrepairable bad copies are added to it so reads avoid them.

    report = scrub(fs)
    if not report.clean:
        scrub(fs, repair=True)
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..errors import DPFSError
from .brick import replica_subfile
from .checksum import checksum_fn

if TYPE_CHECKING:  # pragma: no cover
    from .filesystem import DPFS

__all__ = ["ScrubFinding", "ScrubReport", "scrub", "verify_file_copies"]


@dataclass(frozen=True)
class ScrubFinding:
    """One bad brick copy (or stale metadata checksum)."""

    kind: str
    path: str
    brick_id: int
    server: int          # -1 for metadata-side findings
    detail: str
    repaired: bool = False

    def __str__(self) -> str:
        mark = "FIXED" if self.repaired else "FOUND"
        where = f"server {self.server}" if self.server >= 0 else "metadata"
        return (
            f"[{mark}] {self.kind}: {self.path} brick {self.brick_id} "
            f"({where}) — {self.detail}"
        )


@dataclass
class ScrubReport:
    """Outcome of one scrub pass."""

    files_checked: int = 0
    bricks_checked: int = 0
    copies_checked: int = 0
    checksums_backfilled: int = 0
    findings: list[ScrubFinding] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings

    @property
    def unrepaired(self) -> list[ScrubFinding]:
        return [f for f in self.findings if not f.repaired]

    def by_kind(self, kind: str) -> list[ScrubFinding]:
        return [f for f in self.findings if f.kind == kind]

    def __str__(self) -> str:
        lines = [
            f"scrub: {self.files_checked} files, "
            f"{self.bricks_checked} bricks, "
            f"{self.copies_checked} copies, "
            f"{len(self.findings)} finding(s), "
            f"{self.checksums_backfilled} checksum(s) backfilled"
        ]
        lines += [str(f) for f in self.findings]
        return "\n".join(lines)


def scrub(fs: "DPFS", repair: bool = False) -> ScrubReport:
    """Verify every copy of every brick against stored checksums."""
    report = ScrubReport()
    c_bricks = fs.metrics.counter(
        "dpfs_scrub_bricks_total", "bricks verified by the scrubber"
    )
    c_findings = fs.metrics.counter(
        "dpfs_scrub_findings_total", "bad copies found by the scrubber"
    )
    # a crashed multi-step operation can make a path look corrupt
    # (half-renamed subfiles, missing replicas); surface the journal
    # state so the operator recovers before trusting data findings
    for intent in fs.intents.pending():
        report.findings.append(
            ScrubFinding(
                "pending-intent", intent.path, -1, -1,
                f"{intent.op} interrupted mid-flight; run `dpfs recover` "
                f"(or `dpfs fsck --repair`) first",
            )
        )
    for path in fs.meta.iter_files():
        report.files_checked += 1
        try:
            findings = verify_file_copies(fs, path, repair=repair, report=report)
        except DPFSError as exc:
            report.findings.append(
                ScrubFinding(
                    "bad-brick-map", path, -1, -1, str(exc)
                )
            )
            continue
        report.findings.extend(findings)
        c_findings.inc(len(findings))
    c_bricks.inc(report.bricks_checked)
    return report


def verify_file_copies(
    fs: "DPFS",
    path: str,
    *,
    repair: bool = False,
    report: ScrubReport | None = None,
) -> list[ScrubFinding]:
    """Checksum-verify (and optionally repair) all copies of one file.

    Shared by :func:`scrub` and :func:`repro.core.fsck.fsck` so both
    tools agree on what corruption means.  Raises on an unloadable brick
    map; the caller classifies that.
    """
    meta = fs.meta
    backend = fs.backend
    record, bmap = meta.load_file(path)
    rmap = (
        meta.load_replica_map(path, record) if record.replicas > 1 else None
    )
    try:
        crc = checksum_fn(record.crc_algo)
    except KeyError:
        return [
            ScrubFinding(
                "unknown-checksum-algorithm", path, -1, -1,
                f"stored checksums use unknown algorithm "
                f"{record.crc_algo!r}; cannot verify",
            )
        ]
    findings: list[ScrubFinding] = []
    new_crcs: dict[int, int | None] = {}
    rname = replica_subfile(path)
    for brick_id in range(len(bmap)):
        if report is not None:
            report.bricks_checked += 1
        loc = bmap.location(brick_id)
        copies = [(loc.server, path, loc.local_offset, loc.size)]
        if rmap is not None:
            copies += [
                (rl.server, rname, rl.local_offset, rl.size)
                for rl in rmap.locations(brick_id)
            ]
        datas: dict[tuple[int, str], bytes] = {}
        unreadable: list[tuple[int, str, int, int, str]] = []
        for server, name, off, size in copies:
            if report is not None:
                report.copies_checked += 1
            try:
                datas[(server, name)] = bytes(
                    backend.read_extents(server, name, [(off, size)])
                )
            except (DPFSError, OSError) as exc:
                unreadable.append((server, name, off, size, str(exc)))
        crcs = {k: crc(v, 0) for k, v in datas.items()}
        stored = (
            record.brick_crcs[brick_id]
            if brick_id < len(record.brick_crcs)
            else None
        )

        good_key = None
        if stored is not None:
            good_key = next(
                (k for k, v in crcs.items() if v == stored), None
            )
        if stored is not None and good_key is not None:
            # stored checksum arbitrates: every other readable copy must
            # match it, unreadable copies are rewritten from the good one
            for key, value in crcs.items():
                if value == stored:
                    continue
                server, name = key
                off, size = _copy_extent(copies, key)
                repaired = repair and rewrite_copy(
                    fs, path, brick_id, server, name, off, size,
                    datas[good_key],
                )
                if not repaired:
                    fs.quarantine.add((path, brick_id, server))
                findings.append(
                    ScrubFinding(
                        "checksum-mismatch", path, brick_id, server,
                        f"copy in {name!r} does not match stored "
                        f"{record.crc_algo} checksum",
                        repaired,
                    )
                )
            for server, name, off, size, why in unreadable:
                repaired = repair and rewrite_copy(
                    fs, path, brick_id, server, name, off, size,
                    datas[good_key], create=True,
                )
                if not repaired:
                    fs.quarantine.add((path, brick_id, server))
                findings.append(
                    ScrubFinding(
                        "unreadable-copy", path, brick_id, server,
                        f"copy in {name!r} unreadable: {why}", repaired,
                    )
                )
            continue

        # no arbiter (stored is None or matches nothing)
        if not crcs:
            continue  # nothing readable; existence is fsck's department
        agreed = len(set(crcs.values())) == 1
        if agreed:
            value = next(iter(crcs.values()))
            if stored is None:
                # silent backfill: legacy/unwritten bricks are not findings
                if repair:
                    new_crcs[brick_id] = value
                    if report is not None:
                        report.checksums_backfilled += 1
            else:
                repaired = False
                if repair:
                    new_crcs[brick_id] = value
                    repaired = True
                findings.append(
                    ScrubFinding(
                        "stale-checksum", path, brick_id, -1,
                        f"all {len(crcs)} copies agree but none matches the "
                        f"stored checksum (metadata is stale)",
                        repaired,
                    )
                )
            continue

        # copies disagree with no arbiter: strict majority wins
        counts = Counter(crcs.values())
        value, votes = counts.most_common(1)[0]
        if votes > len(crcs) / 2:
            majority_key = next(k for k, v in crcs.items() if v == value)
            repaired_all = True
            for key, v in crcs.items():
                if v == value:
                    continue
                server, name = key
                off, size = _copy_extent(copies, key)
                ok = repair and rewrite_copy(
                    fs, path, brick_id, server, name, off, size,
                    datas[majority_key],
                )
                if not ok:
                    fs.quarantine.add((path, brick_id, server))
                    repaired_all = False
                findings.append(
                    ScrubFinding(
                        "replica-divergence", path, brick_id, server,
                        f"copy in {name!r} disagrees with the majority "
                        f"({votes}/{len(crcs)} copies)",
                        ok,
                    )
                )
            if repair and repaired_all:
                new_crcs[brick_id] = value
        else:
            findings.append(
                ScrubFinding(
                    "replica-divergence", path, brick_id, -1,
                    f"{len(crcs)} copies disagree with no majority and no "
                    f"stored checksum to arbitrate; unrepairable",
                )
            )
    if repair and new_crcs:
        meta.update_brick_crcs(path, new_crcs)
    return findings


def _copy_extent(
    copies: list[tuple[int, str, int, int]], key: tuple[int, str]
) -> tuple[int, int]:
    for server, name, off, size in copies:
        if (server, name) == key:
            return off, size
    raise KeyError(key)


def rewrite_copy(
    fs: "DPFS",
    path: str,
    brick_id: int,
    server: int,
    name: str,
    off: int,
    size: int,
    good: bytes,
    *,
    create: bool = False,
) -> bool:
    """Overwrite one copy with verified bytes; True on success.

    Success lifts the copy's quarantine, counts a repair and drops the
    file's cached bricks; failure (the server may be down) leaves the
    copy quarantined.  Read-repair and the scrubber both use it.
    """
    try:
        if create and not fs.backend.subfile_exists(server, name):
            fs.backend.create_subfile(server, name)
        fs.backend.write_extents(server, name, [(off, size)], good)
    except (DPFSError, OSError):
        return False
    fs.quarantine.discard((path, brick_id, server))
    fs._note_repair()
    if fs.cache is not None:
        fs.cache.invalidate_file(path)
    return True

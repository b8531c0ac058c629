"""At-rest scrubbing and replica convergence.

Servers verify every read against their per-chunk checksums
(:mod:`repro.backends.chunks`), and read-repair (:mod:`repro.core.handle`)
heals the bricks that get read.  The scrubber reads every copy of every
brick and makes them converge on a *winner* among the copies that
verify and are not listed stale (:attr:`DPFS.stale_copies`): the bytes
a strict majority hold, else the lowest-index copy.  Every other copy
is a finding and is rewritten from the winner:

=====================  ====================================================
``stale-copy``         the copy is listed stale: a degraded write missed
                       it, or an earlier pass found it bad
``checksum-mismatch``  a chunk of the copy fails its server's checksum
``replica-divergence`` the copy verifies but holds other bytes than the
                       winner, e.g. where two writers of one brick reached
                       its copies in different orders
``unreadable-copy``    the copy could not be read at all (repair also
                       recreates its subfile)
``stale-checksum``     no copy verifies, and the failing ones not listed
                       stale hold the same bytes: their checksums are
                       suspect, e.g. after a crash between a write's
                       bytes and its sidecar (repair: re-stamp them from
                       their bytes); if those bytes differ, each is an
                       unrepairable ``checksum-mismatch``
``pending-intent``     the intent journal holds an unfinished remove or
                       refill — data findings on that path may be
                       transient (report-only: ``dpfs recover`` or
                       ``dpfs fsck --repair`` resolve it)
=====================  ====================================================

With no winner, listed stale copies are reported unrepairable.  Only
``repair`` changes anything: a rewritten copy is struck off the stale
list, and a readable copy whose rewrite failed is listed.

    report = scrub(fs)
    if not report.clean:
        scrub(fs, repair=True)
"""

from __future__ import annotations

from collections import Counter
from contextlib import suppress
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..backends.chunks import CHUNK_SIZE
from ..errors import ChecksumError, DPFSError
from .brick import BrickLocation, BrickMap, ReplicaMap, subfile_names

if TYPE_CHECKING:  # pragma: no cover
    from .filesystem import DPFS

__all__ = [
    "ScrubFinding", "ScrubReport", "brick_copies", "read_fresh_copy",
    "repair_copy", "scrub", "verify_file_copies",
]


@dataclass(frozen=True)
class ScrubFinding:
    """One bad brick copy."""

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
            f"{len(self.findings)} finding(s)"
        ]
        lines += [str(f) for f in self.findings]
        return "\n".join(lines)


def scrub(fs: "DPFS", repair: bool = False) -> ScrubReport:
    """Read every copy of every brick and make the copies converge."""
    report = ScrubReport()
    c_bricks = fs.metrics.counter(
        "dpfs_scrub_bricks_total", "bricks verified by the scrubber"
    )
    c_findings = fs.metrics.counter(
        "dpfs_scrub_findings_total", "bad copies found by the scrubber"
    )
    # a crashed remove or refill can make a path look corrupt (a
    # half-refilled replica); surface the journal state so the operator
    # recovers before trusting data findings
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
    """Check (and optionally repair) all copies of one file.

    Shared by :func:`scrub` and :func:`repro.core.fsck.fsck` so both
    tools agree on what corruption means.  Raises on an unloadable brick
    map; the caller classifies that.
    """
    record, bmap = fs.meta.load_file(path)
    rmap = fs.meta.load_replica_map(record) if record.replicas > 1 else None
    findings: list[ScrubFinding] = []
    for brick_id in range(len(bmap)):
        if report is not None:
            report.bricks_checked += 1
            report.copies_checked += 1 + (len(rmap.locations(brick_id)) if rmap else 0)
        findings += _converge(fs, path, record.file_id, bmap, rmap, brick_id, repair)
    return findings


def _converge(
    fs: "DPFS",
    path: str,
    file_id: int,
    bmap: BrickMap,
    rmap: ReplicaMap | None,
    brick_id: int,
    repair: bool,
) -> list[ScrubFinding]:
    """Findings (and repairs) for the copies of one brick."""
    copies = brick_copies(file_id, bmap, rmap, brick_id)
    datas: dict[int, bytes] = {}
    bad: dict[int, tuple[str, str]] = {}
    for loc, name in copies:
        try:
            extent = [(loc.local_offset, loc.size)]
            datas[loc.server] = bytes(fs.backend.read_extents(loc.server, name, extent))
        except ChecksumError as exc:
            bad[loc.server] = ("checksum-mismatch", f"copy in {name!r}: {exc}")
        except (DPFSError, OSError) as exc:
            bad[loc.server] = ("unreadable-copy", f"copy in {name!r} unreadable: {exc}")
    stale = {
        loc.server
        for loc, _ in copies
        if (file_id, brick_id, loc.server) in fs.stale_copies
    }
    findings: list[ScrubFinding] = []
    servers = [loc.server for loc, _ in copies]
    fresh = [s for s in servers if s in datas and s not in stale]
    if not fresh:
        # no copy vouches for its bytes: those whose chunks fail are
        # re-stamped from their bytes, if those agree
        torn = {
            loc.server: (name, [(loc.local_offset, loc.size)])
            for loc, name in copies
            if loc.server not in stale
            and bad.get(loc.server, ("",))[0] == "checksum-mismatch"
        }
        raw: dict[int, bytes] = {}
        for s, (name, extent) in torn.items():
            with suppress(DPFSError, OSError):
                raw[s] = bytes(fs.backend.read_extents(s, name, extent, verify=False))
        agreed = len(raw) == len(torn) and len(set(raw.values())) == 1
        for s, (name, extent) in torn.items():
            if agreed and repair:
                with suppress(DPFSError, OSError):
                    fs.backend.write_extents(s, name, extent, raw[s])
                    datas[s] = raw[s]
                    del bad[s]
                    fresh.append(s)
            findings.append(
                ScrubFinding(
                    "stale-checksum" if agreed else "checksum-mismatch",
                    path, brick_id, s,
                    f"no copy verifies, and those that fail hold "
                    f"{'the same' if agreed else 'different'} bytes "
                    f"(this one in {name!r})",
                    s in fresh,
                )
            )
    if not fresh:
        findings += [
            ScrubFinding(
                "stale-copy", path, brick_id, s,
                "listed stale, and no fresh copy to rewrite it from",
            )
            for s in sorted(stale)
        ]
        return findings
    # a strict majority's bytes win, else the lowest-index fresh copy's
    value, votes = Counter(datas[s] for s in fresh).most_common(1)[0]
    majority = [s for s in fresh if datas[s] == value]
    winner = majority[0] if votes * 2 > len(fresh) else fresh[0]
    good = datas[winner]
    losers: set[tuple[int, int, int]] = set()
    for loc, name in copies:
        s = loc.server
        if s == winner:
            continue
        if s in stale:
            kind, detail = "stale-copy", f"copy in {name!r} is listed stale"
        elif s in bad:
            kind, detail = bad[s]
        elif datas[s] != good:
            kind, detail = (
                "replica-divergence",
                f"copy in {name!r} differs from the one on server {winner}",
            )
        else:
            continue
        unreadable = bad.get(s, ("",))[0] == "unreadable-copy"
        ok = repair and repair_copy(
            fs, file_id, bmap, rmap, brick_id, s, good, create=unreadable
        )
        if repair and not ok and not unreadable:
            losers.add((file_id, brick_id, s))
        findings.append(ScrubFinding(kind, path, brick_id, s, detail, ok))
    fs._list_stale(losers - fs.stale_copies)
    return findings


def brick_copies(
    file_id: int, bmap: BrickMap, rmap: ReplicaMap | None, brick_id: int
) -> list[tuple[BrickLocation, str]]:
    """Every copy of a brick as ``(location, subfile name)``, primary
    first."""
    name, rname = subfile_names(file_id)
    copies = [(bmap.location(brick_id), name)]
    if rmap is not None:
        copies += [(loc, rname) for loc in rmap.locations(brick_id)]
    return copies


def read_fresh_copy(
    fs: "DPFS",
    file_id: int,
    bmap: BrickMap,
    rmap: ReplicaMap | None,
    brick_id: int,
    *,
    exclude: int,
    offset: int = 0,
    length: int | None = None,
) -> bytes:
    """``length`` bytes at ``offset`` of a brick (default: all) from the
    first copy off server ``exclude``, not listed stale, that verifies;
    else raises the last copy's error."""
    error: Exception = ChecksumError(
        f"file id {file_id} brick {brick_id}: no fresh copy to read"
    )
    for loc, name in brick_copies(file_id, bmap, rmap, brick_id):
        if loc.server == exclude or (file_id, brick_id, loc.server) in fs.stale_copies:
            continue
        size = loc.size - offset if length is None else length
        try:
            return fs.backend.read_extents(
                loc.server, name, [(loc.local_offset + offset, size)]
            )
        except ChecksumError as exc:
            fs._note_checksum_error()
            error = exc
        except (DPFSError, OSError) as exc:
            error = exc
    raise error


def repair_copy(
    fs: "DPFS",
    file_id: int,
    bmap: BrickMap,
    rmap: ReplicaMap | None,
    brick_id: int,
    server: int,
    good: bytes | None = None,
    *,
    create: bool = False,
) -> bool:
    """Rewrite ``server``'s copy of a brick from fresh copies (``good``:
    the brick's bytes, when the caller has them); True on success.

    The rewrite covers whole chunks: bricks of the subfile that share a
    chunk with it are rewritten too, each from a fresh copy, so the
    server re-stamps fresh bytes only.  Success strikes the rewritten
    copies off the stale list, counts a repair and drops the file's
    cached bricks; failure (the server may be down) changes nothing.
    """
    replica = bmap.server_of(brick_id) != server
    name = subfile_names(file_id)[replica]
    if replica:
        assert rmap is not None
        layout = [loc for b in rmap.bricklists[server] for loc in rmap.locations(b)]
    else:
        layout = [bmap.location(b) for b in bmap.bricklist(server)]
    layout = [loc for loc in layout if loc.server == server]
    target = next(loc for loc in layout if loc.brick_id == brick_id)
    lo = target.local_offset // CHUNK_SIZE * CHUNK_SIZE
    hi = -(-(target.local_offset + target.size) // CHUNK_SIZE) * CHUNK_SIZE
    near = [
        loc for loc in layout
        if loc.local_offset < hi and lo < loc.local_offset + loc.size
    ]
    try:
        data = b"".join(
            good if loc.brick_id == brick_id and good is not None
            else read_fresh_copy(fs, file_id, bmap, rmap, loc.brick_id, exclude=server)
            for loc in near
        )
        if create and not fs.backend.subfile_exists(server, name):
            fs.backend.create_subfile(server, name)
        fs.backend.write_extents(
            server, name, [(loc.local_offset, loc.size) for loc in near], data
        )
    except (DPFSError, OSError):
        return False
    rewritten = {(file_id, loc.brick_id, server) for loc in near}
    fs._list_stale(rewritten & fs.stale_copies, stale=False)
    fs._note_repair()
    if fs.cache is not None:
        fs.cache.invalidate_file(file_id)
    return True

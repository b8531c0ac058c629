"""Exception hierarchy shared by every DPFS subsystem.

All errors raised by the library derive from :class:`DPFSError` so callers
can catch one base class.  Substrate packages (the embedded database, the
simulator, the network transport) define their own subtrees here as well,
keeping a single import point for error handling.
"""

from __future__ import annotations

__all__ = [
    "DPFSError",
    "ConfigError",
    # file system
    "FileSystemError",
    "FileNotFound",
    "FileExists",
    "NotADirectory",
    "IsADirectory",
    "DirectoryNotEmpty",
    "InvalidPath",
    "PermissionDenied",
    "BadFileHandle",
    "InvalidHint",
    "StripingError",
    "PlacementError",
    "ChecksumError",
    "ReplicationError",
    "MultiServerError",
    # parallel dispatch
    "DispatchError",
    "DispatchTimeout",
    "RetryExhausted",
    # metadata database
    "MetaDBError",
    "ConstraintError",
    "TransactionError",
    # simulation
    "SimulationError",
    "SimStopped",
    # network transport
    "TransportError",
    "ConnectionLost",
    "ProtocolError",
    "ServerError",
    "ServerBusyError",
    # datatypes / HPF
    "DatatypeError",
    "DistributionError",
]


class DPFSError(Exception):
    """Base class for every error raised by this library."""


class ConfigError(DPFSError):
    """Invalid configuration value (cost model, topology, backend...)."""


# ---------------------------------------------------------------------------
# File system layer
# ---------------------------------------------------------------------------

class FileSystemError(DPFSError):
    """Base class for DPFS file-system level errors."""


class FileNotFound(FileSystemError):
    """The named DPFS file or directory does not exist."""


class FileExists(FileSystemError):
    """Attempt to create a file or directory that already exists."""


class NotADirectory(FileSystemError):
    """A path component used as a directory is a regular file."""


class IsADirectory(FileSystemError):
    """A file operation was attempted on a directory."""


class DirectoryNotEmpty(FileSystemError):
    """``rmdir`` on a directory that still has children."""


class InvalidPath(FileSystemError):
    """Malformed DPFS path."""


class PermissionDenied(FileSystemError):
    """Operation not allowed by the file's permission bits."""


class BadFileHandle(FileSystemError):
    """Operation on a closed or invalid file handle."""


class InvalidHint(FileSystemError):
    """The hint structure passed to DPFS-Open is inconsistent."""


class StripingError(DPFSError):
    """Request region is inconsistent with the file's striping method."""


class PlacementError(DPFSError):
    """Invalid arguments to a brick placement algorithm."""


class ChecksumError(FileSystemError):
    """A brick's payload failed end-to-end checksum verification and no
    replica held a good copy to fail over to."""


class ReplicationError(FileSystemError):
    """Replica configuration or layout violation (replicas > servers,
    two copies of a brick on one server, ...)."""


class MultiServerError(FileSystemError):
    """A fan-out subfile operation failed on one or more servers.

    The operation was still *applied* to every reachable server (no
    abort at the first failure) and its intent stays journalled, so a
    later recovery sweep can finish the stragglers.  ``errors`` holds
    ``(server, exception)`` pairs for every server that failed.
    """

    def __init__(self, op: str, errors: list[tuple[int, Exception]]) -> None:
        self.op = op
        self.errors = list(errors)
        detail = "; ".join(f"server {s}: {e}" for s, e in self.errors)
        super().__init__(
            f"{op}: {len(self.errors)} server(s) failed ({detail})"
        )


# ---------------------------------------------------------------------------
# Parallel dispatch layer
# ---------------------------------------------------------------------------
#
# Any exception whose ``transient`` attribute is truthy is considered
# retryable by the dispatcher (repro.core.dispatch); everything else
# propagates unchanged on first occurrence.

class DispatchError(FileSystemError):
    """Failure inside the parallel per-server dispatch layer."""


class DispatchTimeout(DispatchError):
    """A per-server request missed the dispatcher's deadline."""


class RetryExhausted(DispatchError):
    """A transient error kept firing past the dispatcher's retry budget."""


# ---------------------------------------------------------------------------
# Embedded metadata database
# ---------------------------------------------------------------------------

class MetaDBError(DPFSError):
    """Base class for metadata-database errors (bad SQL, unknown table,
    unreadable database file...)."""


class ConstraintError(MetaDBError):
    """Primary key / NOT NULL violation."""


class TransactionError(MetaDBError):
    """Illegal transaction state transition (e.g. COMMIT with no BEGIN)."""


# ---------------------------------------------------------------------------
# Discrete-event simulation kernel
# ---------------------------------------------------------------------------

class SimulationError(DPFSError):
    """Base class for simulator misuse."""


class SimStopped(SimulationError):
    """Raised inside a process when the simulation is force-stopped."""


# ---------------------------------------------------------------------------
# TCP transport
# ---------------------------------------------------------------------------

class TransportError(DPFSError):
    """Base class for the real-socket transport."""


class ConnectionLost(TransportError):
    """The socket to a server broke mid-exchange, or the one dial for a
    replacement failed.  Marked transient: the broken socket is
    discarded before this is raised (a desynced socket never serves
    another request) and every operation the dispatch layer replays —
    extent reads and writes — is idempotent, so the dispatcher's retry
    budget may re-issue the request on a fresh connection."""

    transient = True


class ProtocolError(TransportError):
    """Malformed frame or unexpected message type on the wire."""


class ServerError(TransportError):
    """The remote DPFS server reported a failure servicing a request."""


class ServerBusyError(ServerError):
    """§4.2 admission rejection: the server is at ``max_concurrent`` and
    told the client to "try again later".  Marked transient so the
    dispatch layer retries it with backoff."""

    transient = True


# ---------------------------------------------------------------------------
# Derived datatypes / HPF decomposition
# ---------------------------------------------------------------------------

class DatatypeError(DPFSError):
    """Invalid derived-datatype construction or use."""


class DistributionError(DPFSError):
    """Invalid HPF distribution specification."""

"""DPFS core: striping methods, placement, request combination, the file
system facade and its metadata layer."""

from ..checksum import CRC_ALGORITHM, checksum, checksum_fn
from ..crashpoints import SimulatedCrash, armed, crashpoint
from ..crashpoints import arm as arm_crashpoint
from ..crashpoints import disarm as disarm_crashpoint
from ..crashpoints import registered as registered_crashpoints
from .brick import (
    BrickLocation,
    BrickMap,
    BrickSlice,
    ReplicaMap,
    file_id_of,
    subfile_names,
)
from .cache import BrickCache, CacheStats
from .combine import ServerRequest, SlicePlacement, plan_requests
from .dispatch import (
    Dispatcher,
    DispatcherStats,
    DispatchPolicy,
    DispatchResult,
    is_transient,
)
from .filesystem import DPFS
from .fsck import Finding, FsckReport, fsck
from .handle import FileHandle, IOStats
from .intent import Intent, IntentLog, RecoveryAction, RecoveryReport, recover
from .hints import DEFAULT_BRICK_SIZE, Hint
from .metadata import FileRecord, MetadataManager, normalize_path, split_path
from .placement import (
    Greedy,
    PlacementPolicy,
    RoundRobin,
    build_brick_map,
    build_replicated_maps,
    make_policy,
)
from .scrub import ScrubFinding, ScrubReport, scrub, verify_file_copies
from .striping import (
    ArrayStriping,
    FileLevel,
    LinearStriping,
    MultidimStriping,
    StripingMethod,
)
from .transfer import copy_within, export_file, import_file

__all__ = [
    "DPFS",
    "fsck",
    "FsckReport",
    "Finding",
    "scrub",
    "ScrubFinding",
    "ScrubReport",
    "verify_file_copies",
    "Intent",
    "IntentLog",
    "RecoveryAction",
    "RecoveryReport",
    "recover",
    "SimulatedCrash",
    "crashpoint",
    "armed",
    "arm_crashpoint",
    "disarm_crashpoint",
    "registered_crashpoints",
    "CRC_ALGORITHM",
    "checksum",
    "checksum_fn",
    "BrickCache",
    "CacheStats",
    "FileHandle",
    "IOStats",
    "Hint",
    "DEFAULT_BRICK_SIZE",
    "FileLevel",
    "StripingMethod",
    "LinearStriping",
    "MultidimStriping",
    "ArrayStriping",
    "BrickSlice",
    "BrickLocation",
    "BrickMap",
    "ReplicaMap",
    "subfile_names",
    "file_id_of",
    "PlacementPolicy",
    "RoundRobin",
    "Greedy",
    "make_policy",
    "build_brick_map",
    "build_replicated_maps",
    "plan_requests",
    "ServerRequest",
    "SlicePlacement",
    "Dispatcher",
    "DispatcherStats",
    "DispatchPolicy",
    "DispatchResult",
    "is_transient",
    "MetadataManager",
    "FileRecord",
    "normalize_path",
    "split_path",
    "import_file",
    "export_file",
    "copy_within",
]

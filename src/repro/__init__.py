"""repro — a full reproduction of DPFS (Shen & Choudhary, ICPP 2001).

DPFS is a Distributed Parallel File System that aggregates unused,
heterogeneous network storage into a striped parallel file system.  This
package reimplements the entire system described in the paper:

- three file levels (linear / multidimensional / array striping, §3),
- round-robin and greedy brick placement (§4.1),
- request combination with staggered scheduling (§4.2),
- database-backed metadata on the standard library's sqlite3 (§5),
- the DPFS-Open/Read/Write/Close API with MPI-IO-style derived
  datatypes and a hint structure (§6),
- a UNIX-like shell user interface (§7),
- real (TCP) and simulated (discrete-event) transports (§2), and
- the complete performance evaluation (§8, Figures 11-14).

Quickstart::

    import numpy as np
    import repro

    fs = repro.DPFS.memory(n_servers=4)
    hint = repro.Hint.multidim((1024, 1024), 8, (128, 128))
    with fs.open("/data/field", "w", hint=hint) as f:
        f.write_array((0, 0), np.zeros((1024, 1024)))
    with fs.open("/data/field", "r") as f:
        column = f.read_array((0, 0), (1024, 16), np.float64)
"""

from .util import lazy_exports

__version__ = "1.0.0"

# a storage server imports ``repro`` too, so the client stack behind
# these names loads only when one of them is first used
__all__, __getattr__ = lazy_exports(
    __name__,
    {
        ".core": (
            "DPFS",
            "FileHandle",
            "Hint",
            "FileLevel",
            "LinearStriping",
            "MultidimStriping",
            "ArrayStriping",
            "RoundRobin",
            "Greedy",
            "BrickMap",
            "BrickSlice",
            "plan_requests",
            "import_file",
            "export_file",
            "copy_within",
        ),
        ".errors": ("DPFSError",),
    },
)
__all__.append("__version__")

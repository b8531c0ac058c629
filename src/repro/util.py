"""Small shared helpers: byte formatting, extent math, validation.

Extents — ``(offset, length)`` pairs in bytes — are the lingua franca
between the datatype layer, the striping layer and the storage backends,
so the coalescing and arithmetic helpers live here.
"""

from __future__ import annotations

import importlib
import math
import sys
from collections.abc import Callable, Iterable, Mapping, Sequence

__all__ = [
    "Extent",
    "coalesce_extents",
    "total_extent_bytes",
    "clip_extent",
    "split_extent",
    "ceil_div",
    "format_bytes",
    "parse_size",
    "require",
    "lazy_exports",
    "KiB",
    "MiB",
    "GiB",
]

KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB

#: An extent is a half-open byte range ``[offset, offset + length)``.
Extent = tuple[int, int]


def require(condition: bool, exc: type[Exception], message: str) -> None:
    """Raise ``exc(message)`` unless ``condition`` holds."""
    if not condition:
        raise exc(message)


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[list[str], Callable[[str], object]]:
    """``(__all__, __getattr__)`` for a package that re-exports names
    from its submodules (``{".submodule": (names...)}``) but imports
    each submodule only when one of its names is first used (PEP 562),
    so a process that needs one submodule does not load its siblings.
    """
    where = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        if name not in where:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(where[name], package), name)
        setattr(sys.modules[package], name, value)
        return value

    return list(where), __getattr__


def ceil_div(a: int, b: int) -> int:
    """Integer ceiling division for non-negative ``a`` and positive ``b``."""
    if b <= 0:
        raise ValueError(f"ceil_div divisor must be positive, got {b}")
    return -(-a // b)


def coalesce_extents(extents: Iterable[Extent]) -> list[Extent]:
    """Sort extents and merge adjacent/overlapping ones.

    This is the optimisation a server applies before touching the disk:
    a combined request whose bricks happen to be contiguous in the
    subfile becomes one sequential I/O.
    """
    ordered = sorted((off, ln) for off, ln in extents if ln > 0)
    merged: list[Extent] = []
    for off, ln in ordered:
        if merged and off <= merged[-1][0] + merged[-1][1]:
            prev_off, prev_len = merged[-1]
            merged[-1] = (prev_off, max(prev_off + prev_len, off + ln) - prev_off)
        else:
            merged.append((off, ln))
    return merged


def total_extent_bytes(extents: Iterable[Extent]) -> int:
    """Total byte count of a list of (possibly uncoalesced) extents."""
    return sum(ln for _off, ln in extents)


def clip_extent(extent: Extent, window: Extent) -> Extent | None:
    """Intersect ``extent`` with ``window``; ``None`` if disjoint."""
    off, ln = extent
    w_off, w_len = window
    lo = max(off, w_off)
    hi = min(off + ln, w_off + w_len)
    if hi <= lo:
        return None
    return (lo, hi - lo)


def split_extent(extent: Extent, chunk: int) -> list[Extent]:
    """Split an extent into pieces of at most ``chunk`` bytes."""
    require(chunk > 0, ValueError, "chunk must be positive")
    off, ln = extent
    out: list[Extent] = []
    while ln > 0:
        take = min(chunk, ln)
        out.append((off, take))
        off += take
        ln -= take
    return out


_UNITS = ["B", "KiB", "MiB", "GiB", "TiB", "PiB"]


def format_bytes(n: int | float) -> str:
    """Human-readable byte count (``format_bytes(2097152) == '2.0 MiB'``)."""
    if n < 0:
        return "-" + format_bytes(-n)
    if n < 1024:
        return f"{int(n)} B"
    exp = min(int(math.log(n, 1024)), len(_UNITS) - 1)
    return f"{n / 1024 ** exp:.1f} {_UNITS[exp]}"


_SUFFIXES = {
    "": 1,
    "b": 1,
    "k": KiB,
    "kb": KiB,
    "kib": KiB,
    "m": MiB,
    "mb": MiB,
    "mib": MiB,
    "g": GiB,
    "gb": GiB,
    "gib": GiB,
}


def parse_size(text: str) -> int:
    """Parse ``'64K'``, ``'4MiB'``, ``'123'`` ... into a byte count."""
    s = text.strip().lower()
    idx = len(s)
    while idx > 0 and not s[idx - 1].isdigit() and s[idx - 1] != ".":
        idx -= 1
    num, suffix = s[:idx], s[idx:].strip()
    if not num or suffix not in _SUFFIXES:
        raise ValueError(f"unparsable size: {text!r}")
    value = float(num) * _SUFFIXES[suffix]
    if value != int(value):
        raise ValueError(f"size {text!r} is not a whole number of bytes")
    return int(value)


def row_major_index(coords: Sequence[int], shape: Sequence[int]) -> int:
    """Flatten N-d ``coords`` into a row-major linear index."""
    if len(coords) != len(shape):
        raise ValueError("coords/shape rank mismatch")
    idx = 0
    for c, s in zip(coords, shape):
        if not 0 <= c < s:
            raise ValueError(f"coordinate {coords} out of bounds for shape {shape}")
        idx = idx * s + c
    return idx


def row_major_coords(index: int, shape: Sequence[int]) -> tuple[int, ...]:
    """Inverse of :func:`row_major_index`."""
    size = math.prod(shape)
    if not 0 <= index < size:
        raise ValueError(f"index {index} out of bounds for shape {shape}")
    coords = []
    for s in reversed(shape):
        coords.append(index % s)
        index //= s
    return tuple(reversed(coords))

"""A mount pins glibc's malloc thresholds, so large buffers stay mapped."""

import ctypes

import pytest

from repro.core import DPFS
from repro.util import MiB


class _MallInfo2(ctypes.Structure):
    _fields_ = [
        (name, ctypes.c_size_t)
        for name in (
            "arena ordblks smblks hblks hblkhd usmblks fsmblks uordblks"
            " fordblks keepcost"
        ).split()
    ]


def _mapped_bytes() -> int:
    libc = ctypes.CDLL(None)
    libc.mallinfo2.restype = _MallInfo2
    return libc.mallinfo2().hblkhd


def test_a_freed_large_buffer_leaves_the_next_one_mapped():
    if not hasattr(ctypes.CDLL(None), "mallinfo2"):
        pytest.skip("needs glibc's mallinfo2")
    DPFS.memory(2).close()
    size = 4 * MiB
    # left dynamic, glibc would raise its mmap threshold past ``size``
    # here and serve the next buffer from the heap
    bytearray(size)
    before = _mapped_bytes()
    buf = bytearray(size)
    assert _mapped_bytes() - before >= size
    del buf

"""Brick cache tests: unit behaviour + integration with the file system."""

import numpy as np
import pytest

from repro.core import DPFS, Hint
from repro.core.cache import BrickCache
from repro.errors import ConfigError


# ---------------------------------------------------------------------------
# unit level
# ---------------------------------------------------------------------------

def test_capacity_validated():
    with pytest.raises(ConfigError):
        BrickCache(0)


def test_get_put_hit_miss():
    cache = BrickCache(1024)
    assert cache.get("/f", 0) is None
    cache.put("/f", 0, b"abcd")
    assert cache.get("/f", 0) == b"abcd"
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1


def test_lru_eviction_order():
    cache = BrickCache(100)
    for i in range(4):
        cache.put("/f", i, bytes(25))
    cache.get("/f", 0)               # promote brick 0
    cache.put("/f", 9, bytes(25))    # evicts brick 1 (least recent)
    assert cache.peek("/f", 0)
    assert not cache.peek("/f", 1)
    assert cache.used_bytes <= 100
    assert cache.stats.evictions == 1


def test_oversized_brick_never_cached():
    cache = BrickCache(100)
    cache.put("/f", 0, bytes(26))    # > capacity // 4
    assert not cache.peek("/f", 0)
    assert cache.cacheable(25)
    assert not cache.cacheable(26)


def test_patch_updates_in_place():
    cache = BrickCache(1024)
    cache.put("/f", 0, b"aaaaaaaa")
    cache.patch("/f", 0, 2, b"XY")
    assert cache.get("/f", 0) == b"aaXYaaaa"
    assert cache.stats.patched_writes == 1
    # patching an absent brick is a no-op
    cache.patch("/f", 5, 0, b"zz")


def test_patch_beyond_image_invalidates():
    cache = BrickCache(1024)
    cache.put("/f", 0, b"abcd")
    cache.patch("/f", 0, 3, b"long-overrun")
    assert not cache.peek("/f", 0)


def test_invalidate_file_scoped():
    cache = BrickCache(1024)
    cache.put("/a", 0, b"x" * 8)
    cache.put("/a", 1, b"x" * 8)
    cache.put("/b", 0, b"y" * 8)
    cache.invalidate_file("/a")
    assert not cache.peek("/a", 0)
    assert cache.peek("/b", 0)
    assert cache.used_bytes == 8


def test_clear():
    cache = BrickCache(1024)
    cache.put("/a", 0, b"12345678")
    cache.clear()
    assert len(cache) == 0
    assert cache.used_bytes == 0


def test_hit_rate():
    cache = BrickCache(1024)
    cache.put("/f", 0, b"data")
    cache.get("/f", 0)
    cache.get("/f", 1)
    assert cache.stats.hit_rate == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# integrated with DPFS
# ---------------------------------------------------------------------------

@pytest.fixture
def cached_fs():
    return DPFS.memory(4, cache_bytes=1 << 20)


def test_second_read_served_from_cache(cached_fs):
    fs = cached_fs
    hint = Hint.multidim((64, 64), 8, (16, 16))
    data = np.arange(64 * 64, dtype=np.float64).reshape(64, 64)
    with fs.open("/f", "w", hint=hint) as handle:
        handle.write_array((0, 0), data)

    with fs.open("/f", "r") as handle:
        first = handle.read_array((0, 0), (64, 16), np.float64)
        cold_requests = handle.stats.requests
    with fs.open("/f", "r") as handle:
        second = handle.read_array((0, 0), (64, 16), np.float64)
        warm_requests = handle.stats.requests
    assert np.array_equal(first, second)
    assert cold_requests > 0
    assert warm_requests == 0          # fully cached
    assert fs.cache is not None and fs.cache.stats.hits > 0


def test_partial_hit_fetches_only_missing_bricks(cached_fs):
    fs = cached_fs
    hint = Hint.multidim((64, 64), 8, (16, 16))
    data = np.random.default_rng(0).random((64, 64))
    with fs.open("/f", "w", hint=hint) as handle:
        handle.write_array((0, 0), data)
    with fs.open("/f", "r") as handle:
        handle.read_array((0, 0), (16, 64), np.float64)   # caches row 0 bricks
    with fs.open("/f", "r") as handle:
        got = handle.read_array((0, 0), (32, 64), np.float64)
        # only the second brick-row needs fetching: 4 bricks
        assert handle.stats.bricks_touched == 4
    assert np.array_equal(got, data[:32])


def test_write_through_keeps_cache_coherent(cached_fs):
    fs = cached_fs
    hint = Hint.multidim((32, 32), 8, (8, 8))
    data = np.zeros((32, 32))
    with fs.open("/f", "w", hint=hint) as handle:
        handle.write_array((0, 0), data)
    with fs.open("/f", "r") as handle:
        handle.read_array((0, 0), (32, 32), np.float64)   # fill cache
    block = np.full((8, 8), 3.5)
    with fs.open("/f", "r+") as handle:
        handle.write_array((8, 8), block)
    with fs.open("/f", "r") as handle:
        got = handle.read_array((0, 0), (32, 32), np.float64)
        assert handle.stats.requests == 0    # all from (patched) cache
    assert np.array_equal(got[8:16, 8:16], block)
    assert got[0, 0] == 0


def test_remove_invalidates(cached_fs):
    fs = cached_fs
    fs.write_file("/f", b"x" * 1000)
    fs.read_file("/f")
    assert fs.cache is not None and len(fs.cache) > 0
    file_id = fs.meta.load_file("/f")[0].file_id
    fs.remove("/f")
    assert all(key[0] != file_id for key in fs.cache._entries)
    # recreate with different contents: no stale reads
    fs.write_file("/f", b"y" * 1000)
    assert fs.read_file("/f") == b"y" * 1000


def test_rename_invalidates(cached_fs):
    fs = cached_fs
    fs.write_file("/a", b"x" * 100)
    fs.read_file("/a")
    fs.rename("/a", "/b")
    assert fs.read_file("/b") == b"x" * 100


def test_huge_bricks_bypass_cache():
    fs = DPFS.memory(2, cache_bytes=1024)  # bricks > 256 B bypass
    hint = Hint.linear(file_size=4096, brick_size=1024)
    fs.write_file("/f", b"z" * 4096, hint=hint)
    with fs.open("/f", "r") as handle:
        handle.read(0, 4096)
        assert handle.stats.bytes_read == 4096  # exact, not whole-brick-inflated
    assert len(fs.cache) == 0


def test_cache_disabled_by_default(fs):
    assert fs.cache is None
    fs.write_file("/f", b"abc")
    assert fs.read_file("/f") == b"abc"


def test_readahead_prefetches_sequential_bricks():
    fs = DPFS.memory(4, cache_bytes=1 << 20, readahead_bricks=4)
    hint = Hint.linear(file_size=64 * 256, brick_size=256)
    payload = bytes(range(256)) * 64
    fs.write_file("/seq", payload, hint=hint)
    with fs.open("/seq", "r") as handle:
        # sequential walk: first read primes, later reads hit prefetched
        assert handle.read(0, 256) == payload[:256]
        assert handle.stats.prefetched_bricks == 4
        first_requests = handle.stats.requests
        got = handle.read(256, 1024)          # bricks 1-4: all prefetched
        assert got == payload[256:1280]
        assert handle.stats.requests == first_requests  # zero new fetches


def test_readahead_not_triggered_by_random_access():
    fs = DPFS.memory(4, cache_bytes=1 << 20, readahead_bricks=4)
    hint = Hint.linear(file_size=64 * 256, brick_size=256)
    fs.write_file("/rand", bytes(64 * 256), hint=hint)
    with fs.open("/rand", "r") as handle:
        handle.read(0, 100)                   # bricks [0] → prefetch 1-4
        prefetched_before = handle.stats.prefetched_bricks
        handle.read(32 * 256, 100)            # jump far ahead: not sequential
        assert handle.stats.prefetched_bricks == prefetched_before


def test_readahead_requires_cache():
    fs = DPFS.memory(2, readahead_bricks=8)   # no cache_bytes
    assert fs.readahead_bricks == 0
    fs.write_file("/f", b"abc")
    assert fs.read_file("/f") == b"abc"


def test_readahead_stops_at_file_end():
    fs = DPFS.memory(2, cache_bytes=1 << 20, readahead_bricks=16)
    hint = Hint.linear(file_size=3 * 128, brick_size=128)
    fs.write_file("/tiny", bytes(3 * 128), hint=hint)
    with fs.open("/tiny", "r") as handle:
        handle.read(0, 10)
        # only bricks 1 and 2 exist beyond the first
        assert handle.stats.prefetched_bricks == 2

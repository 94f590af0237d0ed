"""Bump-pointer and lock-buddy baselines."""

import pytest

from repro.baselines import BumpAllocator, LockBuddy, LockBuddyError
from repro.sim import DeviceMemory, Scheduler, ops
from repro.sim.hostrun import drive, host_ctx

NULL = DeviceMemory.NULL
PAGE = 4096


class TestBump:
    def test_sequential_addresses(self):
        mem = DeviceMemory(1 << 16)
        b = BumpAllocator(mem, 0, 1 << 12)
        p1 = drive(mem, b.malloc(host_ctx(), 10))
        p2 = drive(mem, b.malloc(host_ctx(), 10))
        assert p2 == p1 + 16  # aligned stride

    def test_exhaustion(self):
        mem = DeviceMemory(1 << 16)
        b = BumpAllocator(mem, 0, 64)
        assert drive(mem, b.malloc(host_ctx(), 48)) != NULL
        assert drive(mem, b.malloc(host_ctx(), 48)) == NULL

    def test_free_is_noop_fragmentation(self):
        """The design's defining weakness: frees recover nothing."""
        mem = DeviceMemory(1 << 16)
        b = BumpAllocator(mem, 0, 64)
        p = drive(mem, b.malloc(host_ctx(), 48))
        drive(mem, b.free(host_ctx(), p))
        assert drive(mem, b.malloc(host_ctx(), 48)) == NULL

    def test_concurrent_distinct(self):
        mem = DeviceMemory(1 << 20)
        b = BumpAllocator(mem, 0, 1 << 16)
        got = []

        def kernel(ctx):
            p = yield from b.malloc(ctx, 64)
            got.append(p)

        s = Scheduler(mem, seed=2)
        s.launch(kernel, 4, 64)
        s.run()
        ok = [p for p in got if p != NULL]
        assert len(ok) == 256 and len(set(ok)) == 256
        assert b.used_bytes == 256 * 64

    def test_rejects_bad_align(self):
        mem = DeviceMemory(1 << 12)
        with pytest.raises(ValueError):
            BumpAllocator(mem, 0, 1024, align=3)


class TestLockBuddy:
    def make(self, max_order=6):
        mem = DeviceMemory((PAGE << max_order) + (8 << 20))
        return mem, LockBuddy(mem, 0, PAGE, max_order)

    def test_alloc_free_full_recovery(self):
        mem, b = self.make()
        addrs = [drive(mem, b.alloc(host_ctx(), 0)) for _ in range(8)]
        for a in addrs:
            drive(mem, b.free(host_ctx(), a))
        assert b.host_free_bytes() == b.pool_size

    def test_alignment_matches_order(self):
        mem, b = self.make()
        for order in range(4):
            a = drive(mem, b.alloc(host_ctx(), order))
            assert a % (PAGE << order) == 0

    def test_coalesces_back_to_root(self):
        mem, b = self.make(max_order=4)
        addrs = [drive(mem, b.alloc(host_ctx(), 0)) for _ in range(16)]
        for a in addrs:
            drive(mem, b.free(host_ctx(), a))
        assert len(b.freelists[4].host_items()) == 1

    def test_exhaustion(self):
        mem, b = self.make(max_order=3)
        got = [drive(mem, b.alloc(host_ctx(), 0)) for _ in range(9)]
        assert got[:8].count(NULL) == 0 and got[8] == NULL

    def test_invalid_free(self):
        mem, b = self.make()
        with pytest.raises(LockBuddyError):
            drive(mem, b.free(host_ctx(), 0))  # never allocated
        with pytest.raises(LockBuddyError):
            drive(mem, b.free(host_ctx(), 123))  # not a page

    def test_alloc_bytes(self):
        mem, b = self.make()
        a = drive(mem, b.alloc_bytes(host_ctx(), PAGE * 3))
        drive(mem, b.free(host_ctx(), a))
        assert b.host_free_bytes() == b.pool_size

    def test_concurrent_no_oversell(self):
        mem, b = self.make(max_order=5)  # 32 pages
        got = []

        def kernel(ctx):
            a = yield from b.alloc(ctx, 0)
            got.append(a)

        s = Scheduler(mem, seed=3)
        s.launch(kernel, 1, 48)
        s.run(max_events=30_000_000)
        ok = [a for a in got if a != NULL]
        assert len(ok) == 32 and len(set(ok)) == 32

    def test_concurrent_churn(self):
        mem, b = self.make(max_order=7)

        def kernel(ctx):
            for _ in range(3):
                a = yield from b.alloc(ctx, ctx.rng.randrange(3))
                if a != NULL:
                    yield ops.sleep(ctx.rng.randrange(100))
                    yield from b.free(ctx, a)

        s = Scheduler(mem, seed=4)
        s.launch(kernel, 2, 64)
        s.run(max_events=40_000_000)
        assert b.host_free_bytes() == b.pool_size

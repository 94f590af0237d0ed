"""ScatterAlloc- and XMalloc-style baselines (paper §2.2 comparators)."""

import pytest

from repro.baselines import ScatterAlloc, ScatterAllocError, XMalloc, XMallocError
from repro.sim import DeviceMemory, Scheduler, ops
from repro.sim.hostrun import drive, host_ctx

NULL = DeviceMemory.NULL


class TestScatterAllocSequential:
    def make(self, pool=1 << 20):
        mem = DeviceMemory(pool * 4)
        return mem, ScatterAlloc(mem, 0, pool)

    def test_round_trip(self):
        mem, sa = self.make()
        p = drive(mem, sa.malloc(host_ctx(), 100))  # -> 128 class
        assert p != NULL
        drive(mem, sa.free(host_ctx(), p))
        assert sa.host_used_bytes() == 0

    def test_distinct_blocks(self):
        mem, sa = self.make()
        got = [drive(mem, sa.malloc(host_ctx(), 64)) for _ in range(100)]
        assert NULL not in got and len(set(got)) == 100

    def test_page_binding_is_sticky(self):
        mem, sa = self.make()
        p = drive(mem, sa.malloc(host_ctx(), 64))
        assert sa.host_bound_pages() == 1
        drive(mem, sa.free(host_ctx(), p))
        # pages stay bound to their class (cross-class fragmentation is
        # this design's documented cost)
        assert sa.host_bound_pages() == 1
        q = drive(mem, sa.malloc(host_ctx(), 64))
        assert q != NULL  # class reuses its page

    def test_oversized_rejected(self):
        mem, sa = self.make()
        assert drive(mem, sa.malloc(host_ctx(), 8192)) == NULL
        assert drive(mem, sa.malloc(host_ctx(), 0)) == NULL

    def test_double_free_detected(self):
        mem, sa = self.make()
        anchor = drive(mem, sa.malloc(host_ctx(), 64))  # keeps page bound
        p = drive(mem, sa.malloc(host_ctx(), 64))
        drive(mem, sa.free(host_ctx(), p))
        with pytest.raises(ScatterAllocError):
            drive(mem, sa.free(host_ctx(), p))

    def test_wild_free_detected(self):
        mem, sa = self.make()
        with pytest.raises(ScatterAllocError):
            drive(mem, sa.free(host_ctx(), 12345))

    def test_rejects_misaligned_pool(self):
        mem = DeviceMemory(1 << 16)
        with pytest.raises(ValueError):
            ScatterAlloc(mem, 100, 1 << 12)


class TestScatterAllocConcurrent:
    def test_churn(self):
        mem = DeviceMemory(8 << 20)
        sa = ScatterAlloc(mem, 0, 1 << 20)
        fails = []

        def kernel(ctx):
            for _ in range(3):
                p = yield from sa.malloc(ctx, 64)
                if p == NULL:
                    fails.append(ctx.tid)
                    continue
                yield ops.sleep(ctx.rng.randrange(200))
                yield from sa.free(ctx, p)

        s = Scheduler(mem, seed=5)
        s.launch(kernel, 4, 64)
        s.run(max_events=40_000_000)
        assert not fails
        assert sa.host_used_bytes() == 0

    def test_concurrent_distinct(self):
        mem = DeviceMemory(8 << 20)
        sa = ScatterAlloc(mem, 0, 1 << 20)
        got = []

        def kernel(ctx):
            p = yield from sa.malloc(ctx, 32)
            got.append(p)

        s = Scheduler(mem, seed=6)
        s.launch(kernel, 4, 64)
        s.run(max_events=40_000_000)
        ok = [p for p in got if p != NULL]
        assert len(set(ok)) == len(ok)
        assert len(ok) >= 250  # scatter probing may rarely miss


class TestXMallocSequential:
    def make(self, pool=1 << 20):
        mem = DeviceMemory(pool * 4)
        return mem, XMalloc(mem, 0, pool)

    def test_round_trip_and_reuse(self):
        mem, xm = self.make()
        p = drive(mem, xm.malloc(host_ctx(), 60))
        drive(mem, xm.free(host_ctx(), p))
        q = drive(mem, xm.malloc(host_ctx(), 60))
        assert q == p  # LIFO stack reuse

    def test_distinct_blocks(self):
        mem, xm = self.make()
        got = [drive(mem, xm.malloc(host_ctx(), 200)) for _ in range(50)]
        assert NULL not in got and len(set(got)) == 50

    def test_size_limits(self):
        mem, xm = self.make()
        assert drive(mem, xm.malloc(host_ctx(), 0)) == NULL
        assert drive(mem, xm.malloc(host_ctx(), 8192)) == NULL

    def test_exhaustion(self):
        mem = DeviceMemory(1 << 20)
        xm = XMalloc(mem, 0, 1 << 16, superblock=1 << 14)
        got = []
        while True:
            p = drive(mem, xm.malloc(host_ctx(), 4096))
            if p == NULL:
                break
            got.append(p)
        assert got  # some succeeded, then clean OOM

    def test_wild_free_detected(self):
        mem, xm = self.make()
        drive(mem, xm.malloc(host_ctx(), 64))
        with pytest.raises(XMallocError):
            drive(mem, xm.free(host_ctx(), xm.size + 4096))

    def test_stack_depth_accounting(self):
        mem, xm = self.make()
        p = drive(mem, xm.malloc(host_ctx(), 64))
        before = xm.host_stack_depth(64)
        drive(mem, xm.free(host_ctx(), p))
        assert xm.host_stack_depth(64) == before + 1


class TestXMallocConcurrent:
    def test_churn_no_duplicates(self):
        """The ABA-tagged stack must never hand one block to two
        threads."""
        mem = DeviceMemory(8 << 20)
        xm = XMalloc(mem, 0, 1 << 20)
        live = []
        dups = []

        def kernel(ctx):
            for _ in range(3):
                p = yield from xm.malloc(ctx, 48)
                if p == NULL:
                    continue
                if p in live:
                    dups.append(p)
                live.append(p)
                yield ops.sleep(ctx.rng.randrange(200))
                live.remove(p)
                yield from xm.free(ctx, p)

        s = Scheduler(mem, seed=7)
        s.launch(kernel, 4, 64)
        s.run(max_events=60_000_000)
        assert dups == [], f"double allocation: {dups}"

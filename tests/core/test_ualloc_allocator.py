"""UAlloc + combined ThroughputAllocator integration tests:
routing, alignment guarantees, exhaustion/fragmentation, reclamation,
cross-arena frees, data integrity, error detection."""

import pytest

from repro.core import AllocatorConfig, ThroughputAllocator
from repro.core.bin_ import HeapCorruption
from repro.sim import DeviceMemory, GPUDevice, Scheduler, ops
from repro.sim.hostrun import drive, host_ctx

NULL = DeviceMemory.NULL


def make(pool_order=9, num_sms=4, **cfg_kw):
    device = GPUDevice(num_sms=num_sms)
    mem = DeviceMemory((4096 << pool_order) * 2 + (8 << 20))
    alloc = ThroughputAllocator(
        mem, device, AllocatorConfig(pool_order=pool_order, **cfg_kw)
    )
    return mem, device, alloc


class TestRouting:
    @pytest.mark.parametrize("size", [1, 8, 100, 2048])
    def test_small_sizes_never_page_aligned(self, size):
        mem, device, alloc = make()
        a = drive(mem, alloc.malloc(host_ctx(), size))
        assert a != NULL
        assert (a - alloc.pool_base) % alloc.cfg.page_size != 0

    @pytest.mark.parametrize("size", [2049, 4096, 10000, 65536])
    def test_large_sizes_page_aligned(self, size):
        mem, device, alloc = make()
        a = drive(mem, alloc.malloc(host_ctx(), size))
        assert a != NULL
        assert (a - alloc.pool_base) % alloc.cfg.page_size == 0

    def test_free_routes_by_alignment(self):
        mem, device, alloc = make()
        small = drive(mem, alloc.malloc(host_ctx(), 64))
        big = drive(mem, alloc.malloc(host_ctx(), 8192))
        drive(mem, alloc.free(host_ctx(), small))
        drive(mem, alloc.free(host_ctx(), big))
        alloc.ualloc.host_gc()
        alloc.host_check()
        assert alloc.tbuddy.host_free_bytes() == alloc.cfg.pool_size

    def test_zero_and_negative_size(self):
        mem, device, alloc = make()
        assert drive(mem, alloc.malloc(host_ctx(), 0)) == NULL
        assert drive(mem, alloc.malloc(host_ctx(), -5)) == NULL

    def test_free_null_is_noop(self):
        mem, device, alloc = make()
        drive(mem, alloc.free(host_ctx(), NULL))

    def test_stats_track_calls(self):
        mem, device, alloc = make()
        a = drive(mem, alloc.malloc(host_ctx(), 64))
        drive(mem, alloc.free(host_ctx(), a))
        assert alloc.stats.n_malloc == 1
        assert alloc.stats.n_free == 1
        assert alloc.stats.failure_rate == 0.0


class TestSequentialLifecycle:
    def test_same_class_allocations_distinct(self):
        mem, device, alloc = make()
        got = [drive(mem, alloc.malloc(host_ctx(), 64)) for _ in range(200)]
        assert NULL not in got
        assert len(set(got)) == 200

    def test_free_and_reuse(self):
        mem, device, alloc = make()
        anchor = drive(mem, alloc.malloc(host_ctx(), 64))  # keeps the bin live
        a1 = drive(mem, alloc.malloc(host_ctx(), 64))
        drive(mem, alloc.free(host_ctx(), a1))
        a2 = drive(mem, alloc.malloc(host_ctx(), 64))
        assert a2 == a1  # reuse within the still-live bin
        assert anchor != a1

    def test_all_size_classes_round_trip(self):
        mem, device, alloc = make()
        addrs = {}
        for size in alloc.cfg.size_classes:
            addrs[size] = drive(mem, alloc.malloc(host_ctx(), size))
            assert addrs[size] != NULL
        for size, a in addrs.items():
            drive(mem, alloc.free(host_ctx(), a))
        alloc.ualloc.host_gc()
        alloc.host_check()
        assert alloc.tbuddy.host_free_bytes() == alloc.cfg.pool_size

    def test_double_free_detected(self):
        mem, device, alloc = make()
        anchor = drive(mem, alloc.malloc(host_ctx(), 64))  # keeps the bin live
        a = drive(mem, alloc.malloc(host_ctx(), 64))
        drive(mem, alloc.free(host_ctx(), a))
        from repro.core.bin_ import DoubleFree
        with pytest.raises(DoubleFree):
            drive(mem, alloc.free(host_ctx(), a))

    @pytest.mark.parametrize("size", [64, 8192])
    def test_double_free_raises_the_one_public_class(self, size):
        """A bin block (64 B) and a TBuddy block (8 KiB) both raise
        ``repro.core.DoubleFree``."""
        from repro.core import DoubleFree
        mem, device, alloc = make()
        anchor = drive(mem, alloc.malloc(host_ctx(), size))  # a 64 B bin stays live
        a = drive(mem, alloc.malloc(host_ctx(), size))
        drive(mem, alloc.free(host_ctx(), a))
        with pytest.raises(DoubleFree):
            drive(mem, alloc.free(host_ctx(), a))

    def test_double_free_of_retired_bin_detected(self):
        """Even after the bin retires, a stale free is caught (the bin's
        count sentinel / chunk magic trips)."""
        mem, device, alloc = make()
        a = drive(mem, alloc.malloc(host_ctx(), 64))
        drive(mem, alloc.free(host_ctx(), a))  # retires bin and chunk
        alloc.ualloc.host_gc()
        from repro.core.bin_ import DoubleFree
        with pytest.raises((DoubleFree, HeapCorruption)):
            drive(mem, alloc.free(host_ctx(), a))

    def test_wild_free_detected(self):
        mem, device, alloc = make()
        drive(mem, alloc.malloc(host_ctx(), 64))  # create a chunk
        with pytest.raises((HeapCorruption, ValueError)):
            # address inside the pool, but not a valid block
            drive(mem, alloc.free(host_ctx(), alloc.pool_base + 4096 + 64 + 1))

    def test_free_outside_pool_detected(self):
        """Regression: an out-of-pool address used to fall through to
        alignment-based routing and corrupt whichever structure the
        address happened to hit."""
        from repro.core.tbuddy import InvalidFree

        mem, device, alloc = make()
        below = alloc.pool_base - alloc.cfg.page_size
        beyond = alloc.pool_base + alloc.cfg.pool_size
        for addr in (below, beyond, beyond + 12345):
            with pytest.raises(InvalidFree, match=f"{addr:#x}"):
                drive(mem, alloc.free(host_ctx(), addr))
        # a failed free is not counted
        assert alloc.stats.n_free == 0

    def test_degenerate_2k_class(self):
        """Paper: a bin cannot hold two 2 KB blocks."""
        mem, device, alloc = make()
        a1 = drive(mem, alloc.malloc(host_ctx(), 2048))
        a2 = drive(mem, alloc.malloc(host_ctx(), 2048))
        assert a1 != NULL and a2 != NULL
        # each lives in its own bin
        assert abs(a1 - a2) >= alloc.cfg.bin_size


class TestConcurrent:
    def test_mixed_churn_no_leak(self):
        mem, device, alloc = make(pool_order=9)
        failures = []

        def kernel(ctx, sizes, iters):
            f = 0
            for i in range(iters):
                size = sizes[(ctx.tid + i) % len(sizes)]
                p = yield from alloc.malloc(ctx, size)
                if p == NULL:
                    f += 1
                    continue
                yield ops.sleep(ctx.rng.randrange(200))
                yield from alloc.free(ctx, p)
            failures.append(f)

        s = Scheduler(mem, device, seed=9)
        s.launch(kernel, 8, 64, args=([8, 64, 200, 1024, 4096, 16384], 3))
        s.run(max_events=40_000_000)
        alloc.ualloc.host_gc()
        alloc.host_check()
        assert alloc.tbuddy.host_free_bytes() == alloc.cfg.pool_size

    def test_concurrent_allocations_disjoint_and_writable(self):
        """Every thread writes its whole block; overlap would corrupt a
        neighbour's pattern."""
        mem, device, alloc = make(pool_order=9)
        results = []

        def kernel(ctx):
            size = (8, 16, 32, 64)[ctx.tid % 4]
            p = yield from alloc.malloc(ctx, size)
            if p == NULL:
                results.append((ctx.tid, None))
                return
            base = (p + 7) & ~7
            for w in range(size // 8):
                yield ops.store(base + 8 * w, (ctx.tid << 16) | w)
            yield ops.sleep(ctx.rng.randrange(400))
            vals = []
            for w in range(size // 8):
                v = yield ops.load(base + 8 * w)
                vals.append(v)
            results.append(
                (ctx.tid, all(v == (ctx.tid << 16) | w
                              for w, v in enumerate(vals)))
            )

        s = Scheduler(mem, device, seed=17)
        s.launch(kernel, 8, 64)
        s.run(max_events=40_000_000)
        bad = [tid for tid, ok in results if ok is False]
        assert bad == [], f"data corrupted for threads {bad}"

    def test_cross_arena_frees(self):
        """Phase 1 allocates; phase 2 frees from different SMs (the
        paper's free-anywhere path through the chunk's arena id)."""
        mem, device, alloc = make(pool_order=9)
        ptrs = []

        def alloc_kernel(ctx):
            p = yield from alloc.malloc(ctx, 64)
            ptrs.append(p)

        s = Scheduler(mem, device, seed=3)
        s.launch(alloc_kernel, 4, 64)
        s.run(max_events=20_000_000)
        assert NULL not in ptrs

        # reverse the list: thread i frees a pointer allocated by the
        # "other end" of the launch (different block/SM)
        rev = ptrs[::-1]

        def free_kernel(ctx):
            yield from alloc.free(ctx, rev[ctx.tid])

        s2 = Scheduler(mem, device, seed=4)
        s2.launch(free_kernel, 4, 64)
        s2.run(max_events=20_000_000)
        alloc.ualloc.host_gc()
        alloc.host_check()
        assert alloc.tbuddy.host_free_bytes() == alloc.cfg.pool_size

    def test_exhaustion_failure_rate_small_sizes(self):
        """Exhausting the pool with 64 B allocations fails only for the
        metadata overhead (paper: 'small number of failures ... due to
        the memory used for the chunks and bins headers')."""
        mem, device, alloc = make(pool_order=7, num_sms=2)  # 512 KB pool
        pool = alloc.cfg.pool_size
        n = pool // 64
        got = []

        def kernel(ctx):
            p = yield from alloc.malloc(ctx, 64)
            got.append(p)

        s = Scheduler(mem, device, seed=5)
        s.launch(kernel, -(-n // 256), 256)
        s.run(max_events=60_000_000)
        failed = sum(1 for p in got if p == NULL)
        rate = failed / len(got)
        assert rate < 0.10, f"failure rate {rate:.1%} too high for 64 B"
        # and no block was handed out twice
        ok = [p for p in got if p != NULL]
        assert len(set(ok)) == len(ok)

    def test_tbuddy_sizes_do_not_fail_on_exact_fit(self):
        mem, device, alloc = make(pool_order=7, num_sms=2)
        n = alloc.cfg.pool_size // 4096
        got = []

        def kernel(ctx):
            p = yield from alloc.malloc(ctx, 4096)
            got.append(p)

        s = Scheduler(mem, device, seed=6)
        s.launch(kernel, -(-n // 64), 64)
        s.run(max_events=40_000_000)
        assert sum(1 for p in got if p == NULL) == 0


class TestReclamation:
    def test_bins_and_chunks_retire(self):
        mem, device, alloc = make(pool_order=9, num_sms=2)
        ptrs = []

        def alloc_kernel(ctx):
            p = yield from alloc.malloc(ctx, 128)
            ptrs.append(p)

        def free_kernel(ctx):
            yield from alloc.free(ctx, ptrs[ctx.tid])

        s = Scheduler(mem, device, seed=7)
        s.launch(alloc_kernel, 4, 64)
        s.run(max_events=20_000_000)
        live_chunks = len(alloc.host_live_chunks())
        assert live_chunks >= 1

        s2 = Scheduler(mem, device, seed=8)
        s2.launch(free_kernel, 4, 64)
        s2.run(max_events=20_000_000)
        alloc.ualloc.host_gc()
        assert alloc.host_live_chunks() == []
        assert alloc.tbuddy.host_free_bytes() == alloc.cfg.pool_size

    def test_host_used_bytes_tracks_live_blocks(self):
        mem, device, alloc = make()
        a = drive(mem, alloc.malloc(host_ctx(), 256))
        b = drive(mem, alloc.malloc(host_ctx(), 8192))
        used = alloc.host_used_bytes()
        assert used == 256 + 8192
        drive(mem, alloc.free(host_ctx(), a))
        drive(mem, alloc.free(host_ctx(), b))
        assert alloc.host_used_bytes() == 0

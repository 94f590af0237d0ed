"""AllocStats counting contract and the host pressure gauge (S1).

Historically ``malloc(nbytes <= 0)`` returned NULL without touching the
stats and ``free(NULL)`` skipped ``n_free``, so failure rates and
malloc/free deltas silently skewed on edge-size probes.  The contract
is now explicit (see :class:`repro.core.allocator.AllocStats`); these
tests pin it.
"""

import random

import pytest

from repro.core import AllocatorConfig, ThroughputAllocator
from repro.core.tbuddy import InvalidFree
from repro.sim import DeviceMemory, GPUDevice
from repro.sim.hostrun import drive, host_ctx
from repro.sync.bulk_semaphore import C_GUARD

NULL = DeviceMemory.NULL


def make_alloc(pool_order: int = 6):
    device = GPUDevice(num_sms=1)
    cfg = AllocatorConfig(pool_order=pool_order)
    mem = DeviceMemory((4096 << pool_order) * 2 + (8 << 20))
    return mem, ThroughputAllocator(mem, device, cfg)


class TestInvalidSizeCounting:
    @pytest.mark.parametrize("method", ["malloc", "malloc_coalesced",
                                        "malloc_robust"])
    def test_non_positive_sizes_count_as_invalid(self, method):
        mem, alloc = make_alloc()
        fn = getattr(alloc, method)
        assert drive(mem, fn(host_ctx(), 0)) == NULL
        assert drive(mem, fn(host_ctx(), -8)) == NULL
        s = alloc.stats
        assert s.n_malloc == 2
        assert s.n_malloc_failed == 2
        assert s.n_invalid_size == 2
        assert s.n_exhaustion == 0
        # invalid sizes are permanent failures: robust must not retry
        assert s.n_robust_retries == 0
        assert s.failure_rate == 1.0

    def test_failure_classification_is_a_partition(self):
        mem, alloc = make_alloc()
        drive(mem, alloc.malloc(host_ctx(), 0))           # invalid
        p = drive(mem, alloc.malloc(host_ctx(), 64))      # success
        assert p != NULL
        # valid size, impossible to satisfy -> exhaustion
        assert drive(mem, alloc.malloc(host_ctx(),
                                       alloc.cfg.pool_size)) == NULL
        drive(mem, alloc.free(host_ctx(), p))
        s = alloc.stats
        assert s.n_malloc == 3
        assert s.n_malloc_failed == s.n_invalid_size + s.n_exhaustion == 2
        assert (s.n_invalid_size, s.n_exhaustion) == (1, 1)


class TestFreeCounting:
    def test_free_null_is_a_counted_noop(self):
        mem, alloc = make_alloc()
        drive(mem, alloc.free(host_ctx(), NULL))
        assert alloc.stats.n_free == 1
        assert alloc.stats.n_free_null == 1

    def test_raising_free_is_not_counted(self):
        mem, alloc = make_alloc()
        with pytest.raises(InvalidFree):
            drive(mem, alloc.free(host_ctx(), alloc.pool_base - 4096))
        assert alloc.stats.n_free == 0

    def test_malloc_free_delta_zero_over_an_episode(self):
        """The leak-certifying identity: completed mallocs that returned
        a block == completed frees of a block, NULLs included on both
        sides of the ledger."""
        mem, alloc = make_alloc()
        ptrs = [drive(mem, alloc.malloc(host_ctx(), sz))
                for sz in (8, 64, 2048, 4096)]
        for p in ptrs:
            drive(mem, alloc.free(host_ctx(), p))  # NULLs are no-ops
        drive(mem, alloc.free(host_ctx(), NULL))
        s = alloc.stats
        ok_mallocs = s.n_malloc - s.n_malloc_failed
        ok_frees = s.n_free - s.n_free_null
        assert ok_mallocs == ok_frees == len([p for p in ptrs if p != NULL])
        alloc.ualloc.host_gc()
        alloc.host_checkpoint(expect_leak_free=True)


class _RecordingRng(random.Random):
    """Records every ``randrange`` bound drawn (backoff-cap probing)."""

    def __init__(self, seed=0):
        super().__init__(seed)
        self.bounds = []

    def randrange(self, *args, **kwargs):
        self.bounds.append(args[0])
        return super().randrange(*args, **kwargs)


class TestMallocRobustParams:
    @pytest.mark.parametrize("kwargs, match", [
        ({"max_retries": -1}, "max_retries"),
        ({"backoff_base": 0}, "backoff_base"),
        ({"backoff_base": -16}, "backoff_base"),
        ({"backoff_cap": 0}, "backoff_cap"),
    ])
    def test_bad_params_raise_at_the_call_site(self, kwargs, match):
        # backoff_base=0 used to surface as randrange(0) mid-kernel on
        # the first retry; validation is now eager — before any yield.
        _, alloc = make_alloc()
        with pytest.raises(ValueError, match=match):
            alloc.malloc_robust(host_ctx(), 64, **kwargs)
        assert alloc.stats.n_malloc == 0

    def test_zero_retries_is_plain_malloc(self):
        mem, alloc = make_alloc()
        p = drive(mem, alloc.malloc_robust(host_ctx(), 64, max_retries=0))
        assert p != NULL
        assert alloc.stats.n_robust_retries == 0
        drive(mem, alloc.free(host_ctx(), p))

    @staticmethod
    def _always_null(alloc):
        """Stub out the underlying malloc so the backoff sleeps are the
        only ``rng.randrange`` draws the test observes (a real failing
        malloc also draws for semaphore spin backoff)."""
        def fake_malloc(ctx, nbytes):
            alloc.stats.n_malloc += 1
            alloc.stats.n_malloc_failed += 1
            return NULL
            yield  # pragma: no cover — generator marker

        alloc.malloc = fake_malloc

    def test_backoff_never_exceeds_cap(self):
        mem, alloc = make_alloc()
        self._always_null(alloc)
        ctx = host_ctx()
        ctx.rng = _RecordingRng()
        # base above the cap: the first sleep must already clamp (the
        # old code only capped after doubling, so base > cap slept an
        # uncapped randrange(base) on the first retry)
        p = drive(mem, alloc.malloc_robust(ctx, 4096, max_retries=3,
                                           backoff_base=1 << 20,
                                           backoff_cap=512))
        assert p == NULL
        assert ctx.rng.bounds == [512, 512, 512]
        assert alloc.stats.n_robust_retries == 3

    def test_backoff_doubles_up_to_cap(self):
        mem, alloc = make_alloc()
        self._always_null(alloc)
        ctx = host_ctx()
        ctx.rng = _RecordingRng()
        assert drive(mem, alloc.malloc_robust(ctx, 4096, max_retries=4,
                                              backoff_base=100,
                                              backoff_cap=350)) == NULL
        assert ctx.rng.bounds == [100, 200, 350, 350]


class TestPressureGauge:
    def test_fresh_pool_reads_fully_free(self):
        _, alloc = make_alloc()
        gauge = alloc.host_pressure()
        assert gauge.free_bytes == alloc.cfg.pool_size
        assert gauge.pressure == 0.0
        # the whole pool is one free block of the top order
        assert gauge.free_per_order == (0,) * alloc.cfg.pool_order + (1,)

    def test_gauge_tracks_supply_by_order(self):
        mem, alloc = make_alloc()
        before = alloc.host_pressure()
        p = drive(mem, alloc.malloc(host_ctx(), 4096))
        after = alloc.host_pressure()
        assert after.free_bytes == before.free_bytes - 4096
        assert 0.0 < after.pressure < 1.0
        # the split chain left exactly one free block at each order below
        # the top (buddy halves), none at the top
        assert after.free_per_order[alloc.cfg.pool_order] == 0
        assert all(n == 1 for n in
                   after.free_per_order[:alloc.cfg.pool_order])
        drive(mem, alloc.free(host_ctx(), p))

    def test_gauge_agrees_with_tree_at_quiescence(self):
        mem, alloc = make_alloc()
        ptrs = [drive(mem, alloc.malloc(host_ctx(), sz))
                for sz in (4096, 8192, 64)]
        assert alloc.host_pressure().free_bytes == \
            alloc.tbuddy.host_free_bytes()
        for p in ptrs:
            drive(mem, alloc.free(host_ctx(), p))
        alloc.ualloc.host_gc()
        assert alloc.host_pressure().free_bytes == alloc.cfg.pool_size

    def test_in_flight_borrow_clamps_to_zero(self):
        """A claim that overdraws ``C`` momentarily borrows from ``E``,
        leaving ``C >= C_GUARD`` in the raw word.  A gauge snapshot taken
        mid-claim must clamp that order to 0, not report the wrapped
        count as supply.  ``pack()`` refuses to build borrowed states,
        so poke the raw word directly — exactly what a racing claimant's
        fetch-and-add leaves behind."""
        mem, alloc = make_alloc()
        top = alloc.cfg.pool_order
        sem = alloc.tbuddy.sems[top]  # fresh pool: C == 1 here
        assert alloc.host_pressure().free_per_order[top] == 1
        saved = mem.load_word(sem.addr)
        mem.store_word(sem.addr, saved + C_GUARD)  # C-field borrow
        gauge = alloc.host_pressure()
        assert gauge.free_per_order[top] == 0
        assert gauge.free_bytes == 0
        # mid-claim snapshots under-report; they must never over-report
        assert gauge.pressure == 1.0
        mem.store_word(sem.addr, saved)
        assert alloc.host_pressure().free_bytes == alloc.cfg.pool_size

    def test_whole_pool_allocation_maxes_pressure(self):
        mem, alloc = make_alloc()
        p = drive(mem, alloc.malloc(host_ctx(), alloc.cfg.pool_size))
        assert p != NULL
        gauge = alloc.host_pressure()
        assert gauge.free_bytes == 0
        assert gauge.pressure == 1.0
        assert not any(gauge.free_per_order)
        drive(mem, alloc.free(host_ctx(), p))

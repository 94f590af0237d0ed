"""Scheduler behaviour: ordering, atomics, barriers, warps, residency,
determinism, error paths."""

import pytest

from repro.sim import (
    DeadlockError,
    DeviceMemory,
    GPUDevice,
    InvalidOp,
    LaunchError,
    Scheduler,
    ops,
)
from repro.sim.cost_model import CostModel


def fresh(size=1 << 16, **dev):
    mem = DeviceMemory(size)
    return mem, GPUDevice(**dev) if dev else (mem, GPUDevice())


class TestBasics:
    def test_atomic_add_counts_every_thread(self):
        mem = DeviceMemory(1 << 12)
        counter = mem.host_alloc(8)

        def kernel(ctx):
            yield ops.atomic_add(counter, 1)

        s = Scheduler(mem)
        s.launch(kernel, 4, 64)
        s.run()
        assert mem.load_word(counter) == 256

    def test_kernel_return_values(self):
        mem = DeviceMemory(1 << 12)

        def kernel(ctx):
            yield ops.sleep(1)
            return ctx.tid * 2

        s = Scheduler(mem)
        h = s.launch(kernel, 1, 8)
        s.run()
        assert h.results == [0, 2, 4, 6, 8, 10, 12, 14]

    def test_plain_function_kernel_completes_instantly(self):
        mem = DeviceMemory(1 << 12)
        s = Scheduler(mem)
        h = s.launch(lambda ctx: ctx.tid + 100, 1, 4)
        s.run()
        assert h.results == [100, 101, 102, 103]

    def test_load_store(self):
        mem = DeviceMemory(1 << 12)
        cell = mem.host_alloc(8)
        mem.store_word(cell, 41)

        def kernel(ctx):
            v = yield ops.load(cell)
            yield ops.store(cell, v + 1)

        s = Scheduler(mem)
        s.launch(kernel, 1, 1)
        s.run()
        assert mem.load_word(cell) == 42

    def test_multiple_launches_share_device(self):
        mem = DeviceMemory(1 << 12)
        counter = mem.host_alloc(8)

        def kernel(ctx):
            yield ops.atomic_add(counter, 1)

        s = Scheduler(mem)
        s.launch(kernel, 1, 32)
        s.launch(kernel, 1, 32)
        s.run()
        assert mem.load_word(counter) == 64

    def test_sequential_runs_advance_time(self):
        mem = DeviceMemory(1 << 12)

        def kernel(ctx):
            yield ops.sleep(100)

        s = Scheduler(mem)
        s.launch(kernel, 1, 1)
        r1 = s.run()
        s.launch(kernel, 1, 1)
        r2 = s.run()
        assert r2.cycles > r1.cycles


class TestAtomicSerialization:
    def test_same_word_atomics_serialize(self):
        cm = CostModel()
        mem = DeviceMemory(1 << 12)
        counter = mem.host_alloc(8)

        def kernel(ctx):
            yield ops.atomic_add(counter, 1)

        s = Scheduler(mem, cost_model=cm)
        n = 512
        s.launch(kernel, 2, 256)
        rep = s.run()
        # n atomics on one word cannot finish faster than the service rate
        assert rep.cycles >= n * cm.atomic_service

    def test_different_words_do_not_serialize(self):
        cm = CostModel()
        mem = DeviceMemory(1 << 16)
        base = mem.host_alloc(8 * 512)

        def kernel(ctx):
            yield ops.atomic_add(base + 8 * ctx.tid, 1)

        s = Scheduler(mem, cost_model=cm)
        s.launch(kernel, 2, 256)
        rep = s.run()
        assert rep.cycles < 512 * cm.atomic_service


class TestDeterminism:
    def _trace(self, seed):
        mem = DeviceMemory(1 << 12)
        cell = mem.host_alloc(8)
        order = []

        def kernel(ctx):
            yield ops.sleep(ctx.rng.randrange(100))
            old = yield ops.atomic_add(cell, 1)
            order.append((old, ctx.tid))

        s = Scheduler(mem, seed=seed)
        s.launch(kernel, 2, 64)
        rep = s.run()
        return order, rep.cycles

    def test_same_seed_same_trace(self):
        assert self._trace(7) == self._trace(7)

    def test_different_seed_different_interleaving(self):
        # not guaranteed in principle, but overwhelmingly likely
        assert self._trace(7)[0] != self._trace(8)[0]


class TestBarriers:
    def test_syncthreads_joins_block(self):
        mem = DeviceMemory(1 << 12)
        flag = mem.host_alloc(8)
        seen = []

        def kernel(ctx):
            if ctx.tid_in_block == 0:
                yield ops.sleep(5000)
                yield ops.store(flag, 1)
            yield ops.syncthreads()
            v = yield ops.load(flag)
            seen.append(v)

        s = Scheduler(mem)
        s.launch(kernel, 1, 64)
        s.run()
        assert seen == [1] * 64

    def test_barrier_per_block_not_global(self):
        mem = DeviceMemory(1 << 12)
        done = []

        def kernel(ctx):
            if ctx.block == 0:
                yield ops.sleep(100000)
            yield ops.syncthreads()
            done.append(ctx.block)

        s = Scheduler(mem)
        s.launch(kernel, 2, 32)
        s.run()
        # block 1 must have finished before block 0's sleepers
        assert done[:32] == [1] * 32

    def test_exited_threads_release_barrier(self):
        mem = DeviceMemory(1 << 12)

        def kernel(ctx):
            if ctx.tid_in_block < 16:
                return  # exit without reaching the barrier
            yield ops.syncthreads()

        s = Scheduler(mem)
        s.launch(kernel, 1, 32)
        s.run(max_events=10_000)  # must not deadlock


class TestWarpOps:
    def test_warp_converge_full_warp(self):
        mem = DeviceMemory(1 << 12)
        masks = []

        def kernel(ctx):
            m = yield ops.warp_converge()
            masks.append(m)

        s = Scheduler(mem)
        s.launch(kernel, 1, 64)
        s.run()
        assert all(len(m) == 32 for m in masks)

    def test_warp_converge_partial_when_lanes_exit(self):
        mem = DeviceMemory(1 << 12)
        masks = []

        def kernel(ctx):
            if ctx.lane >= 8:
                return
            m = yield ops.warp_converge()
            masks.append(m)

        s = Scheduler(mem)
        s.launch(kernel, 1, 32)
        s.run()
        assert masks and all(m == frozenset(range(8)) for m in masks)

    def test_warp_converge_window_releases_early_arrivals(self):
        mem = DeviceMemory(1 << 12)
        masks = []

        def kernel(ctx):
            if ctx.lane == 0:
                yield ops.sleep(100_000)  # way past the window
            m = yield ops.warp_converge()
            masks.append(m)

        s = Scheduler(mem)
        s.launch(kernel, 1, 32)
        s.run()
        # lanes 1..31 converged without lane 0; lane 0 converged alone
        sizes = sorted(len(m) for m in masks)
        assert sizes[0] == 1 and sizes[-1] == 31

    def test_warp_sync_mask(self):
        mem = DeviceMemory(1 << 12)
        out = []

        def kernel(ctx):
            if ctx.lane >= 4:
                return
            mask = frozenset(range(4))
            yield ops.sleep(ctx.lane * 100)
            got = yield ops.warp_sync(mask)
            out.append(got)

        s = Scheduler(mem)
        s.launch(kernel, 1, 32)
        s.run()
        assert out == [frozenset(range(4))] * 4

    def test_warp_sync_rejects_foreign_lane(self):
        mem = DeviceMemory(1 << 12)

        def kernel(ctx):
            yield ops.warp_sync(frozenset({5}))  # lane 0 not in mask

        s = Scheduler(mem)
        s.launch(kernel, 1, 1)
        with pytest.raises(InvalidOp):
            s.run()


class TestWarpBroadcast:
    @pytest.mark.parametrize("payload", [0, None, False, "", 42])
    def test_single_source_payload_delivered_even_when_falsy(self, payload):
        # Regression: None/falsy payloads used to be indistinguishable
        # from "no payload", so a broadcast of 0 delivered the mask.
        mem = DeviceMemory(1 << 12)
        out = []

        def kernel(ctx):
            mask = frozenset(range(4))
            if ctx.lane == 2:
                got = yield ops.warp_broadcast(mask, payload)
            else:
                got = yield ops.warp_broadcast(mask)
            out.append(got)

        s = Scheduler(mem)
        s.launch(kernel, 1, 4)
        s.run()
        assert out == [payload] * 4

    def test_no_contributor_degrades_to_warp_sync(self):
        mem = DeviceMemory(1 << 12)
        out = []

        def kernel(ctx):
            mask = frozenset(range(4))
            got = yield ops.warp_broadcast(mask)
            out.append(got)

        s = Scheduler(mem)
        s.launch(kernel, 1, 4)
        s.run()
        assert out == [frozenset(range(4))] * 4

    def test_multiple_contributors_raise(self):
        # Regression: with two contributors the winner used to depend on
        # arrival order; now it is a detected program error.
        mem = DeviceMemory(1 << 12)

        def kernel(ctx):
            mask = frozenset(range(4))
            if ctx.lane < 2:
                yield ops.warp_broadcast(mask, ctx.lane)
            else:
                yield ops.warp_broadcast(mask)

        s = Scheduler(mem)
        s.launch(kernel, 1, 4)
        with pytest.raises(InvalidOp, match="exactly one source lane"):
            s.run()


class TestResidency:
    def test_blocks_queue_beyond_residency(self):
        device = GPUDevice(num_sms=1, max_resident_blocks=1)
        mem = DeviceMemory(1 << 12)
        spans = []

        def kernel(ctx):
            start = None
            yield ops.sleep(1000)
            spans.append(ctx.block)

        s = Scheduler(mem, device)
        s.launch(kernel, 4, 8)
        rep = s.run()
        # 4 blocks serialized on 1 SM slot: at least 4 x 1000 cycles
        assert rep.cycles >= 4000

    def test_resident_blocks_overlap(self):
        device = GPUDevice(num_sms=1, max_resident_blocks=4)
        mem = DeviceMemory(1 << 12)

        def kernel(ctx):
            yield ops.sleep(1000)

        s = Scheduler(mem, device)
        s.launch(kernel, 4, 8)
        rep = s.run()
        assert rep.cycles < 3000

    def test_dispatch_cost_charged_at_time_zero(self):
        # Regression: blocks dispatched at t=0 used to start for free.
        mem = DeviceMemory(1 << 12)
        s = Scheduler(mem)

        def kernel(ctx):
            yield ops.sleep(1)

        s.launch(kernel, 1, 1)
        rep = s.run()
        assert rep.cycles >= s.cost_model.block_dispatch + 1

    def test_dispatch_cost_uniform_across_launch_and_requeue(self):
        # Every block pays the same dispatch latency whether it starts at
        # launch or from the SM queue after a retirement (the old code
        # waived it at t=0 and double-charged it on the requeue path).
        device = GPUDevice(num_sms=1, max_resident_blocks=1)
        mem = DeviceMemory(1 << 12)

        def kernel(ctx):
            yield ops.sleep(1000)

        s = Scheduler(mem, device)
        s.launch(kernel, 3, 1)
        rep = s.run()
        d = s.cost_model.block_dispatch
        # 3 serialized blocks, each: dispatch + ~1000 cycles of work
        assert rep.cycles >= 3 * (d + 1000)

    def test_retire_refills_every_free_slot(self):
        # Regression (white-box): _retire_block used to dispatch at most
        # one queued block per retirement, stranding free residency slots
        # if the invariant ever broke.  Force the broken state and check
        # the refill loop recovers all slots.
        device = GPUDevice(num_sms=1, max_resident_blocks=4)
        mem = DeviceMemory(1 << 12)

        def kernel(ctx):
            yield ops.sleep(10)

        s = Scheduler(mem, device)
        s.launch(kernel, 7, 8)  # 4 dispatched, 3 queued
        assert s._sm_resident[0] == 4
        assert len(s._sm_queues[0]) == 3
        # every thread is still live, so the table reaches all 7 blocks
        blocks = list({id(th.block): th.block
                       for th in s._threads}.values())
        assert len(blocks) == 7
        retired = next(b for b in blocks if b.dispatched)
        s._sm_resident[0] = 2  # simulate two slots freed without refill
        s._retire_block(retired, t=100)
        assert len(s._sm_queues[0]) == 0  # ALL queued blocks dispatched
        assert s._sm_resident[0] == 4
        assert all(b.dispatched for b in blocks)

    def test_sm_queue_is_deque(self):
        from collections import deque

        mem = DeviceMemory(1 << 12)
        s = Scheduler(mem)
        assert all(isinstance(q, deque) for q in s._sm_queues)


class TestErrors:
    def test_bad_launch_config(self):
        mem = DeviceMemory(1 << 12)
        s = Scheduler(mem)
        with pytest.raises(LaunchError):
            s.launch(lambda ctx: None, 0, 32)
        with pytest.raises(LaunchError):
            s.launch(lambda ctx: None, 1, 4096)

    @pytest.mark.parametrize("grid, block", [
        (True, 4), (1, True), (2.0, 4), (1, 4.0), ("2", 4), (-1, 4), (1, 0),
    ])
    def test_launch_rejects_non_positive_int_dims(self, grid, block):
        mem = DeviceMemory(1 << 12)
        s = Scheduler(mem)
        with pytest.raises(LaunchError, match="positive ints"):
            s.launch(lambda ctx: None, grid, block)
        assert s.live_threads == 0 and not s._threads

    def test_negative_budget_fails_before_any_event(self):
        mem = DeviceMemory(1 << 12)

        def kernel(ctx):
            yield ops.sleep(1)

        s = Scheduler(mem)
        s.launch(kernel, 1, 4)
        before = (s.state_digest(), s.now, s.live_threads)
        with pytest.raises(ValueError, match="max_events"):
            s.run(max_events=-3)
        assert (s.state_digest(), s.now, s.live_threads) == before
        assert s.run().events == 8   # the queue is intact

    def test_invalid_yield_detected(self):
        mem = DeviceMemory(1 << 12)

        def kernel(ctx):
            yield "not an op"

        s = Scheduler(mem)
        s.launch(kernel, 1, 1)
        with pytest.raises(InvalidOp):
            s.run()

    def test_event_budget_guards_livelock(self):
        mem = DeviceMemory(1 << 12)

        def kernel(ctx):
            while True:
                yield ops.cpu_yield()

        s = Scheduler(mem)
        s.launch(kernel, 1, 1)
        with pytest.raises(DeadlockError):
            s.run(max_events=1000)

    def test_device_exception_carries_thread_info(self):
        mem = DeviceMemory(1 << 12)

        def kernel(ctx):
            yield ops.sleep(1)
            raise RuntimeError("boom")

        s = Scheduler(mem)
        s.launch(kernel, 1, 1)
        with pytest.raises(RuntimeError, match="boom") as ei:
            s.run()
        assert any("device thread" in n for n in ei.value.__notes__)

    def test_report_throughput(self):
        mem = DeviceMemory(1 << 12)

        def kernel(ctx):
            yield ops.sleep(100)

        s = Scheduler(mem)
        s.launch(kernel, 1, 8)
        rep = s.run()
        assert rep.throughput(8) > 0
        assert rep.seconds == pytest.approx(rep.cycles / rep.cost_model.clock_hz)

    def test_report_named_op_counts(self):
        mem = DeviceMemory(1 << 12)
        cell = mem.host_alloc(8)

        def kernel(ctx):
            yield ops.atomic_add(cell, 1)
            yield ops.load(cell)
            yield ops.sleep(1)

        s = Scheduler(mem)
        s.launch(kernel, 1, 4)
        rep = s.run()
        named = rep.named_op_counts
        assert named["atomic_add"] == 4
        assert named["load"] == 4
        assert all(isinstance(k, str) for k in named)
        # sorted by count descending
        assert list(named.values()) == sorted(named.values(), reverse=True)


class TestLiveThreadTable:
    """The scheduler holds live threads only; a finished thread is read
    through its LaunchHandle, and tids stay global across launches."""

    def test_multi_launch_run_keeps_no_finished_thread(self):
        mem = DeviceMemory(1 << 12)

        def kernel(ctx, base):
            yield ops.sleep(10 * (ctx.tid - base[0]))
            return ctx.tid * 3

        s = Scheduler(mem, seed=5)
        handles, starts = [], []
        for grid, block in ((2, 32), (1, 48), (3, 16)):
            base = [0]
            starts.append(s.now)
            h = s.launch(kernel, grid, block, args=(base,))
            base[0] = h.tids[0]
            handles.append(h)
            rep = s.run()
            assert s.live_threads == 0 and not any(s._threads)
        # tids are global and monotonic; the report counts every launch
        assert [h.tids[0] for h in handles] == [0, 64, 112]
        assert rep.n_threads == 160
        for h, t0 in zip(handles, starts):
            assert h.results == [3 * tid for tid in h.tids]
            finishes = h.finish_times
            assert len(finishes) == h.n_threads
            assert all(f >= t0 + 10 * lane for lane, f in enumerate(finishes))

    def test_finished_threads_leave_while_others_run(self):
        mem = DeviceMemory(1 << 12)
        seen = []

        def kernel(ctx):
            if ctx.tid % 2:
                yield ops.sleep(500)
                seen.append([th.tid for th in s._threads if th])
            return ctx.tid

        s = Scheduler(mem)
        h = s.launch(kernel, 1, 8)
        s.run()
        # the even lanes finished at once, so a late odd lane sees only
        # odd lanes (those still live) in the table
        assert seen and all(t % 2 for tids in seen for t in tids)
        assert h.results == list(range(8))

    def test_tracer_and_race_checker_on_a_multi_launch_run(self):
        from repro.core import AllocatorConfig, ThroughputAllocator
        from repro.verify import RaceChecker

        device = GPUDevice(num_sms=2)
        mem = DeviceMemory(8 << 20)
        alloc = ThroughputAllocator(mem, device,
                                    AllocatorConfig(pool_order=8))
        checker = RaceChecker()
        checker.watch_allocator(alloc)
        s = Scheduler(mem, device, seed=3, tracer=checker)

        def kernel(ctx):
            p = yield from alloc.malloc(ctx, 64 << (ctx.tid % 3))
            yield from alloc.free(ctx, p)
            return p

        for _ in range(3):
            h = s.launch(kernel, 2, 64)
            s.run()
            assert not any(s._threads)
            assert DeviceMemory.NULL not in h.results
        # Tracer.now timed the lock spans of every launch
        assert checker.lock_wait.n > 0 and checker.lock_hold.n > 0
        assert checker.ok, checker.summary()
        assert len(checker.runs) == 1 and checker.runs[0]["t1"] >= s.now

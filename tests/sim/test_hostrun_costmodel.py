"""Host-side op driver, cost model, and contention telemetry."""

import pytest

from repro.sim import DeviceMemory, InvalidOp, Scheduler, Tracer, ops
from repro.sim.cost_model import DEFAULT_COST_MODEL, CostModel
from repro.sim.hostrun import drive, host_ctx


class TestHostRun:
    def test_drives_word_ops(self, mem):
        a = mem.host_alloc(8)

        def gen():
            yield ops.store(a, 5)
            v = yield ops.load(a)
            old = yield ops.atomic_add(a, 2)
            return (v, old)

        assert drive(mem, gen()) == (5, 5)
        assert mem.load_word(a) == 7

    def test_all_atomics(self, mem):
        a = mem.host_alloc(8)

        def gen():
            yield ops.store(a, 0b1100)
            r = []
            r.append((yield ops.atomic_and(a, 0b1010)))
            r.append((yield ops.atomic_or(a, 1)))
            r.append((yield ops.atomic_xor(a, 0b11)))
            r.append((yield ops.atomic_exch(a, 50)))
            r.append((yield ops.atomic_max(a, 60)))
            r.append((yield ops.atomic_min(a, 10)))
            r.append((yield ops.atomic_cas(a, 10, 11)))
            return r

        assert drive(mem, gen()) == [0b1100, 0b1000, 0b1001, 0b1010, 50, 60, 10]

    def test_sleep_and_yield_are_noops(self, mem):
        def gen():
            yield ops.sleep(100)
            yield ops.cpu_yield()
            return "done"

        assert drive(mem, gen()) == "done"

    def test_single_thread_cooperative_semantics(self, mem):
        def gen():
            m = yield ops.warp_converge()
            m2 = yield ops.warp_match("k")
            s = yield ops.warp_sync(frozenset({0}))
            b = yield ops.warp_broadcast(frozenset({0}), "val")
            yield ops.syncthreads()
            return (m, m2, s, b)

        assert drive(mem, gen()) == (
            frozenset({0}), frozenset({0}), frozenset({0}), "val"
        )

    def test_host_ctx_shape(self):
        ctx = host_ctx(seed=3, sm=2)
        assert ctx.sm == 2 and ctx.lane == 0
        assert ctx.rng.randrange(10) == host_ctx(seed=3).rng.randrange(10)


class TestCostModel:
    def test_defaults_sane(self):
        cm = DEFAULT_COST_MODEL
        assert cm.atomic_service < cm.atomic_latency
        assert cm.clock_hz > 0

    def test_seconds_and_throughput(self):
        cm = CostModel(clock_hz=1e9)
        assert cm.seconds(1_000_000) == pytest.approx(1e-3)
        assert cm.throughput(1000, 1_000_000) == pytest.approx(1e6)
        assert cm.throughput(1000, 0) == 0.0

    def test_zero_cycle_run_never_divides_by_zero(self):
        """A trivially-short launch (kernel yields no ops) must report
        0.0 throughput / 0.0 seconds, not raise."""
        cm = DEFAULT_COST_MODEL
        assert cm.seconds(0) == 0.0
        assert cm.seconds(-5) == 0.0
        assert cm.throughput(100, 0) == 0.0
        assert cm.throughput(0, 0) == 0.0

    def test_empty_kernel_report_is_safe(self):
        mem = DeviceMemory(1 << 12)

        def kernel(ctx):
            return
            yield  # pragma: no cover - makes the function a generator

        s = Scheduler(mem)
        s.launch(kernel, 1, 1)
        report = s.run()
        # whatever the dispatch cost charges, the report's derived
        # quantities must be finite and non-raising
        assert report.seconds >= 0.0
        assert report.throughput(1) >= 0.0
        assert report.throughput(0) >= 0.0

    def test_invalid_models_rejected(self):
        with pytest.raises(ValueError):
            CostModel(clock_hz=0)
        with pytest.raises(ValueError):
            CostModel(clock_hz=-1.0)
        with pytest.raises(ValueError):
            CostModel(atomic_latency=-1)

    def test_custom_model_changes_timing(self):
        mem = DeviceMemory(1 << 12)
        counter = mem.host_alloc(8)

        def kernel(ctx):
            yield ops.atomic_add(counter, 1)

        def cycles(service):
            m = DeviceMemory(1 << 12)
            c = m.host_alloc(8)

            def k(ctx):
                yield ops.atomic_add(c, 1)

            s = Scheduler(m, cost_model=CostModel(atomic_service=service))
            s.launch(k, 2, 256)
            return s.run().cycles

        assert cycles(32) > cycles(2)


class TestContentionTelemetry:
    def test_identifies_allocator_hotspots(self):
        """Telemetry points at the semaphore/RCU words, as designed."""
        from repro.core import AllocatorConfig, ThroughputAllocator
        from repro.sim import GPUDevice

        device = GPUDevice(num_sms=1)
        mem = DeviceMemory(16 << 20)
        alloc = ThroughputAllocator(mem, device, AllocatorConfig(pool_order=8))

        def kernel(ctx):
            p = yield from alloc.malloc(ctx, 64)
            assert p != mem.NULL

        tracer = Tracer(timeline=False)
        s = Scheduler(mem, device, seed=1, tracer=tracer)
        s.launch(kernel, 2, 256)
        s.run(max_events=20_000_000)
        top_addr, top_count, top_stall = tracer.top_stall_words(1)[0]
        # the most stalled word must be allocator metadata (outside the
        # pool), touched by a significant share of the 512 allocations
        pool_end = alloc.pool_base + alloc.cfg.pool_size
        assert not alloc.pool_base <= top_addr < pool_end
        assert top_count >= 512
        assert top_stall > 0

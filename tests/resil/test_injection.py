"""FaultInjector decisions and the instrumented failure arms (S3).

The first half unit-tests :meth:`FaultInjector.decide` as a pure
function of ``(plan, seed, occurrence order)``; the second half runs
fault-injected kernels against the real allocator and asserts each
``wait(n, b) == -1`` call site's failure arm reneges correctly — the
heap is structurally sound, the semaphore ledgers read ``E == R == 0``,
and no supply is lost.
"""

import pytest

from repro.core import AllocatorConfig, ThroughputAllocator
from repro.resil import FaultInjector, FaultPlan
from repro.sim import DeviceMemory, GPUDevice, Scheduler, ops
from repro.sim.hostrun import drive, host_ctx

NULL = DeviceMemory.NULL


def make_injector(spec: str, seed: int = 0) -> FaultInjector:
    return FaultInjector(FaultPlan.parse(spec), seed=seed)


class TestDecide:
    def test_deterministic_across_instances(self):
        spec = "site=tbuddy.alloc,p=0.5;site=spinlock.hold,p=0.3,cycles=500"
        a = make_injector(spec, seed=42)
        b = make_injector(spec, seed=42)
        stream = [("tbuddy.alloc", i % 4) for i in range(50)] + \
                 [("spinlock.hold", 0)] * 50
        for site, detail in stream:
            assert a.decide(1, site, detail, 100) == b.decide(1, site, detail, 100)
        assert a.trace_text() == b.trace_text()

    def test_seed_changes_sampling(self):
        spec = "site=tbuddy.alloc,p=0.5"
        a = make_injector(spec, seed=1)
        b = make_injector(spec, seed=2)
        da = [a.decide(0, "tbuddy.alloc", 0, t)[0] for t in range(100)]
        db = [b.decide(0, "tbuddy.alloc", 0, t)[0] for t in range(100)]
        assert da != db

    def test_every_after_max_schedule(self):
        inj = make_injector("site=tbuddy.split,every=3,after=2,max=2")
        fired = [occ for occ in range(12)
                 if inj.decide(0, "tbuddy.split", 0, occ)[0] == "fail"]
        # skip occurrences 0-1, then every 3rd matching one, capped at 2
        assert fired == [2, 5]
        assert inj.n_injected == 2

    def test_detail_filter(self):
        inj = make_injector("site=tbuddy.alloc,detail=4")
        outcomes = [inj.decide(0, "tbuddy.alloc", d, 0)[0]
                    for d in (0, 4, 6, 4)]
        assert outcomes == [None, "fail", None, "fail"]

    def test_unplanned_site_never_fires(self):
        inj = make_injector("site=tbuddy.alloc")
        assert inj.decide(0, "spinlock.hold", 0, 0) == (None, 0)
        assert inj.n_injected == 0
        # the probe still counts: placements enumerate these occurrences
        assert inj.occurrences == {"spinlock.hold": 1}

    def test_stall_returns_delay_not_fail(self):
        inj = make_injector("site=spinlock.hold,cycles=777")
        assert inj.decide(0, "spinlock.hold", 0, 0) == (None, 777)
        assert inj.counts_by_kind == {"stall": 1}

    def test_first_matching_rule_wins(self):
        inj = make_injector(
            "site=tbuddy.lock,detail=1,cycles=100;site=tbuddy.lock,cycles=900"
        )
        assert inj.decide(0, "tbuddy.lock", 1, 0) == (None, 100)
        assert inj.decide(0, "tbuddy.lock", 2, 0) == (None, 900)
        assert inj.occurrences == {"tbuddy.lock": 2}

    def test_trace_records_virtual_time_and_tid(self):
        inj = make_injector("site=ualloc.new_chunk")
        inj.decide(7, "ualloc.new_chunk", 3, 4242)
        assert inj.trace_lines() == [
            "#0 t=4242 tid=7 ualloc.new_chunk[3] -> renege(0)"
        ]


class TestSchedulerDispatch:
    """OP_FAULT through the real scheduler: outcomes and charged delay."""

    def _run_probe(self, site, detail, injector):
        mem = DeviceMemory(1 << 12)
        seen = []

        def kernel(ctx):
            seen.append((yield ops.fault_point(site, detail)))

        s = Scheduler(mem, seed=1, fault_injector=injector)
        s.launch(kernel, 1, 1)
        report = s.run()
        return seen[0], report.cycles

    def test_fail_outcome_reaches_device_code(self):
        outcome, _ = self._run_probe(
            "tbuddy.alloc", 3, make_injector("site=tbuddy.alloc"))
        assert outcome == "fail"

    def test_stall_outcome_is_none_and_charges_cycles(self):
        stall = 7777
        outcome, cycles = self._run_probe(
            "spinlock.hold", 0,
            make_injector(f"site=spinlock.hold,cycles={stall}"))
        clean_outcome, clean_cycles = self._run_probe("spinlock.hold", 0, None)
        assert outcome is None and clean_outcome is None
        assert cycles - clean_cycles >= stall

    def test_no_injector_is_a_noop(self):
        outcome, _ = self._run_probe("tbuddy.split", 0, None)
        assert outcome is None


# ----------------------------------------------------------------------
# S3: instrumented failure arms against the real allocator
# ----------------------------------------------------------------------
def make_alloc(pool_order: int = 6):
    device = GPUDevice(num_sms=1)
    cfg = AllocatorConfig(pool_order=pool_order)
    mem = DeviceMemory((4096 << pool_order) * 2 + (8 << 20))
    return mem, device, ThroughputAllocator(mem, device, cfg)


def run_kernel(mem, device, kernel, injector, nthreads=4, seed=9):
    s = Scheduler(mem, device, seed=seed, fault_injector=injector)
    s.launch(kernel, 1, nthreads)
    s.run(max_events=20_000_000)


def assert_recovered(alloc):
    """Post-fault recovery: sound heap, settled ledgers, full supply."""
    alloc.ualloc.host_gc()
    alloc.host_check()
    assert alloc.tbuddy.host_free_bytes() == alloc.cfg.pool_size
    gauge = alloc.host_pressure()
    assert gauge.free_bytes == alloc.cfg.pool_size
    assert gauge.pressure == 0.0


class TestFailureArms:
    def test_split_arm_reneges(self):
        """tbuddy.split firing after the order-sem promise must renege:
        every allocation that needs the split ascent fails, and the
        ledgers still settle to E == R == 0 with nothing lost."""
        mem, device, alloc = make_alloc()
        inj = make_injector("site=tbuddy.split", seed=3)
        got = []

        def kernel(ctx):
            p = yield from alloc.tbuddy.alloc(ctx, 0)  # forces a split chain
            got.append(p)

        run_kernel(mem, device, kernel, inj)
        assert got and all(p == NULL for p in got)
        assert inj.counts_by_kind.get("renege", 0) >= 1
        assert_recovered(alloc)

    def test_new_chunk_arm_reneges(self):
        """ualloc.new_chunk firing after the bin-sem batch promise must
        renege(n_regular_bins - 1): small mallocs fail cleanly."""
        mem, device, alloc = make_alloc()
        inj = make_injector("site=ualloc.new_chunk", seed=3)
        got = []

        def kernel(ctx):
            p = yield from alloc.malloc(ctx, 64)
            got.append(p)

        run_kernel(mem, device, kernel, inj)
        assert got and all(p == NULL for p in got)
        assert {ev.site for ev in inj.events} == {"ualloc.new_chunk"}
        assert alloc.stats.n_exhaustion == len(got)
        assert_recovered(alloc)

    def test_null_alloc_at_controlled_depth(self):
        """tbuddy.alloc with detail= targets one order: chunk-order
        requests (UAlloc's supply line) fail while a direct coarse
        allocation at another order still succeeds."""
        mem, device, alloc = make_alloc(pool_order=8)
        chunk_order = alloc.cfg.chunk_order
        inj = make_injector(f"site=tbuddy.alloc,detail={chunk_order}", seed=3)
        got = {}

        # Warm the pool host-side (no probes fire host-side): the split
        # chain seeds one free buddy at every order below the top, so
        # the faulted run's order-0 request need not ascend through the
        # faulted chunk order.
        warm = drive(mem, alloc.malloc(host_ctx(), 4096))
        assert warm != NULL

        def kernel(ctx):
            # routed through UAlloc -> needs a chunk at chunk_order -> NULL
            got["small"] = yield from alloc.malloc(ctx, 64)
            # direct TBuddy allocation at another order -> unaffected
            got["coarse"] = yield from alloc.malloc(ctx, 4096)
            if got["coarse"] != NULL:
                yield from alloc.free(ctx, got["coarse"])

        run_kernel(mem, device, kernel, inj, nthreads=1)
        assert got["small"] == NULL
        assert got["coarse"] != NULL
        assert inj.n_injected >= 1
        assert all(ev.detail == chunk_order for ev in inj.events)
        drive(mem, alloc.free(host_ctx(), warm))
        assert_recovered(alloc)

    def test_malloc_robust_rides_out_transient_faults(self):
        """A bounded fault burst (max=) is exactly the transient the
        robust wrapper exists for: the retry succeeds, and the stats
        classify the recovered attempts as transient."""
        mem, device, alloc = make_alloc()
        # TBuddy's own triage retries 3 times (4 attempts per malloc),
        # so a 4-fault budget fails exactly the first malloc attempt and
        # lets the robust wrapper's first retry through.
        inj = make_injector("site=tbuddy.alloc,max=4", seed=3)
        got = []

        def kernel(ctx):
            p = yield from alloc.malloc_robust(ctx, 4096)
            got.append(p)
            if p != NULL:
                yield from alloc.free(ctx, p)

        run_kernel(mem, device, kernel, inj, nthreads=1)
        assert got == [p for p in got if p != NULL]  # no NULLs surfaced
        assert inj.n_injected == 4
        assert alloc.stats.n_robust_retries == 1
        assert alloc.stats.n_transient == 1
        assert alloc.stats.n_exhaustion == 1  # the failed first attempt
        assert_recovered(alloc)

    def test_lock_stalls_delay_but_preserve_correctness(self):
        """Stall kinds only cost time: a storm with lock holders stalled
        mid-transition still produces a sound, fully-recovered heap."""
        mem, device, alloc = make_alloc()
        inj = make_injector(
            "site=tbuddy.lock,p=0.2,cycles=4000;"
            "site=spinlock.hold,p=0.2,cycles=4000", seed=5)
        got = []

        def kernel(ctx):
            for size in (64, 4096):
                p = yield from alloc.malloc(ctx, size)
                if p != NULL:
                    yield from alloc.free(ctx, p)
                got.append(p)

        run_kernel(mem, device, kernel, inj, nthreads=8)
        assert len(got) == 16
        assert inj.counts_by_kind.get("stall", 0) >= 1
        assert_recovered(alloc)

"""Run-loop parity: the fast loop against the traced loop.

The contract under test: for any kernel, seed and knob setting, a
``Scheduler`` with no tracer (``_run_fast``) and one with a
:class:`~repro.sim.trace.Tracer` attached (``_run_traced``) produce the
*identical virtual run* — same cycles, same event count, same op
counts, same memory effects, same per-thread results, same schedule
digests at every probe, and the same errors at the same budgets.  Wall
time is the only permitted difference.  Benches time the fast loop while
verify and explore run the traced one (the race checker is a tracer),
so these microkernels are what ties their findings together; each one
fails fast and points at the divergent primitive.
"""

from __future__ import annotations

import pytest

from repro.sim import DeviceMemory, Scheduler, ops
from repro.sim.errors import EventBudgetExceeded
from repro.sim.trace import Tracer

WORDS = 4  # contended-word count for the atomics microkernels

#: the two loops, keyed by the tracer that selects them
LOOPS = {"fast": lambda: None, "traced": Tracer}


def _run_pair(build, *, seed=0, probe=False, **sched_kw):
    """Run the same build on both loops; return the two outcomes.

    ``build(scheduler, memory)`` launches kernels and returns a
    function extracting the kernel-visible effects (results, memory
    words) after the run.  The outcome tuple is everything the parity
    contract pins: report fields, effects, and (optionally) the digest
    stream from the schedule probe.
    """
    outcomes = []
    for make_tracer in LOOPS.values():
        mem = DeviceMemory(1 << 16)
        digests: list = []
        kw = dict(sched_kw)
        if probe:
            kw["schedule_probe"] = digests.append
            kw["probe_every"] = 64
        s = Scheduler(mem, seed=seed, tracer=make_tracer(), **kw)
        extract = build(s, mem)
        report = s.run()
        outcomes.append((
            report.cycles, report.events, report.n_threads,
            dict(report.op_counts), extract(), tuple(digests),
        ))
    return outcomes


def _assert_parity(build, probe=False, **kw):
    fast, traced = _run_pair(build, probe=probe, **kw)
    assert traced == fast
    if probe:
        assert fast[-1], "the probe never fired; the digest check is void"


class TestMicrokernelParity:
    def test_contended_atomics(self):
        def build(s, mem):
            base = mem.host_alloc(8 * WORDS)

            def kernel(ctx):
                for i in range(6):
                    yield ops.atomic_add(base + 8 * ((ctx.tid + i) % WORDS), 1)
                v = yield ops.load(base)
                return v

            h = s.launch(kernel, 2, 64)
            return lambda: (h.results,
                            [mem.load_word(base + 8 * i) for i in range(WORDS)])

        _assert_parity(build, probe=True)

    def test_mixed_atomic_flavours(self):
        def build(s, mem):
            word = mem.host_alloc(8)

            def kernel(ctx):
                yield ops.atomic_max(word, ctx.tid)
                yield ops.atomic_xor(word, ctx.tid * 3)
                old = yield ops.atomic_cas(word, ctx.tid, 7)
                return old

            h = s.launch(kernel, 1, 32)
            return lambda: (h.results, mem.load_word(word))

        _assert_parity(build)

    def test_barriers_with_phases(self):
        def build(s, mem):
            cell = mem.host_alloc(8)

            def kernel(ctx):
                yield ops.atomic_add(cell, 1)
                yield ops.syncthreads()
                v = yield ops.load(cell)   # all increments visible
                yield ops.sleep(1 + ctx.tid % 5)
                yield ops.syncthreads()
                return v

            h = s.launch(kernel, 2, 32)
            return lambda: h.results

        _assert_parity(build, probe=True)

    def test_warp_primitives(self):
        def build(s, mem):
            def kernel(ctx):
                yield ops.sleep(ctx.lane % 7)
                yield ops.warp_converge()
                mask = frozenset(range(32))
                got = yield ops.warp_broadcast(mask, ctx.lane
                                               if ctx.lane == 0
                                               else ops.NO_PAYLOAD)
                peers = yield ops.warp_match(ctx.lane % 2)
                yield ops.warp_sync(mask)
                return (got, len(peers))

            h = s.launch(kernel, 1, 64)
            return lambda: h.results

        _assert_parity(build)

    def test_sleep_yield_skew(self):
        def build(s, mem):
            def kernel(ctx):
                total = 0
                for i in range(4):
                    yield ops.sleep((ctx.tid * 13 + i) % 9)
                    yield ops.cpu_yield()
                    total += i
                return total

            h = s.launch(kernel, 3, 32)
            return lambda: h.results

        _assert_parity(build, probe=True)

    def test_dispatch_jitter_and_steer(self):
        def build(s, mem):
            word = mem.host_alloc(8)

            def kernel(ctx):
                yield ops.atomic_add(word, 1)
                yield ops.sleep(2)
                yield ops.atomic_add(word, 1)

            s.launch(kernel, 4, 32)
            return lambda: mem.load_word(word)

        _assert_parity(build, seed=7, dispatch_jitter=16, steer=3)

    def test_multi_launch_reuse(self):
        # A reused scheduler: virtual time keeps advancing and the
        # second run must pick up exactly where the first left off.
        def run(make_tracer):
            mem = DeviceMemory(1 << 16)
            word = mem.host_alloc(8)

            def kernel(ctx):
                yield ops.atomic_add(word, 1)
                yield ops.sleep(ctx.tid % 3)

            s = Scheduler(mem, seed=1, tracer=make_tracer())
            s.launch(kernel, 1, 32)
            r1 = s.run()
            t_mid = s.now
            s.launch(kernel, 1, 32)
            r2 = s.run()
            return (r1.cycles, r1.events, t_mid, r2.cycles, r2.events,
                    s.now, mem.load_word(word))

        fast = run(LOOPS["fast"])
        assert run(LOOPS["traced"]) == fast
        assert fast[-1] == 64


class TestBudgetParity:
    def _build(self, s, mem):
        word = mem.host_alloc(8)

        def kernel(ctx):
            for _ in range(8):
                yield ops.atomic_add(word, 1)

        s.launch(kernel, 2, 32)
        return word

    def _events_needed(self, make_tracer):
        mem = DeviceMemory(1 << 16)
        s = Scheduler(mem, tracer=make_tracer())
        self._build(s, mem)
        return s.run().events

    def test_budget_trips_at_the_same_event_count(self):
        needed = self._events_needed(LOOPS["fast"])
        assert needed == self._events_needed(LOOPS["traced"])
        for make_tracer in LOOPS.values():
            mem = DeviceMemory(1 << 16)
            s = Scheduler(mem, tracer=make_tracer())
            self._build(s, mem)
            with pytest.raises(EventBudgetExceeded):
                s.run(max_events=needed - 1)

    def test_exact_budget_completes_on_both(self):
        needed = self._events_needed(LOOPS["fast"])
        for make_tracer in LOOPS.values():
            mem = DeviceMemory(1 << 16)
            s = Scheduler(mem, tracer=make_tracer())
            word = self._build(s, mem)
            r = s.run(max_events=needed)
            assert r.events == needed
            assert mem.load_word(word) == 8 * 64

    def test_post_trip_state_matches_across_loops(self):
        # A budget trip abandons the run (EventBudgetExceeded is a
        # DeadlockError: the guard fired, the schedule is suspect) — the
        # contract is not resumability but *sameness*: both loops must
        # leave the identical abstract wreckage behind, so diagnostics
        # built on the tripped scheduler read the same either way.
        wreckage = []
        for make_tracer in LOOPS.values():
            mem = DeviceMemory(1 << 16)
            s = Scheduler(mem, tracer=make_tracer())
            word = self._build(s, mem)
            with pytest.raises(EventBudgetExceeded) as ei:
                s.run(max_events=40)
            wreckage.append((str(ei.value), s.live_threads, s.now,
                             s.state_digest(), mem.load_word(word)))
        assert wreckage[0] == wreckage[1]

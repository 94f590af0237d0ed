"""Run-loop parity: the one run loop under every tracer binding.

The contract under test: for any kernel, seed and knob setting, a
``Scheduler`` with no tracer (every hook unbound) and one with a
:class:`~repro.sim.trace.Tracer` attached produce the *identical virtual
run* — same cycles, same event count, same op counts, same memory
effects, same per-thread results, same schedule digests at every probe,
and the same errors at the same budgets.  Wall time is the only
permitted difference.  Benches run with every hook unbound while verify
and explore run with the race checker bound (it is a tracer), so these
microkernels are what ties their findings together; each one fails fast
and points at the divergent primitive.

``Scheduler.run`` binds the tracer's hooks once per run and skips the
ones left as ``None``, so every binding it can take runs here: no
tracer (``"fast"``: every hook ``None``), a plain tracer with and
without a timeline (``op_executed`` called or replaced by a local
running max) and the race checker (``mem_op`` bound, ``atomic_issued``
skipped).
"""

from __future__ import annotations

import pytest

from repro.sim import DeviceMemory, Scheduler, ops
from repro.sim.errors import EventBudgetExceeded
from repro.sim.trace import Tracer
from repro.sync import BulkSemaphore, SpinLock
from repro.verify.race import RaceChecker

WORDS = 4  # contended-word count for the atomics microkernels

#: the hook bindings, keyed by the tracer that selects them; "fast" is
#: the unbound binding (no tracer, every hook ``None``) and the reference
#: every other outcome must equal
LOOPS = {
    "fast": lambda: None,
    "traced": Tracer,
    "traced-no-timeline": lambda: Tracer(timeline=False),
    "race-checker": RaceChecker,
}

#: the memory opcodes: every one executes at its own heap event
MEM_OPS = range(ops.OP_LOAD, ops.OP_MIN + 1)


def _run_all(build, *, seed=0, probe=False, **sched_kw):
    """Run the same build under every entry of :data:`LOOPS`; return the
    outcomes in that order.

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
    fast, *traced = _run_all(build, probe=probe, **kw)
    for name, outcome in zip(list(LOOPS)[1:], traced):
        assert outcome == fast, name
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
        for name, make_tracer in LOOPS.items():
            assert run(make_tracer) == fast, name
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
        for make_tracer in LOOPS.values():
            assert self._events_needed(make_tracer) == needed
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
        # contract is not resumability but *sameness*: every binding must
        # leave the identical abstract wreckage behind, so diagnostics
        # built on the tripped scheduler read the same whichever tracer
        # was attached.
        wreckage = []
        for make_tracer in LOOPS.values():
            mem = DeviceMemory(1 << 16)
            s = Scheduler(mem, tracer=make_tracer())
            word = self._build(s, mem)
            with pytest.raises(EventBudgetExceeded) as ei:
                s.run(max_events=40)
            wreckage.append((str(ei.value), s.live_threads, s.now,
                             s.state_digest(), mem.load_word(word)))
        assert wreckage == [wreckage[0]] * len(LOOPS)


def _mixed_kernel(mem, lock, sem, cell):
    """Spinlock spans, bulk-semaphore waits, a barrier and every memory
    op flavour: enough to fill each tracer aggregate."""
    def kernel(ctx):
        r = yield from sem.wait(ctx, 1, 8)
        if r == -1:
            yield from sem.fulfill(ctx, 7)
        yield from lock.lock(ctx)
        v = yield ops.load(cell)
        yield ops.store(cell, v + 1)
        yield from lock.unlock(ctx)
        yield ops.sleep(ctx.tid % 5)
        yield ops.syncthreads()
        yield ops.atomic_max(cell + 8, ctx.tid)
        yield ops.atomic_cas(cell + 16, 0, ctx.tid)
        yield ops.cpu_yield()
        return v

    return kernel


class TestTracerAggregates:
    """The timeline is drawing only: switching it off skips
    ``op_executed`` but must leave every aggregate the tracer reports
    exactly as it was, across runs and after a budget trip."""

    def _observe(self, tracer):
        for label, budget in (("first", None), ("tripped", 150),
                              ("after-trip", None)):
            mem = DeviceMemory(1 << 16)
            lock = SpinLock(mem)
            sem = BulkSemaphore(mem)
            cell = mem.host_alloc(24)
            tracer.begin_run(label)
            s = Scheduler(mem, seed=5, tracer=tracer)
            s.launch(_mixed_kernel(mem, lock, sem, cell), 2, 32)
            if budget is None:
                s.run()
            else:
                with pytest.raises(EventBudgetExceeded):
                    s.run(max_events=budget)

        def hist(h):
            return (dict(h.buckets), h.n, h.total, h.max)

        return {
            "word_stats": tracer.word_stats,
            "sm_occupancy": tracer.sm_occupancy,
            "op_counts": tracer.op_counts,
            "sem_wait": hist(tracer.sem_wait),
            "sem_outcomes": tracer.sem_outcomes,
            "lock_wait": hist(tracer.lock_wait),
            "lock_hold": hist(tracer.lock_hold),
            "collective_width": hist(tracer.collective_width),
            "rcu": (tracer.rcu_grace, tracer.rcu_full, tracer.rcu_delegated),
            "runs": [(r["label"], r["t0"], r["t1"]) for r in tracer.runs],
        }

    def test_timeline_on_and_off_report_identical_aggregates(self):
        on = self._observe(Tracer())
        off = self._observe(Tracer(timeline=False))
        for key in on:
            assert off[key] == on[key], key
        # the comparison has teeth: every aggregate saw traffic, the
        # second run tripped (no t1), and the third run's offset picks
        # up where the tripped run's last op completed
        assert on["word_stats"] and on["sm_occupancy"]
        assert on["lock_hold"][1] and on["sem_wait"][1]
        (_, t0a, t1a), (_, t0b, t1b), (_, t0c, t1c) = on["runs"]
        assert t0a == 0 < t1a == t0b < t0c < t1c
        assert t1b is None


class TestMemOpHook:
    def test_fires_exactly_once_per_executed_memory_op(self):
        class Recorder(Tracer):
            def __init__(self):
                super().__init__(timeline=False)
                self.seen = {}

            def mem_op(self, th, op, t, result):
                self.seen.setdefault(th.tid, []).append((op, result))

        mem = DeviceMemory(1 << 16)
        lock = SpinLock(mem)
        sem = BulkSemaphore(mem)
        cell = mem.host_alloc(24)
        issued = {}

        def kernel(ctx):
            # forward the mixed kernel's ops, recording each memory op
            # with the result the thread received for it
            gen = _mixed_kernel(mem, lock, sem, cell)(ctx)
            mine = issued.setdefault(ctx.tid, [])
            res = None
            try:
                while True:
                    op = gen.send(res)
                    res = yield op
                    if op[0] in MEM_OPS:
                        mine.append((op, res))
            except StopIteration as stop:
                return stop.value

        rec = Recorder()
        s = Scheduler(mem, seed=5, tracer=rec)
        s.launch(kernel, 2, 32)
        report = s.run()
        assert rec.seen == issued
        executed = sum(n for code, n in report.op_counts.items()
                       if code in MEM_OPS)
        assert sum(map(len, rec.seen.values())) == executed > 0

"""Determinism pins: tracer parity, ranking tie-breaks, RNG ownership.

These are the regression tests for the scheduler's one run loop and
the replay contract: attaching a tracer (binding the loop's hooks) must
not change what the simulator computes, derived rankings must not leak dict-insertion order, and
every schedule-relevant random draw must come from the owned,
explicitly seeded per-thread RNG.
"""

from __future__ import annotations

import random

from repro.sim import ops
from repro.sim.device import ThreadCtx, rng_randbelow
from repro.sim.scheduler import Scheduler, SimReport
from repro.sim.trace import Tracer
from repro.sync.spinlock import SpinLock


def _contended_kernel(lock: SpinLock, counter: int, iters: int):
    def kernel(ctx: ThreadCtx):
        for _ in range(iters):
            yield from lock.lock(ctx)
            v = yield ops.load(counter)
            yield ops.store(counter, v + 1)
            yield from lock.unlock(ctx)
            yield ops.sleep(rng_randbelow(ctx.rng)(32))
    return kernel


class TestTracerParity:
    def test_traced_run_matches_fast_path(self, mem, device):
        """The run loop with every hook unbound (no tracer, the "fast"
        binding) and with a tracer's hooks bound must produce the same
        virtual outcome — cycles, events, op counts, memory."""
        reports = []
        finals = []
        for tracer in (None, Tracer()):
            m = type(mem)(1 << 20)
            lock = SpinLock(m)
            counter = m.host_alloc(8)
            m.store_word(counter, 0)
            sched = Scheduler(m, device, seed=42, tracer=tracer)
            sched.launch(_contended_kernel(lock, counter, 3), grid=2, block=32)
            reports.append(sched.run(max_events=5_000_000))
            finals.append(m.load_word(counter))
        fast, traced = reports
        assert fast.cycles == traced.cycles
        assert fast.events == traced.events
        assert fast.n_threads == traced.n_threads
        assert fast.op_counts == traced.op_counts
        assert finals[0] == finals[1] == 2 * 32 * 3

    def test_digest_probe_parity_fast_vs_traced(self, mem, device):
        """The schedule digest stream must be byte-identical with and
        without a tracer — the explorer's coverage hashes are only
        meaningful if they name the schedule, not the tracer that
        watched it.  (``state_digest`` folds commutatively, so it reads
        the pending-event multiset, not how the queue happens to hold
        it.)"""
        streams = []
        for tracer in (None, Tracer()):
            m = type(mem)(1 << 20)
            lock = SpinLock(m)
            counter = m.host_alloc(8)
            m.store_word(counter, 0)
            digests = []
            sched = Scheduler(m, device, seed=42, tracer=tracer,
                              schedule_probe=digests.append,
                              probe_every=64)
            sched.launch(_contended_kernel(lock, counter, 3),
                         grid=2, block=32)
            sched.run(max_events=5_000_000)
            streams.append(digests)
        fast, traced = streams
        assert fast, "probe never fired"
        assert fast == traced

    def test_probe_does_not_change_the_schedule(self, mem, device):
        """Attaching a digest probe is observation only: the virtual
        outcome must match an unprobed run exactly."""
        reports = []
        for probe in (None, lambda d: None):
            m = type(mem)(1 << 20)
            lock = SpinLock(m)
            counter = m.host_alloc(8)
            m.store_word(counter, 0)
            sched = Scheduler(m, device, seed=42, schedule_probe=probe,
                              probe_every=64)
            sched.launch(_contended_kernel(lock, counter, 3),
                         grid=2, block=32)
            reports.append(sched.run(max_events=5_000_000))
        assert reports[0].cycles == reports[1].cycles
        assert reports[0].events == reports[1].events
        assert reports[0].op_counts == reports[1].op_counts

    def test_steer_zero_is_the_historical_schedule(self, mem, device):
        """``steer=0`` (the default) must not change anything: every
        replay string minted before the knob existed still names the
        same schedule."""
        reports = []
        for kwargs in ({}, {"steer": 0}):
            m = type(mem)(1 << 20)
            lock = SpinLock(m)
            counter = m.host_alloc(8)
            m.store_word(counter, 0)
            sched = Scheduler(m, device, seed=42, **kwargs)
            sched.launch(_contended_kernel(lock, counter, 3),
                         grid=2, block=32)
            reports.append(sched.run(max_events=5_000_000))
        assert reports[0].cycles == reports[1].cycles
        assert reports[0].events == reports[1].events

    def test_steer_salts_are_deterministic_and_distinct(self, mem, device):
        """The same salt replays the same schedule; different salts give
        the scheduler different dispatch phasings (that is the whole
        point of minting fresh ones)."""
        def run_with(steer):
            m = type(mem)(1 << 20)
            lock = SpinLock(m)
            counter = m.host_alloc(8)
            m.store_word(counter, 0)
            sched = Scheduler(m, device, seed=42, steer=steer)
            sched.launch(_contended_kernel(lock, counter, 3),
                         grid=2, block=32)
            r = sched.run(max_events=5_000_000)
            return (r.cycles, r.events)
        assert run_with(1) == run_with(1)
        assert run_with(1) != run_with(0)
        assert run_with(1) != run_with(2)

    def test_tracer_actually_recorded(self, mem, device):
        tracer = Tracer()
        lock = SpinLock(mem)
        counter = mem.host_alloc(8)
        mem.store_word(counter, 0)
        sched = Scheduler(mem, device, seed=7, tracer=tracer)
        sched.launch(_contended_kernel(lock, counter, 2), grid=1, block=32)
        report = sched.run(max_events=5_000_000)
        # parity must not come from the tracer silently being a no-op
        assert tracer.events
        assert tracer.named_op_counts == report.named_op_counts


class TestRankingTieBreaks:
    def test_named_op_counts_breaks_ties_on_name(self):
        report = SimReport(
            cycles=0, events=0, n_threads=0,
            # insertion order deliberately scrambled; store/load tie at 5
            op_counts={ops.OP_STORE: 5, ops.OP_ADD: 7, ops.OP_LOAD: 5},
        )
        assert list(report.named_op_counts) == ["atomic_add", "load", "store"]

    def test_top_stall_words_breaks_ties_on_address(self):
        tracer = Tracer()
        # first-touch order deliberately descending; 10 and 2 tie at a
        # stall of 3 (op counts differ, and must not break the tie)
        tracer.word_stats = {10: [1, 3], 7: [2, 5], 2: [9, 3]}
        assert tracer.top_stall_words() == [
            (7 << 3, 2, 5), (2 << 3, 9, 3), (10 << 3, 1, 3)]


class TestRngOwnership:
    def test_default_thread_ctx_rng_is_seeded(self):
        """A ThreadCtx built without an explicit rng must draw a
        deterministic stream, not OS entropy (the replay guarantee)."""
        draws = []
        for _ in range(2):
            ctx = ThreadCtx(tid=0, block=0, tid_in_block=0, lane=0,
                            warp=0, sm=0, nthreads=1, block_dim=1)
            draws.append([ctx.rng.randrange(1000) for _ in range(16)])
        assert draws[0] == draws[1]

    def test_rng_randbelow_matches_randrange(self):
        """``rng_randbelow`` must consume the identical draw stream as
        ``randrange`` — it is an inlining, not an algorithm change."""
        a, b = random.Random(1234), random.Random(1234)
        fast = rng_randbelow(a)
        bounds = [1, 2, 3, 7, 64, 1000, 1 << 20]
        assert [fast(n) for n in bounds * 8] == \
               [b.randrange(n) for n in bounds * 8]
        # and both RNGs end in the same state
        assert a.getstate() == b.getstate()

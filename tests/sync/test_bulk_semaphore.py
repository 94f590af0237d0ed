"""Bulk semaphore: packing, Algorithm 1/2 semantics, two-stage
conservation, renege recovery, try_wait exactness — including
hypothesis property tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import DeviceMemory, Scheduler, ops
from repro.sim.hostrun import drive, host_ctx
from repro.sync import BulkSemaphore, BulkSemaphoreOverflow, pack, unpack
from repro.sync.bulk_semaphore import C_GUARD, E_MAX, R_MAX


class TestPacking:
    @given(
        c=st.integers(0, C_GUARD - 1),
        e=st.integers(0, E_MAX),
        r=st.integers(0, R_MAX),
    )
    def test_roundtrip(self, c, e, r):
        assert unpack(pack(c, e, r)) == (c, e, r)

    def test_out_of_range_raises(self):
        with pytest.raises(BulkSemaphoreOverflow):
            pack(C_GUARD, 0, 0)
        with pytest.raises(BulkSemaphoreOverflow):
            pack(0, E_MAX + 1, 0)
        with pytest.raises(BulkSemaphoreOverflow):
            pack(0, 0, -1)

    @given(st.integers(0, (1 << 64) - 1))
    def test_unpack_total_function(self, word):
        c, e, r = unpack(word)
        assert 0 <= c and 0 <= e <= E_MAX and 0 <= r <= R_MAX


class TestSequentialSemantics:
    """Algorithm 1 & 2 run through the host driver (single thread)."""

    def _sem(self, initial=0):
        mem = DeviceMemory(1 << 12)
        return mem, BulkSemaphore(mem, initial=initial)

    def test_wait_takes_available_units(self):
        mem, sem = self._sem(initial=5)
        assert drive(mem, sem.wait(host_ctx(), 2, 4)) == 0
        assert sem.counters == (3, 0, 0)

    def test_wait_promises_batch_when_empty(self):
        mem, sem = self._sem()
        assert drive(mem, sem.wait(host_ctx(), 1, 4)) == -1
        assert sem.counters == (0, 3, 0)

    def test_fulfill_publishes_promised_units(self):
        mem, sem = self._sem()
        drive(mem, sem.wait(host_ctx(), 1, 4))
        drive(mem, sem.fulfill(host_ctx(), 3))
        assert sem.counters == (3, 0, 0)

    def test_renege_withdraws_promise(self):
        mem, sem = self._sem()
        drive(mem, sem.wait(host_ctx(), 1, 4))
        drive(mem, sem.renege(host_ctx(), 3))
        assert sem.counters == (0, 0, 0)

    def test_post_adds_units(self):
        mem, sem = self._sem()
        drive(mem, sem.post(host_ctx(), 7))
        assert sem.value == 7

    def test_signal_general_form(self):
        mem, sem = self._sem()
        drive(mem, sem.wait(host_ctx(), 1, 3))  # E = 2
        drive(mem, sem.signal(host_ctx(), 5, 2))  # C += 7, E -= 2
        assert sem.counters == (7, 0, 0)

    def test_try_wait(self):
        mem, sem = self._sem(initial=2)
        assert drive(mem, sem.try_wait(host_ctx(), 2)) is True
        assert drive(mem, sem.try_wait(host_ctx(), 1)) is False
        assert sem.counters == (0, 0, 0)

    def test_wait_validates_arguments(self):
        mem, sem = self._sem()
        with pytest.raises(ValueError):
            drive(mem, sem.wait(host_ctx(), 0, 4))
        with pytest.raises(ValueError):
            drive(mem, sem.wait(host_ctx(), 5, 4))

    def test_wait_equal_batch_always_promises_when_empty(self):
        # b == n: every uncovered thread is its own batch allocator
        mem, sem = self._sem()
        assert drive(mem, sem.wait(host_ctx(), 2, 2)) == -1
        assert sem.counters == (0, 0, 0)

    @given(initial=st.integers(1, 100), n=st.integers(1, 10))
    @settings(max_examples=30, deadline=None)
    def test_wait_never_overdraws(self, initial, n):
        mem, sem = self._sem(initial=initial)
        r = drive(mem, sem.wait(host_ctx(), n, max(n, 10)))
        c, e, _ = sem.counters
        if r == 0:
            assert c == initial - n
        else:
            assert c == initial  # promised instead


class TestConcurrentConservation:
    @pytest.mark.parametrize("batch,n_threads", [(4, 64), (8, 256), (32, 512)])
    def test_units_conserved(self, batch, n_threads):
        mem = DeviceMemory(1 << 16)
        sem = BulkSemaphore(mem)
        produced = mem.host_alloc(8)

        def kernel(ctx):
            r = yield from sem.wait(ctx, 1, batch)
            if r == -1:
                yield ops.sleep(200)
                yield ops.atomic_add(produced, batch)
                yield from sem.fulfill(ctx, batch - 1)

        s = Scheduler(mem, seed=batch)
        s.launch(kernel, -(-n_threads // 64), 64)
        s.run(max_events=20_000_000)
        c, e, r = sem.counters
        assert e == 0 and r == 0
        assert mem.load_word(produced) - n_threads == c

    def test_exact_batch_admission(self):
        """Exactly ceil(N / (b-1)) batches for N units of cold demand."""
        mem = DeviceMemory(1 << 16)
        sem = BulkSemaphore(mem)
        refills = mem.host_alloc(8)

        def kernel(ctx):
            r = yield from sem.wait(ctx, 1, 128)
            if r == -1:
                yield ops.atomic_add(refills, 1)
                yield from sem.fulfill(ctx, 127)

        s = Scheduler(mem, seed=1)
        s.launch(kernel, 8, 128)  # 1024 threads
        s.run(max_events=20_000_000)
        ideal = -(-1024 // 128)  # one batch serves b demands
        # modest over-provisioning is allowed (depth collisions), gross
        # over-promising is a regression
        assert ideal <= mem.load_word(refills) <= ideal + 4

    def test_renege_recovers_waiters(self):
        """A failed batch allocation must not strand reserved waiters."""
        mem = DeviceMemory(1 << 16)
        sem = BulkSemaphore(mem)
        outcomes = []

        def kernel(ctx):
            r = yield from sem.wait(ctx, 1, 8)
            if r == -1:
                if ctx.tid % 2 == 0:
                    yield ops.sleep(500)
                    yield from sem.renege(ctx, 7)  # allocation "failed"
                    outcomes.append("renege")
                else:
                    yield from sem.fulfill(ctx, 7)
                    outcomes.append("fulfill")
            else:
                outcomes.append("got")

        s = Scheduler(mem, seed=5)
        s.launch(kernel, 2, 64)
        s.run(max_events=20_000_000)  # termination is the assertion
        assert len(outcomes) == 128
        c, e, r = sem.counters
        assert e == 0 and r == 0

    def test_renege_collapse_promotes_new_promiser(self):
        """After ``wait(n, b) == -1`` and ``renege(b - n)``, the reserved
        waiters must observe the expectation collapse, re-triage, and
        exactly one must take over as the new designated batch promiser
        (the collapsed batch's demand is still uncovered)."""
        mem = DeviceMemory(1 << 16)
        sem = BulkSemaphore(mem)
        roles = []

        def kernel(ctx):
            if ctx.tid == 0:
                r = yield from sem.wait(ctx, 1, 8)
                assert r == -1  # first on an empty sem: designated
                yield ops.sleep(5_000)  # let every waiter reserve
                yield from sem.renege(ctx, 7)  # allocation "failed"
                roles.append(("renege", ctx.tid))
                return
            yield ops.sleep(100 + ctx.tid)  # reserve after the promise
            r = yield from sem.wait(ctx, 1, 8)
            if r == -1:
                yield from sem.fulfill(ctx, 7)  # the hand-off succeeds
                roles.append(("promiser", ctx.tid))
            else:
                roles.append(("claimed", ctx.tid))

        s = Scheduler(mem, seed=11)
        s.launch(kernel, 1, 6)  # tid 0 + 5 waiters
        s.run(max_events=5_000_000)
        promisers = [t for role, t in roles if role == "promiser"]
        claimed = [t for role, t in roles if role == "claimed"]
        assert len(promisers) == 1, roles  # one waiter took over the batch
        assert promisers[0] != 0  # ... and it was a re-triaged waiter
        assert len(claimed) == 4  # the rest were covered by its batch
        c, e, r = sem.counters
        assert (c, e, r) == (3, 0, 0)  # 8 per batch - 5 demands, all settled

    def test_backoff_resets_after_collapse_retriage(self):
        """Regression (post-renege recovery latency): ``wait`` never
        reset its backoff after an expectation-collapse re-triage, so a
        waiter that idled behind a long-dead promise carried a saturated
        (``MAX_BACKOFF``-cycle) sleep into its next covered spin and
        observed fresh supply up to 16k cycles late.

        White-box: drive one covered waiter by hand, saturate its
        backoff against a phantom promise, renege that promise, re-cover
        the waiter with a fresh promise the moment it un-reserves, and
        measure its first post-collapse sleep — which must restart from
        the initial backoff window, not the saturated one.
        """
        from repro.sim.hostrun import _exec
        from repro.sync.bulk_semaphore import R_SHIFT, _MASK64

        mem = DeviceMemory(1 << 12)
        sem = BulkSemaphore(mem)
        # phantom promiser: wait(1, 4) on an empty sem -> -1, E = 3
        assert drive(mem, sem.wait(host_ctx(seed=1), 1, 4)) == -1
        g = sem.wait(host_ctx(seed=3), 1, 4)  # the covered waiter

        unreserve = (-(1 << R_SHIFT)) & _MASK64
        pre_sleeps, post_sleeps = [], []
        collapsed = fulfilled = False
        result = None
        try:
            while True:
                op = g.send(result)
                if op[0] == ops.OP_SLEEP:
                    (post_sleeps if collapsed else pre_sleeps).append(op[1])
                result = _exec(mem, op)
                if not collapsed and len(pre_sleeps) == 15:
                    # backoff is saturated; the phantom's allocation fails
                    drive(mem, sem.renege(host_ctx(seed=1), 3))
                    collapsed = True
                elif collapsed and op[0] == ops.OP_ADD and op[2] == unreserve:
                    # waiter observed the collapse and un-reserved: cover
                    # it again with a fresh phantom promise (no supply
                    # yet, so its next covered spin must sleep)
                    assert drive(mem, sem.wait(host_ctx(seed=2), 1, 4)) == -1
                elif collapsed and len(post_sleeps) == 1 and not fulfilled:
                    # first covered sleep measured: publish the supply so
                    # the waiter's next claim succeeds
                    drive(mem, sem.fulfill(host_ctx(seed=2), 3))
                    fulfilled = True
        except StopIteration as stop:
            assert stop.value == 0  # the waiter claimed a unit
        assert max(pre_sleeps) > 4096, "backoff never saturated pre-collapse"
        # The first covered sleep after the re-triage must come from the
        # initial backoff window (32), not the saturated one (16384).
        assert post_sleeps, "waiter claimed without ever sleeping covered"
        assert post_sleeps[0] < 32, (
            f"first post-collapse sleep was {post_sleeps[0]} cycles: "
            "backoff carried over the collapse re-triage"
        )
        c, e, r = sem.counters
        assert e == 0 and r == 0

    def test_try_wait_concurrent_exactness(self):
        mem = DeviceMemory(1 << 16)
        sem = BulkSemaphore(mem, initial=100)
        wins = mem.host_alloc(8)

        def kernel(ctx):
            got = yield from sem.try_wait(ctx, 1)
            if got:
                yield ops.atomic_add(wins, 1)

        s = Scheduler(mem, seed=2)
        s.launch(kernel, 4, 64)  # 256 threads contend for 100 units
        s.run(max_events=20_000_000)
        assert mem.load_word(wins) == 100
        assert sem.counters == (0, 0, 0)

"""Structured tracing / telemetry: timeline events, aggregates, export."""

import json
from dataclasses import replace

import pytest

from repro.sim import DeviceMemory, GPUDevice, Scheduler, Tracer, ops
from repro.sim.cost_model import DEFAULT_COST_MODEL
from repro.sim.trace import Histogram, active, tracing
from repro.sync import RCU, BulkSemaphore, CollectiveMutex, SpinLock
from repro.verify.race import RaceChecker


class TestHistogram:
    def test_power_of_two_buckets(self):
        h = Histogram()
        for v in (0, 1, 2, 3, 4, 7, 8, 1000):
            h.add(v)
        assert h.n == 8
        assert h.total == 1025
        assert h.max == 1000
        labels = [label for label, _ in h.rows()]
        assert labels == ["0", "1", "2-3", "4-7", "8-15", "512-1023"]
        counts = dict(h.rows())
        assert counts["2-3"] == 2 and counts["4-7"] == 2

    def test_mean_empty(self):
        assert Histogram().mean == 0.0


def _hot_word_kernel_factory(counter):
    def kernel(ctx):
        yield ops.atomic_add(counter, 1)
    return kernel


class TestSchedulerTracing:
    def test_op_timeline_and_counts(self):
        mem = DeviceMemory(1 << 12)
        counter = mem.host_alloc(8)
        tracer = Tracer()
        s = Scheduler(mem, tracer=tracer)
        s.launch(_hot_word_kernel_factory(counter), 2, 32)
        s.run()
        assert tracer.op_counts[ops.OP_ADD] == 64
        assert tracer.named_op_counts == {"atomic_add": 64}
        adds = [e for e in tracer.events
                if e.get("cat") == "op" and e["name"] == "atomic_add"]
        assert len(adds) == 64
        assert all(e["ph"] == "X" and e["dur"] > 0 for e in adds)

    def test_atomic_stall_aggregation_identifies_hot_word(self):
        mem = DeviceMemory(1 << 12)
        counter = mem.host_alloc(8)
        tracer = Tracer()
        s = Scheduler(mem, tracer=tracer)
        s.launch(_hot_word_kernel_factory(counter), 2, 256)
        s.run()
        (addr, n, stall), = tracer.top_stall_words(1)
        assert addr == counter
        assert n == 512
        # 512 atomics on one word must queue: total stall is large
        assert stall > 512

    def test_top_stall_words_rejects_negative_n(self):
        mem = DeviceMemory(1 << 12)
        hot = mem.host_alloc(8)
        cold = mem.host_alloc(8)

        def kernel(ctx):
            yield ops.atomic_add(hot, 1)
            if ctx.tid == 0:
                yield ops.atomic_add(cold, 1)

        tracer = Tracer()
        s = Scheduler(mem, tracer=tracer)
        s.launch(kernel, 1, 4)
        s.run()
        assert len(tracer.top_stall_words(2)) == 2
        # a negative slice bound used to drop the coldest word silently
        with pytest.raises(ValueError, match="n must be"):
            tracer.top_stall_words(-1)
        with pytest.raises(ValueError, match="n must be"):
            tracer.summary(top=-1)
        assert tracer.top_stall_words(0) == []

    def test_barrier_park_unpark_events_balance(self):
        mem = DeviceMemory(1 << 12)
        tracer = Tracer()

        def kernel(ctx):
            yield ops.sleep(ctx.tid_in_block)
            yield ops.syncthreads()

        s = Scheduler(mem, tracer=tracer)
        s.launch(kernel, 1, 64)
        s.run()
        parks = [e for e in tracer.events
                 if e["name"] == "barrier" and e["ph"] == "B"]
        unparks = [e for e in tracer.events
                   if e["name"] == "barrier" and e["ph"] == "E"]
        assert len(parks) == len(unparks) == 64
        # every E lands at or after its thread's B
        by_tid = {}
        for e in tracer.events:
            if e["name"] == "barrier":
                by_tid.setdefault(e["tid"], []).append(e)
        for tid, evs in by_tid.items():
            assert [e["ph"] for e in evs] == ["B", "E"]
            assert evs[0]["ts"] <= evs[1]["ts"]

    def test_sm_occupancy_bounded_and_drains(self, device):
        mem = DeviceMemory(1 << 12)
        tracer = Tracer()

        def kernel(ctx):
            yield ops.sleep(500)

        s = Scheduler(mem, device, tracer=tracer)
        s.launch(kernel, 32, 32)
        s.run()
        assert tracer.sm_occupancy
        for (_, sm), samples in tracer.sm_occupancy.items():
            assert all(0 <= r <= device.max_resident_blocks
                       for _, r in samples)
            assert samples[-1][1] == 0  # all blocks retired
        stats = tracer.occupancy_stats()
        assert stats and all(peak >= 1 for _, _, peak, _, _ in stats)

    def test_multiple_runs_share_monotonic_timeline(self):
        tracer = Tracer()
        for label in ("first", "second"):
            mem = DeviceMemory(1 << 12)
            counter = mem.host_alloc(8)
            tracer.begin_run(label)
            s = Scheduler(mem, tracer=tracer)
            s.launch(_hot_word_kernel_factory(counter), 1, 32)
            s.run()
        assert [r["label"] for r in tracer.runs] == ["first", "second"]
        t0_second = tracer.runs[1]["t0"]
        assert t0_second > 0
        first_op_events = [e["ts"] for e in tracer.events
                           if e.get("cat") == "op" and e["ts"] >= t0_second]
        assert first_op_events  # second run's events live past the offset
        assert tracer.runs[0]["t1"] <= t0_second

    def test_timeline_cap_drops_events_not_aggregates(self):
        mem = DeviceMemory(1 << 12)
        counter = mem.host_alloc(8)
        tracer = Tracer(max_timeline_events=10)
        s = Scheduler(mem, tracer=tracer)
        s.launch(_hot_word_kernel_factory(counter), 2, 64)
        s.run()
        assert len(tracer.events) == 10
        assert tracer.dropped_events > 0
        assert tracer.op_counts[ops.OP_ADD] == 128  # aggregates unaffected

    def test_timeline_disabled_keeps_aggregates(self):
        mem = DeviceMemory(1 << 12)
        counter = mem.host_alloc(8)
        tracer = Tracer(timeline=False)
        s = Scheduler(mem, tracer=tracer)
        s.launch(_hot_word_kernel_factory(counter), 1, 64)
        s.run()
        assert tracer.events == []
        assert tracer.op_counts[ops.OP_ADD] == 64
        assert tracer.top_stall_words(1)

    def test_run_finished_counts_are_deltas_not_cumulative(self):
        mem = DeviceMemory(1 << 12)
        counter = mem.host_alloc(8)
        tracer = Tracer()
        s = Scheduler(mem, tracer=tracer)
        s.launch(_hot_word_kernel_factory(counter), 1, 32)
        s.run()
        s.launch(_hot_word_kernel_factory(counter), 1, 32)
        s.run()  # scheduler op_counts are cumulative; tracer must not double
        assert tracer.op_counts[ops.OP_ADD] == 64


#: a word's atomic service interval long enough that a thread's second
#: atomic on it, issued right after the first completes, finds it busy
_SLOW_WORD = replace(DEFAULT_COST_MODEL, atomic_service=1000)
_NAP = 300


def _clock_kernel(ctx, base, readings):
    """Read ``Tracer.now`` after each kind of resume; each lane uses its
    own word, so the readings follow from the cost model alone."""
    now = ctx.trace.now
    word = base + 8 * ctx.lane
    got = readings[ctx.lane] = {"start": now(ctx)}
    yield ops.load(word)
    got["load"] = now(ctx)
    yield ops.atomic_add(word, 1)
    got["atomic"] = now(ctx)
    yield ops.atomic_add(word, 1)           # the word is still busy
    got["busy_atomic"] = now(ctx)
    yield ops.sleep(_NAP + 100 * ctx.lane)  # lane 0 waits at the barrier
    got["sleep"] = now(ctx)
    yield ops.cpu_yield()
    got["yield"] = now(ctx)
    yield ops.syncthreads()
    got["barrier"] = now(ctx)


class TestTracerNow:
    """``Tracer.now(ctx)`` is the calling thread's virtual time after
    every kind of resume: a memory op's completion, and the event time
    after a sleep, a yield or a barrier release."""

    @pytest.mark.parametrize("make", [
        Tracer, lambda: Tracer(timeline=False), RaceChecker,
    ], ids=["timeline", "no_timeline", "race_checker"])
    def test_now_after_each_resume_kind(self, make):
        cm = _SLOW_WORD
        assert cm.atomic_service > cm.atomic_latency + cm.step_cost
        mem = DeviceMemory(1 << 12)
        base = mem.host_alloc(16)
        readings = {}
        s = Scheduler(mem, cost_model=cm, seed=5, tracer=make())
        s.launch(_clock_kernel, 1, 2, args=(base, readings))
        s.run()
        for lane, got in readings.items():
            t0 = got["start"]
            assert cm.block_dispatch <= t0 < cm.block_dispatch + 4
            assert got["load"] == t0 + cm.step_cost + cm.load_latency
            issue = got["load"] + cm.step_cost
            assert got["atomic"] == issue + cm.atomic_latency
            # the second atomic waits for the word's next service slot
            assert got["busy_atomic"] == issue + cm.atomic_service + \
                cm.atomic_latency
            assert got["sleep"] == got["busy_atomic"] + cm.step_cost + \
                _NAP + 100 * lane
            assert got["yield"] == got["sleep"] + cm.yield_cost
        # the barrier releases both lanes at the last arrival plus its cost
        assert readings[0]["yield"] < readings[1]["yield"]
        release = readings[1]["yield"] + cm.barrier_cost
        assert [got["barrier"] for got in readings.values()] == [release] * 2


class TestPrimitiveTelemetry:
    def test_spinlock_wait_and_hold_histograms(self, device):
        mem = DeviceMemory(1 << 16)
        lock = SpinLock(mem)
        out = mem.host_alloc(8)
        tracer = Tracer()

        def kernel(ctx):
            yield from lock.lock(ctx)
            yield ops.atomic_add(out, 1)
            yield from lock.unlock(ctx)

        s = Scheduler(mem, device, seed=2, tracer=tracer)
        s.launch(kernel, 1, 64)
        s.run()
        assert tracer.lock_wait.n == 64
        assert tracer.lock_hold.n == 64
        assert tracer.lock_hold.mean > 0
        held = [e for e in tracer.events if e.get("cat") == "lock"]
        assert len(held) == 64

    def test_bulk_semaphore_wait_histogram_and_outcomes(self, device):
        mem = DeviceMemory(1 << 16)
        sem = BulkSemaphore(mem)
        tracer = Tracer()

        def kernel(ctx):
            r = yield from sem.wait(ctx, 1, 16)
            if r == -1:
                yield from sem.fulfill(ctx, 15)

        s = Scheduler(mem, device, seed=3, tracer=tracer)
        s.launch(kernel, 2, 64)
        s.run()
        assert tracer.sem_wait.n == 128
        assert tracer.sem_outcomes.get("batch", 0) >= 1
        assert tracer.sem_outcomes.get("acquired", 0) >= 1
        assert sum(tracer.sem_outcomes.values()) == 128

    def test_rcu_grace_period_latency_and_delegation(self, device):
        mem = DeviceMemory(1 << 16)
        rcu = RCU(mem)
        tracer = Tracer()

        def kernel(ctx):
            idx = yield from rcu.read_lock(ctx)
            yield ops.sleep(50)
            yield from rcu.read_unlock(ctx, idx)
            if ctx.tid_in_block % 8 == 0:
                yield from rcu.synchronize_conditional(ctx)

        s = Scheduler(mem, device, seed=4, tracer=tracer)
        s.launch(kernel, 2, 64)
        s.run()
        assert tracer.rcu_full == rcu.barriers_full
        assert tracer.rcu_delegated == rcu.barriers_delegated
        assert len(tracer.rcu_grace) == tracer.rcu_full
        assert all(g >= 0 for g in tracer.rcu_grace)

    def test_collective_group_width_sampled(self, device):
        mem = DeviceMemory(1 << 16)
        cm = CollectiveMutex(mem)
        tracer = Tracer()

        def kernel(ctx):
            mask = yield from cm.lock_warp(ctx)
            yield ops.sleep(10)
            yield from cm.unlock_warp(ctx, mask)

        s = Scheduler(mem, device, seed=5, tracer=tracer)
        s.launch(kernel, 1, 64)
        s.run()
        assert tracer.collective_width.n >= 2   # one sample per group
        assert tracer.collective_width.max <= 32

    def test_untraced_runs_have_no_ctx_trace(self):
        mem = DeviceMemory(1 << 12)
        seen = []

        def kernel(ctx):
            seen.append(ctx.trace)
            yield ops.sleep(1)

        s = Scheduler(mem)
        s.launch(kernel, 1, 8)
        s.run()
        assert seen == [None] * 8


class TestTracingScope:
    def test_schedulers_built_in_the_block_attach_its_tracer(self):
        mem = DeviceMemory(1 << 12)
        checker = RaceChecker()
        with tracing(Tracer()) as tracer:
            assert active() is tracer
            inside = Scheduler(mem)
            own = Scheduler(mem, tracer=checker)   # an explicit one wins
        assert active() is None
        assert inside.tracer is tracer and own.tracer is checker
        assert Scheduler(mem).tracer is None
        assert len(tracer.runs) == 1

    def test_blocks_nest_and_restore_on_error(self):
        outer, inner = Tracer(), Tracer()
        with tracing(outer):
            with pytest.raises(RuntimeError):
                with tracing(inner):
                    assert active() is inner
                    raise RuntimeError
            assert active() is outer
        assert active() is None


class TestExport:
    def _traced_run(self):
        mem = DeviceMemory(1 << 16)
        lock = SpinLock(mem)
        counter = mem.host_alloc(8)
        tracer = Tracer()

        def kernel(ctx):
            yield from lock.lock(ctx)
            yield ops.atomic_add(counter, 1)
            yield from lock.unlock(ctx)
            yield ops.syncthreads()

        tracer.begin_run("export-test")
        s = Scheduler(mem, GPUDevice(num_sms=2), seed=6, tracer=tracer)
        s.launch(kernel, 2, 32)
        s.run()
        return tracer

    def test_chrome_trace_shape(self):
        tracer = self._traced_run()
        doc = tracer.chrome_trace()
        assert isinstance(doc["traceEvents"], list)
        payload = json.loads(json.dumps(doc))  # JSON-serializable
        for ev in payload["traceEvents"]:
            assert "ph" in ev and "pid" in ev
            if ev["ph"] != "M":
                assert isinstance(ev["ts"], int) and ev["ts"] >= 0
        assert payload["otherData"]["runs"][0]["label"] == "export-test"
        assert payload["otherData"]["cost_model"]["atomic_service"] > 0
        names = {e["args"]["name"] for e in payload["traceEvents"]
                 if e["ph"] == "M"}
        assert "SM 0" in names

    def test_write_chrome_trace(self, tmp_path):
        tracer = self._traced_run()
        path = tmp_path / "trace.json"
        assert tracer.write_chrome_trace(str(path)) == str(path)
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]

    def test_summary_sections(self):
        tracer = self._traced_run()
        text = tracer.summary()
        assert "== trace summary ==" in text
        assert "op counts" in text
        assert "atomic serialization stall words" in text
        assert "lock wait times" in text
        assert "lock hold times" in text
        assert "per-SM occupancy" in text
        assert "export-test" in text

    def test_summary_omits_unused_sections(self):
        mem = DeviceMemory(1 << 12)
        tracer = Tracer()

        def kernel(ctx):
            yield ops.sleep(1)

        s = Scheduler(mem, tracer=tracer)
        s.launch(kernel, 1, 8)
        s.run()
        text = tracer.summary()
        assert "RCU" not in text
        assert "semaphore" not in text
        assert "lock wait" not in text
        assert "lock hold" not in text


class TestBenchIntegration:
    def test_fig5_run_one_traced(self):
        from repro.bench import fig5

        with tracing(Tracer()) as tracer:
            tp = fig5.run_one("bulk", 128, 32, block=64)
        assert tp > 0
        assert tracer.sem_wait.n > 0
        assert len(tracer.runs) == 1

    def test_fig6_run_one_traced(self):
        from repro.bench import fig6

        with tracing(Tracer()) as tracer:
            cycles, share, ok = fig6.run_one(4, 8, True, block=32)
        assert ok
        assert tracer.rcu_full + tracer.rcu_delegated > 0

    def test_fig7_run_size_traced(self):
        from repro.bench import fig7

        with tracing(Tracer()) as tracer:
            p = fig7.run_size(64, "ours", max_threads=256, max_pool=1 << 19)
        assert p.throughput > 0
        assert tracer.op_counts  # allocator activity observed
        assert tracer.top_stall_words(1)

    def test_cli_trace_flag_writes_json(self, tmp_path, monkeypatch, capsys):
        import repro.__main__ as cli
        from repro.perf.profile import trace_report
        from repro.perf.suite import CASES

        tiny = replace(CASES["fig5"], full={"thread_counts": (64,),
                                            "block": 32})
        monkeypatch.setitem(CASES, "fig5", tiny)
        out = tmp_path / "t.json"
        assert cli.main(["fig5", "--trace", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]
        captured = capsys.readouterr().out
        assert "== trace summary ==" in captured
        # one tracing path: `perf profile` prints the same summary
        assert trace_report(tiny, tier="full") in captured

    def test_cli_trace_flag_rejects_unwritable_path_before_running(
            self, tmp_path, monkeypatch):
        # An invalid path must fail at argument time, not after minutes
        # of simulation.
        import repro.__main__ as cli
        from repro.perf.suite import CASES

        def must_not_run(*, seed, **kwargs):
            raise AssertionError("the case ran before --trace was checked")

        monkeypatch.setitem(CASES, "fig5",
                            replace(CASES["fig5"], run=must_not_run))
        with pytest.raises(SystemExit) as exc:
            cli.main(["fig5", "--trace", str(tmp_path / "no-dir" / "t.json")])
        assert exc.value.code == 2

"""The episode batcher: outcomes, accounting, persistence, determinism."""

from __future__ import annotations

import gc
import json
import random

import pytest

from repro.serve.engine import RequestOutcome, ServeEngine, ServeRequest
from repro.sim.device import ThreadCtx
from repro.workloads.trace import TraceRecorder, validate


def _engine(**kw):
    kw.setdefault("backend", "ours")
    kw.setdefault("pool", 1 << 20)
    kw.setdefault("seed", 0)
    return ServeEngine(**kw)


def _malloc(tenant, size):
    return ServeRequest(tenant, "malloc", size=size)


def _free(tenant, addr):
    return ServeRequest(tenant, "free", addr=addr)


class TestSubmit:
    def test_outcomes_are_positional(self):
        eng = _engine()
        outs = eng.submit([_malloc(0, 64), _malloc(1, 128), _malloc(0, 32)])
        assert len(outs) == 3
        assert all(o.ok for o in outs)
        assert len({o.addr for o in outs}) == 3  # distinct addresses

    def test_empty_batch_is_a_noop(self):
        eng = _engine()
        assert eng.submit([]) == []
        assert eng.episodes == 0

    def test_latency_measured_per_request(self):
        eng = _engine()
        outs = eng.submit([_malloc(0, 64), _malloc(0, 64)])
        assert all(o.latency is not None and o.latency > 0 for o in outs)
        assert all(o.episode == 0 for o in outs)

    def test_free_roundtrip_and_ledger_release(self):
        eng = _engine(quota_bytes=1 << 16)
        [m] = eng.submit([_malloc(2, 512)])
        assert eng.admission.ledger(2).outstanding_bytes == 512
        [f] = eng.submit([_free(2, m.addr)])
        assert f.ok
        assert eng.admission.ledger(2).outstanding_bytes == 0
        assert eng.live_allocations == 0

    def test_unknown_addr_free_rejected(self):
        eng = _engine()
        [out] = eng.submit([_free(0, 0xDEAD)])
        assert not out.ok and out.cause == "unknown-addr"
        assert out.latency is None  # never entered an episode

    def test_foreign_free_rejected(self):
        eng = _engine()
        [m] = eng.submit([_malloc(0, 64)])
        [f] = eng.submit([_free(1, m.addr)])
        assert not f.ok and f.cause == "foreign-free"
        # the allocation stays live and its owner can still free it
        [f2] = eng.submit([_free(0, m.addr)])
        assert f2.ok

    def test_same_batch_double_free_caught(self):
        eng = _engine()
        [m] = eng.submit([_malloc(0, 64)])
        a, b = eng.submit([_free(0, m.addr), _free(0, m.addr)])
        assert a.ok
        assert not b.ok and b.cause == "unknown-addr"

    def test_over_quota_tenant_deterministically_rejected(self):
        for _ in range(2):
            eng = _engine(quota_bytes=256)
            outs = eng.submit([_malloc(0, 200), _malloc(0, 200),
                               _malloc(1, 200)])
            assert [o.ok for o in outs] == [True, False, True]
            assert outs[1].cause == "quota"
            assert eng.stats[0].n_malloc_failed == 1

    def test_bad_op_rejected(self):
        eng = _engine()
        with pytest.raises(ValueError, match="non-batch op"):
            eng.submit([ServeRequest(0, "stats")])


class TestPersistence:
    def test_heap_and_virtual_time_persist_across_episodes(self):
        eng = _engine()
        [m1] = eng.submit([_malloc(0, 64)])
        t1 = eng.sched.now
        [m2] = eng.submit([_malloc(0, 64)])
        assert eng.sched.now > t1          # virtual time is continuous
        assert m1.addr != m2.addr          # first allocation still live
        assert eng.episodes == 2
        assert eng.live_allocations == 2

    def test_determinism_across_fresh_engines(self):
        def run():
            eng = _engine(seed=3)
            outs = []
            outs += eng.submit([_malloc(0, 64), _malloc(1, 256)])
            outs += eng.submit([_free(0, outs[0].addr), _malloc(1, 64)])
            return [(o.ok, o.addr, o.latency, o.episode) for o in outs]

        assert run() == run()

    def test_finished_episodes_leave_no_thread_state(self):
        # ThreadCtx has __slots__ and no __weakref__, so count instances
        def live_ctxs():
            gc.collect()
            return sum(type(o) is ThreadCtx for o in gc.get_objects())

        eng = _engine(seed=4)
        before = live_ctxs()
        addrs = []
        for i in range(200):
            if i % 2 == 0:
                outs = eng.submit([_malloc(0, 64), _malloc(1, 96),
                                   _malloc(0, 128)])
                addrs = [o.addr for o in outs]
            else:
                outs = eng.submit([_free(0, addrs[0]), _free(1, addrs[1]),
                                   _free(0, addrs[2])])
            assert all(o.ok for o in outs)
        assert eng.episodes == 200 and eng.live_allocations == 0
        assert eng.sched.live_threads == 0 and not any(eng.sched._threads)
        assert live_ctxs() <= before


class TestHarnessMode:
    def test_sched_without_handle_rejected(self):
        from repro.sim.memory import DeviceMemory
        from repro.sim.scheduler import Scheduler

        sched = Scheduler(DeviceMemory(1 << 20), seed=0)
        with pytest.raises(ValueError, match="both sched and handle"):
            ServeEngine(sched=sched)


class TestTelemetry:
    def test_totals_and_percentiles(self):
        eng = _engine()
        eng.submit([_malloc(0, 64), _malloc(1, 128)])
        t = eng.totals()
        assert t.n_malloc == 2 and t.bytes_requested == 192
        assert sum(eng.latencies.values()) == 2
        assert eng.latency_percentile(50) > 0
        assert eng.latency_percentile(99) >= eng.latency_percentile(50)

    def test_empty_percentile_is_zero(self):
        assert _engine().latency_percentile(99) == 0

    @pytest.mark.parametrize("pct", [-50, -0.5, 100.5, float("nan")])
    def test_percentile_outside_0_to_100_is_rejected(self, pct):
        eng = _engine()
        # a negative rank used to index from the top: -50 gave 30 here
        eng.latencies = {10: 1, 20: 1, 30: 1, 40: 1}
        with pytest.raises(ValueError, match="pct must be in 0..100"):
            eng.latency_percentile(pct)
        assert eng.latency_percentile(0) == 10
        assert eng.latency_percentile(100) == 40

    @pytest.mark.parametrize("seed", range(4))
    def test_counted_percentile_matches_sorted_list_nearest_rank(self, seed):
        rng = random.Random(seed)
        samples = [rng.choice((300, 857, 857, 1200, 4000))
                   for _ in range(rng.randint(1, 60))]
        eng = _engine()
        for lat in samples:
            eng.latencies[lat] = eng.latencies.get(lat, 0) + 1
        ordered = sorted(samples)
        for pct in (0, 1, 25, 50, 90, 99, 99.9, 100):
            rank = min(len(ordered) - 1, int(pct / 100.0 * len(ordered)))
            assert eng.latency_percentile(pct) == ordered[rank], pct

    def test_report_reuses_replay_qos_vocabulary(self):
        eng = _engine()
        eng.submit([_malloc(0, 64), _malloc(1, 64)])
        rep = eng.report()
        assert rep.backend == eng.backend_name
        assert set(rep.tenants) == {0, 1}
        assert rep.ops_per_s > 0
        assert rep.fairness() > 0  # the replay QoS math applies as-is

    def test_snapshot_is_json_safe(self):
        eng = _engine(quota_bytes=1 << 16)
        eng.submit([_malloc(0, 64), _malloc(2, 128)])
        snap = json.loads(json.dumps(eng.snapshot()))
        assert snap["requests"] == 2
        assert snap["tenants"]["0"]["n_malloc"] == 1
        assert snap["tenants"]["2"]["outstanding_bytes"] == 128

    def test_count_skipped_free_feeds_reconciliation(self):
        eng = _engine()
        eng.count_skipped_free(5)
        assert eng.stats[5].n_free_skipped == 1


class TestRecorder:
    def test_served_session_records_a_valid_trace(self):
        rec = TraceRecorder("served_session", 0, 2, {})
        eng = _engine(recorder=rec)
        outs = eng.submit([_malloc(0, 64), _malloc(1, 128)])
        eng.submit([_free(0, outs[0].addr), _free(1, outs[1].addr)])
        trace = rec.trace()
        summary = validate(trace)
        assert summary["mallocs"] == 2 and summary["frees"] == 2
        assert summary["live_at_end"] == 0

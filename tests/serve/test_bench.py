"""The deterministic feeder, the bench runner, the bundled fixture."""

from __future__ import annotations

import pytest

from repro.serve.bench import feed_trace, run_backend
from repro.serve.engine import ServeEngine
from repro.workloads import families
from repro.workloads.replay import replay
from repro.workloads.trace import TraceRecorder, load_bundled, validate

POOL = 4 << 20  # ample: the reconciliation tests need zero failures


def _trace(seed=0, events=120, tenants=3):
    return families.generate("multi_tenant_zipf", seed,
                             events=events, tenants=tenants)


class TestFeedTrace:
    def test_every_event_is_submitted_or_skipped(self):
        trace = _trace()
        res = feed_trace(ServeEngine(pool=POOL), trace, batch_max=16)
        assert res.events == len(trace.events)
        assert res.submitted + res.frees_skipped == res.events
        assert res.episodes == res.engine.episodes > 1

    def test_batch_max_bounds_every_episode(self):
        # episodes >= ceil(submitted / batch_max), which only holds if no
        # batch ever exceeded batch_max
        res = feed_trace(ServeEngine(pool=POOL), _trace(), batch_max=8)
        assert res.episodes * 8 >= res.submitted

    def test_bad_batch_max_rejected(self):
        with pytest.raises(ValueError, match="batch_max"):
            feed_trace(ServeEngine(), _trace(), batch_max=0)

    def test_free_in_same_batch_forces_dependency_flush(self):
        rec = TraceRecorder("manual", 0, 1, {})
        a = rec.malloc(0, 64, 0)
        rec.free(a, 1)  # free arrives before its malloc's reply
        b = rec.malloc(0, 32, 2)
        rec.free(b, 3)
        res = feed_trace(ServeEngine(pool=POOL), rec.trace(), batch_max=32)
        assert res.dependency_flushes == 2
        assert res.engine.totals().n_free == 2
        assert res.engine.live_allocations == 0

    def test_determinism_same_inputs_same_service(self):
        def run():
            eng = ServeEngine(pool=POOL, seed=5)
            feed_trace(eng, _trace(seed=5), batch_max=16)
            return (eng.sched.now, sorted(eng.latencies.items()),
                    {t: vars(st) for t, st in eng.stats.items()})

        assert run() == run()

    def test_accounting_reconciles_with_direct_replay(self):
        # The acceptance gate's core claim: serving a trace through
        # episodes accounts identically to the closed replayer when the
        # pool is ample (zero failures make the comparison exact).
        trace = _trace(seed=2)
        eng = ServeEngine(pool=POOL, seed=2)
        feed_trace(eng, trace, batch_max=16)
        direct = replay(trace, backend="ours", seed=2, pool=POOL)
        assert set(eng.stats) == set(direct.tenants)
        for t, st in eng.stats.items():
            ref = direct.tenants[t]
            for f in ("n_malloc", "n_malloc_failed", "n_free",
                      "n_free_skipped", "bytes_requested", "bytes_served"):
                assert getattr(st, f) == getattr(ref, f), (t, f)

    def test_ops_per_s_is_positive(self):
        res = feed_trace(ServeEngine(pool=POOL), _trace(), batch_max=16)
        assert res.engine.report().ops_per_s > 0
        assert res.engine.sched.now > 0


class TestRunBackend:
    def test_bench_point_fields(self):
        pt = run_backend(_trace(), "ours", seed=0, pool=POOL, batch_max=16)
        assert pt.backend.startswith("ours")
        assert pt.ops_per_s > 0
        assert pt.latency_p99 >= pt.latency_p50 > 0
        assert pt.failure_rate == 0.0  # ample pool
        assert pt.admission_failure_rate == 0.0  # no quota set
        assert pt.episodes > 0 and pt.cycles > 0

    def test_quota_shows_up_as_admission_failures(self):
        pt = run_backend(_trace(), "ours", seed=0, pool=POOL,
                         batch_max=16, quota_bytes=2 << 10)
        assert pt.admission_failure_rate > 0
        assert pt.causes.get("quota", 0) > 0


class TestBundledFixture:
    def test_serve_small_is_a_valid_balanced_trace(self):
        trace = load_bundled("serve_small")
        summary = validate(trace)
        assert trace.family == "served_session"
        assert trace.params["source_family"] == "multi_tenant_zipf"
        assert summary["mallocs"] == summary["frees"] > 0
        assert summary["live_at_end"] == 0
        assert trace.tenants == 3
        assert all(n > 0 for n in summary["mallocs_per_tenant"])

    def test_serve_small_replays_clean_through_the_service(self):
        trace = load_bundled("serve_small")
        eng = ServeEngine(pool=POOL, seed=0)
        res = feed_trace(eng, trace, batch_max=16)
        assert res.frees_skipped == 0
        assert eng.totals().n_malloc_failed == 0
        assert eng.live_allocations == 0

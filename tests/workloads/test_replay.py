"""Trace replay: lane partitioning, determinism, accounting, QoS."""

import pytest

from repro.workloads.families import generate
from repro.workloads.replay import (
    TenantStats,
    build_lanes,
    launch_geometry,
    replay,
)
from repro.workloads.trace import load_bundled, validate


def small_trace(seed=3, events=120, **kw):
    return generate("multi_tenant_zipf", seed, events=events,
                    mean_gap=40, **kw)


class TestBuildLanes:
    def test_round_robin_within_tenant(self):
        t = small_trace()
        lanes, stats = build_lanes(t, lanes_per_tenant=2)
        assert len(lanes) == t.tenants * 2
        assert set(stats) == set(range(t.tenants))
        # every event lands in one of its tenant's lanes, stream order kept
        by_tenant = {tenant: [] for tenant in range(t.tenants)}
        for e in t.events:
            by_tenant[e.tenant].append(e)
        for tenant, evs in by_tenant.items():
            a, b = lanes[tenant * 2], lanes[tenant * 2 + 1]
            assert sorted((e.id, e.time) for e in a + b) == \
                sorted((e.id, e.time) for e in evs)
            for lane in (a, b):
                assert [e.time for e in lane] == sorted(e.time for e in lane)

    def test_rejects_zero_lanes(self):
        with pytest.raises(ValueError, match="lanes_per_tenant"):
            build_lanes(small_trace(), lanes_per_tenant=0)


class TestLaunchGeometry:
    def test_covers_lanes(self):
        for n in (1, 3, 32, 33, 100):
            grid, block = launch_geometry(n)
            assert grid * block >= n
            assert block <= 32

    def test_small_counts_get_small_blocks(self):
        assert launch_geometry(3) == (1, 3)


class TestReplayDeterminism:
    def test_replay_twice_is_byte_identical(self):
        """Acceptance gate: same trace + backend + seed => identical
        virtual metrics and per-tenant stats, run to run."""
        t = load_bundled("mt_small")
        a = replay(t, backend="ours", seed=5, lanes_per_tenant=2)
        b = replay(t, backend="ours", seed=5, lanes_per_tenant=2)
        assert a.cycles == b.cycles
        assert a.events == b.events
        assert a.ops_per_s == b.ops_per_s
        assert a.tenants == b.tenants

    def test_seed_changes_schedule_not_accounting(self):
        t = small_trace()
        a = replay(t, seed=1)
        b = replay(t, seed=2)
        # the request stream is data: accounting totals agree even when
        # the fuzzed schedule (and hence cycle count) differs
        assert a.totals == b.totals


@pytest.mark.parametrize("backend", ["ours", "cuda", "hostbased"])
class TestAccountingAcrossBackends:
    def test_totals_reconcile_with_the_trace(self, backend):
        t = small_trace()
        s = validate(t)
        rep = replay(t, backend=backend, seed=0, lanes_per_tenant=2)
        totals = rep.totals
        assert totals.n_malloc == s["mallocs"]
        assert totals.n_free + totals.n_free_skipped == s["frees"]
        assert totals.n_free_skipped == totals.n_malloc_failed
        for tenant, st in rep.tenants.items():
            assert st.n_malloc == s["mallocs_per_tenant"][tenant]


class TestPressureAndQoS:
    def test_undersized_pool_counts_failures_per_tenant(self):
        # 256 KiB pool vs up to ~48 live 8 KiB blocks (~384 KiB): some
        # tenants must see NULL, and each skipped free pairs with a
        # failed malloc.
        t = small_trace(events=300, size_classes=(8192,),
                        free_fraction=0.05)
        rep = replay(t, backend="ours", seed=0, pool=1 << 18)
        totals = rep.totals
        assert totals.n_malloc_failed > 0
        assert totals.n_free_skipped == totals.n_malloc_failed
        assert 0.0 < totals.failure_rate < 1.0
        assert max(st.failure_rate for st in rep.tenants.values()) > 0

    def test_fairness_index_bounds(self):
        rep = replay(small_trace(), seed=0)
        assert 1.0 / len(rep.tenants) <= rep.fairness() <= 1.0

    def test_qos_table_has_one_row_per_tenant(self):
        rep = replay(small_trace(), seed=0)
        table = rep.table()
        for t in rep.tenants:
            assert f"t{t}" in table

    def test_tenant_stats_add(self):
        a = TenantStats(n_malloc=2, bytes_requested=64, bytes_served=64)
        b = TenantStats(n_malloc=1, n_malloc_failed=1, bytes_requested=32)
        a.add(b)
        assert a.n_malloc == 3
        assert a.n_malloc_failed == 1
        assert a.bytes_requested == 96
        assert a.bytes_served == 64
        assert a.ops_completed == 2

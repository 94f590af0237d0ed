"""Smoke tests for the extended benches (shootout, fragmentation)."""

import pytest

from repro.bench import fragmentation, shootout


class TestShootout:
    def test_subset_runs(self):
        res = shootout.run(seed=9, nthreads=256, iters=1,
                           which=["ours (scalar)", "bump pointer"])
        names = {p.name for p in res.points}
        assert names == {"ours (scalar)", "bump pointer"}
        for p in res.points:
            assert p.throughput > 0
        assert res.table()

    def test_ours_beats_cuda_at_scale(self):
        res = shootout.run(seed=9, nthreads=512, iters=1,
                           which=["ours (scalar)", "CUDA-like"])
        by = {p.name: p for p in res.points}
        assert by["ours (scalar)"].throughput > by["CUDA-like"].throughput

    def test_no_failures_on_small_workload(self):
        res = shootout.run(seed=9, nthreads=256, iters=1)
        for p in res.points:
            assert p.failures == 0, p.name


class TestFragmentation:
    def test_two_rounds(self):
        res = fragmentation.run(rounds=2, nthreads=256, seed=23)
        assert len(res.ours) == 2 and len(res.bump) == 2
        assert res.table()
        # live bytes grow (1/8 kept each round)
        assert res.ours[1].live > res.ours[0].live
        # bump reserved strictly grows; ours is chunk-bounded
        assert res.bump[1].reserved > res.bump[0].reserved

    def test_overhead_metric(self):
        p = fragmentation.FragPoint(round=0, live=100, reserved=250)
        assert p.overhead == 2.5
        empty = fragmentation.FragPoint(round=0, live=0, reserved=10)
        assert empty.overhead == float("inf")


class TestShootoutTotalFailure:
    """Regression: a 100%-failure run used to report throughput(1) — one
    phantom pair — which ranked a completely broken allocator above a
    slow-but-correct one.  Zero completed pairs is zero throughput."""

    def test_wipeout_reports_zero_throughput(self, monkeypatch):
        # 8 KB requests exceed ScatterAlloc's one-page size classes:
        # every malloc returns NULL, so no pair ever completes.
        monkeypatch.setattr(shootout, "SIZE", 8192)
        res = shootout.run(seed=9, nthreads=64, iters=1,
                           which=["scatteralloc"])
        (p,) = res.points
        assert p.failures == 64
        assert p.throughput == 0.0

    def test_table_survives_zero_baseline(self):
        points = [
            shootout.ShootoutPoint("ours (scalar)", 0.0, 64, 1000),
            shootout.ShootoutPoint("bump pointer", 5.0e6, 0, 1000),
        ]
        res = shootout.ShootoutResult(size=64, nthreads=64, iters=1,
                                      points=points)
        table = res.table()
        # no ZeroDivisionError, and no relative column against a dead base
        assert "0.00x" not in table and "inf" not in table

    def test_registry_resolution_rejects_unknown_roster(self):
        with pytest.raises(KeyError):
            shootout.run(seed=9, nthreads=32, iters=1,
                         which=["tcmalloc"])

"""Smoke tests for the benchmark harnesses at tiny scales.

These validate plumbing and the headline *directional* claims; the
paper-scale claims live in the perf registry's full tier.
"""

import pytest

from repro.bench import ablations, fig5, fig6, fig7, reporting, workloads
from repro.sim import DeviceMemory, GPUDevice, Scheduler


class TestReporting:
    def test_series(self):
        s = reporting.Series("x")
        s.add(1, 10.0)
        s.add(2, 20.0)
        assert s.y_at(2) == 20.0

    def test_series_y_at_missing_x_names_series_and_points(self):
        s = reporting.Series("tput")
        s.add(1, 10.0)
        with pytest.raises(KeyError, match=r"'tput'.*x=7.*\[1\]"):
            s.y_at(7)

    def test_geometric_mean(self):
        assert reporting.geometric_mean([1, 100]) == pytest.approx(10.0)
        assert reporting.geometric_mean([]) == 0.0

    def test_geometric_mean_warns_on_non_positive(self):
        # Regression: zeros used to be dropped silently, inflating the
        # mean of a vector with failed data points.
        with pytest.warns(RuntimeWarning, match="non-positive"):
            assert reporting.geometric_mean([0, 5]) == pytest.approx(5.0)
        with pytest.warns(RuntimeWarning):
            assert reporting.geometric_mean([-1, 0]) == 0.0

    def test_si(self):
        assert reporting.si(12_300_000) == "12.30M"
        assert reporting.si(999) == "999.00"
        assert reporting.si(2.5e9) == "2.50G"

    def test_size_label(self):
        assert reporting.size_label(8) == "8 B"
        assert reporting.size_label(4096) == "4 KB"
        assert reporting.size_label(1 << 20) == "1 MB"

    def test_format_table_aligns(self):
        t = reporting.format_table(["a", "bb"], [[1, 2], [333, 4]])
        lines = t.splitlines()
        assert len(lines) == 4
        assert len(set(len(l) for l in lines)) == 1


class TestFig5:
    def test_both_primitives_complete(self):
        for kind in ("bulk", "counting"):
            tp = fig5.run_one(kind, 128, 32, block=64)
            assert tp > 0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            fig5.run_one("mutex", 64, 32)

    def test_run_produces_aligned_series(self):
        res = fig5.run(thread_counts=(64, 256), seed=1, block=64)
        assert res.counting.xs == res.bulk.xs == [64, 256]
        assert res.table()

    def test_bulk_wins_at_high_concurrency(self):
        """The headline directional claim at a small scale."""
        res = fig5.run_batches((128,), seed=1, nthreads=2048)
        assert res.bulk.y_at(128) > res.counting.y_at(128)

    def test_batch_sweep(self):
        # §5.1's "other batch sizes": one sweep over every batch size
        out = fig5.run_batches((16, 64), seed=1, nthreads=256)
        assert out.counting.xs == out.bulk.xs == [16, 64]
        assert all(y > 0 for y in out.bulk.ys) and out.table()


class TestFig6:
    def test_build_list(self):
        mem = DeviceMemory(1 << 20)
        lst, elems = fig6.build_list(mem, 5)
        assert lst.host_items() == elems
        lst.host_check()

    def test_run_one_correctness(self):
        for delegated in (False, True):
            cycles, share, ok = fig6.run_one(4, 8, delegated, block=32)
            assert ok and cycles > 0

    def test_run_grid(self):
        res = fig6.run(ratios=(8,), thread_targets=(128,), seed=3,
                       block=32)
        assert res.points
        assert res.table()
        for p in res.points:
            assert p.speedup > 0


class TestFig7:
    def test_run_size_both_allocators(self):
        for allocator in ("ours", "cuda"):
            p = fig7.run_size(64, allocator, max_threads=512,
                              max_pool=1 << 19)
            assert p.throughput > 0
            assert 0 <= p.failure_rate <= 1

    def test_degenerate_2k_failure_rate(self):
        p = fig7.run_size(2048, "ours", max_threads=256, max_pool=1 << 19)
        assert p.failure_rate > 0.4  # paper: ~50%

    def test_tbuddy_sizes_do_not_fail(self):
        p = fig7.run_size(8192, "ours", max_threads=128, max_pool=1 << 19)
        assert p.failed == 0

    def test_speedup_math(self):
        pts = [
            fig7.Fig7Point(8, "ours", 10, 100.0, 0, 1),
            fig7.Fig7Point(8, "cuda", 10, 10.0, 0, 1),
        ]
        res = fig7.Fig7Result(pts)
        assert res.speedups() == [10.0]
        assert res.mean_speedup() == pytest.approx(10.0)


class TestAblations:
    def test_buddy_ablation_small(self):
        res = ablations.run_buddy_ablation(thread_counts=(64,), seed=5,
                                           block=32)
        assert res.tbuddy.ys[0] > 0 and res.lock_buddy.ys[0] > 0

    def test_collective_ablation_small(self):
        res = ablations.run_collective_ablation(thread_counts=(64,), seed=6,
                                                block=32)
        assert res.collective.ys[0] > 0 and res.plain.ys[0] > 0
        assert res.table()


class TestWorkloads:
    def test_producer_consumer_runs(self):
        from repro.core import AllocatorConfig, ThroughputAllocator

        device = GPUDevice(num_sms=2)
        mem = DeviceMemory(16 << 20)
        alloc = ThroughputAllocator(mem, device,
                                    AllocatorConfig(pool_order=8))
        kernel, mailbox = workloads.producer_consumer(alloc, 64, 16, mem, 2)
        s = Scheduler(mem, device, seed=11)
        s.launch(kernel, 2, 32)
        s.run(max_events=20_000_000)
        alloc.ualloc.host_gc()
        alloc.host_check()
        assert alloc.tbuddy.host_free_bytes() == alloc.cfg.pool_size

    def test_producer_consumer_survives_malloc_failure(self):
        """Regression: a producer whose malloc returned NULL used to
        skip its publish, leaving the paired consumer spinning on an
        empty mailbox slot forever (DeadlockError under an undersized
        pool).  Producers now publish a poison token instead."""
        from repro.core import AllocatorConfig, ThroughputAllocator

        device = GPUDevice(num_sms=2)
        mem = DeviceMemory(16 << 20)
        alloc = ThroughputAllocator(mem, device,
                                    AllocatorConfig(pool_order=6))
        kernel, mailbox = workloads.producer_consumer(alloc, 1024, 8, mem, 4)
        s = Scheduler(mem, device, seed=3)
        s.launch(kernel, 4, 32)
        s.run(max_events=20_000_000)  # raised DeadlockError before the fix
        assert alloc.stats.n_malloc_failed > 0, (
            "pool was not undersized enough to exercise the NULL path"
        )
        alloc.ualloc.host_gc()
        alloc.host_check()
        assert alloc.host_used_bytes() == 0

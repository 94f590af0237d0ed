"""Figure 5 — two-stage allocation throughput: counting vs bulk
semaphores (paper §5.1).

Paper result: bulk semaphores outperform counting semaphores thanks to
concurrent batch allocations; the gap appears once concurrency exceeds
the batch size.
"""

from repro.perf.suite import CASES

from conftest import attach

CASE = CASES["fig5"]


def test_fig5_counting_vs_bulk(benchmark):
    def harness():
        return CASE.result("full")

    res = benchmark.pedantic(harness, rounds=1, iterations=1)
    print(f"\nFigure 5 (batch={res.batch}):")
    print(res.table())

    threads = CASE.full["thread_counts"]
    high = threads[-1]
    attach(
        benchmark,
        bulk_allocs_per_s_at_16k=res.bulk.y_at(high),
        counting_allocs_per_s_at_16k=res.counting.y_at(high),
        bulk_speedup_at_16k=res.bulk.y_at(high) / res.counting.y_at(high),
    )
    # Shape assertions: bulk wins beyond the batch size, at every level.
    for n in threads:
        if n > res.batch:
            assert res.bulk.y_at(n) > res.counting.y_at(n), (
                f"bulk semaphore slower than counting at {n} threads"
            )

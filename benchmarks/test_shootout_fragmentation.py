"""Extended benches beyond the paper's figures: the cross-allocator
shootout (covering every §2.2 related-work design we implement) and the
direct fragmentation-over-time study."""

from repro.perf.suite import CASES

from conftest import attach


def test_allocator_shootout(benchmark):
    def harness():
        return CASES["shootout"].result("full")

    res = benchmark.pedantic(harness, rounds=1, iterations=1)
    print(f"\nAllocator shootout ({res.size} B churn, {res.nthreads} "
          f"threads x {res.iters} iters):")
    print(res.table())
    by = {p.name: p for p in res.points}
    attach(benchmark, **{
        p.name.replace(" ", "_"): p.throughput for p in res.points
    })
    # the paper's two qualitative orderings:
    # 1. ours beats the serializing designs by orders of magnitude
    assert by["ours (scalar)"].throughput > 10 * by["CUDA-like"].throughput
    assert by["ours (scalar)"].throughput > 10 * by["XMalloc-like"].throughput
    # 2. nothing fails on this non-exhausting workload except by design
    assert by["ours (scalar)"].failures == 0
    assert by["CUDA-like"].failures == 0


def test_fragmentation_over_time(benchmark):
    def harness():
        return CASES["fragmentation"].result("full")

    res = benchmark.pedantic(harness, rounds=1, iterations=1)
    print("\nFragmentation over churn rounds (1/8 of blocks kept live):")
    print(res.table())
    attach(
        benchmark,
        ours_final_overhead=res.ours[-1].overhead,
        bump_final_overhead=res.bump[-1].overhead,
    )
    # ours reclaims: reserved grows sublinearly (amortized overhead
    # improves as the live set grows)
    assert res.ours[-1].overhead < res.ours[0].overhead
    # the bump pointer cannot reclaim: reserved grows every round
    bump_reserved = [p.reserved for p in res.bump]
    assert bump_reserved == sorted(bump_reserved)
    assert bump_reserved[-1] > bump_reserved[0] * (len(bump_reserved) - 1)
    # and by the last round, ours holds less of the pool hostage
    assert res.ours[-1].reserved < res.bump[-1].reserved

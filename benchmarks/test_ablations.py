"""Ablation benches for DESIGN.md's called-out design choices:

* batch-size sensitivity of Figure 5 (paper §5.1: "results for other
  batch sizes are analogous");
* TBuddy vs a classical global-lock buddy (isolates §4.1's tree +
  per-order bulk semaphores);
* collective vs per-thread mutex on the chunk-list pop workload
  (isolates §4.2.2's primitive).
"""

from repro.bench import ablations, fig5

from conftest import attach


def test_ablation_batch_size(benchmark):
    def harness():
        return fig5.run_batch_sweep(batches=(32, 128, 512, 2048),
                                    nthreads=4096)

    results = benchmark.pedantic(harness, rounds=1, iterations=1)
    print("\nFigure 5 batch sweep @4096 threads (bulk speedup vs counting):")
    for r in results:
        c = r.counting.ys[0]
        b = r.bulk.ys[0]
        print(f"  batch {r.batch:5d}: counting {c:.3e}/s, bulk {b:.3e}/s "
              f"({b / c:.2f}x)")
        attach(benchmark, **{f"speedup_batch_{r.batch}": b / c})
    # 'analogous': bulk wins for every batch size well below the thread
    # count
    for r in results:
        if r.batch * 4 <= 4096:
            assert r.bulk.ys[0] > r.counting.ys[0]


def test_ablation_tbuddy_vs_lock_buddy(benchmark):
    def harness():
        return ablations.run_buddy_ablation(thread_counts=(64, 256, 1024))

    res = benchmark.pedantic(harness, rounds=1, iterations=1)
    print("\nAblation A — TBuddy vs global-lock buddy (order-0 storm):")
    print(res.table())
    at_max = res.tbuddy.ys[-1] / res.lock_buddy.ys[-1]
    attach(benchmark, tbuddy_speedup_at_1024=at_max)
    # the tree + semaphores must out-scale the global lock
    assert at_max > 1.5


def test_ablation_warp_coalescing(benchmark):
    """The paper's transparent full-warp malloc path vs scalar mallocs
    (paper §2.2: Widmer et al. coalesce via a non-standard per-warp
    interface; this allocator coalesces behind the standard one)."""
    from repro.core import AllocatorConfig, ThroughputAllocator
    from repro.sim import DeviceMemory, GPUDevice, Scheduler

    def run(coalesced):
        device = GPUDevice(num_sms=2)
        mem = DeviceMemory((4096 << 9) * 2 + (8 << 20))
        alloc = ThroughputAllocator(mem, device,
                                    AllocatorConfig(pool_order=9))

        def kernel(ctx):
            if coalesced:
                p = yield from alloc.malloc_coalesced(ctx, 64)
            else:
                p = yield from alloc.malloc(ctx, 64)
            assert p != mem.NULL

        sched = Scheduler(mem, device, seed=6)
        n = 4096
        sched.launch(kernel, -(-n // 256), 256)
        rep = sched.run()
        atomics = sum(rep.op_counts.get(code, 0) for code in range(3, 11))
        return rep.throughput(n), atomics

    def harness():
        return run(False), run(True)

    (scalar, scalar_atomics), (coalesced, co_atomics) = benchmark.pedantic(
        harness, rounds=1, iterations=1
    )
    print(f"\nAblation C — warp coalescing (64 B, 4096 threads): "
          f"scalar {scalar:.3e}/s with {scalar_atomics} atomics, "
          f"coalesced {coalesced:.3e}/s with {co_atomics} atomics "
          f"({coalesced / scalar:.2f}x speed, "
          f"{scalar_atomics / co_atomics:.1f}x fewer atomics)")
    attach(benchmark, coalescing_speedup=coalesced / scalar,
           atomic_reduction=scalar_atomics / co_atomics)
    # The robust claim is the contention mechanism: one leader operation
    # replaces a warp's worth of hot-word traffic.  Throughput direction
    # depends on how latency-bound the configuration is.
    assert scalar_atomics > 3 * co_atomics
    assert coalesced > 0.7 * scalar


def test_ablation_collective_mutex(benchmark):
    def harness():
        return ablations.run_collective_ablation(thread_counts=(64, 256, 1024))

    res = benchmark.pedantic(harness, rounds=1, iterations=1)
    print("\nAblation B — collective vs plain mutex (list pop):")
    print(res.table())
    at_max = res.collective.ys[-1] / res.plain.ys[-1]
    attach(benchmark, collective_speedup_at_1024=at_max)
    assert at_max > 1.5

"""Figure 7 — allocator throughput and failure rate across sizes
(paper §5.3), plus the headline speedup-vs-CUDA numbers.

Paper results reproduced in shape:

* our allocator beats the CUDA-style baseline at small (UAlloc) sizes
  and loses at the degenerate 1-2 KB bin-residue sizes and at very
  large sizes where only a handful of threads run;
* failure rates: ~3% metadata overhead for tail-using sizes, rising
  through 512 B/1 KB, ~50% at 2 KB, zero for buddy sizes.
"""

from repro.sim import GPUDevice, DeviceMemory, Scheduler
from repro.bench.workloads import malloc_storm
from repro.core import AllocatorConfig, ThroughputAllocator
from repro.perf.suite import CASES

from conftest import attach


def test_fig7_throughput_by_size(benchmark):
    def harness():
        return CASES["fig7"].result("full")

    res = benchmark.pedantic(harness, rounds=1, iterations=1)
    print("\nFigure 7 (allocation throughput by size):")
    print(res.table())
    sp = res.speedups()
    attach(benchmark, mean_speedup=res.mean_speedup(),
           min_speedup=min(sp), max_speedup=max(sp))

    ours = {p.size: p for p in res.points if p.allocator == "ours"}
    cuda = {p.size: p for p in res.points if p.allocator == "cuda"}
    # shape: we win clearly at small (tail-using) sizes
    for size in (16, 32, 64, 128):
        assert ours[size].throughput > 1.5 * cuda[size].throughput
    # shape: the degenerate 2 KB class loses and wastes ~half the pool
    assert ours[2048].failure_rate > 0.4
    # shape: bin-residue failure profile
    assert ours[8].failure_rate < 0.10
    assert ours[512].failure_rate < ours[1024].failure_rate < ours[2048].failure_rate
    # shape: buddy sizes never fail on an exact-fit pool
    for size in (4096, 16384, 65536):
        assert ours[size].failed == 0
    # headline: mean speedup is decisively > 1
    assert res.mean_speedup() > 1.5


def test_steady_state_allocation_rate(benchmark):
    """Context for Figure 7: away from the exhaustion tail (the paper
    measures pools run to the very last block), the allocator sustains
    an order of magnitude more throughput and scales with SMs."""

    def harness():
        rates = {}
        for sms in (1, 4):
            device = GPUDevice(num_sms=sms)
            cfg = AllocatorConfig(pool_order=9)
            mem = DeviceMemory((4096 << 9) * 2 + (8 << 20))
            alloc = ThroughputAllocator(mem, device, cfg)
            kernel, _ = malloc_storm(alloc, 64)
            sched = Scheduler(mem, device, seed=7)
            n = 16384
            sched.launch(kernel, -(-n // 256), 256)
            rep = sched.run()
            rates[sms] = rep.throughput(n)
        return rates

    rates = benchmark.pedantic(harness, rounds=1, iterations=1)
    print(f"\nsteady-state 64 B rate: 1 SM {rates[1]:.2e}/s, "
          f"4 SMs {rates[4]:.2e}/s")
    attach(benchmark, rate_1sm=rates[1], rate_4sm=rates[4])
    assert rates[4] > 2 * rates[1]  # arenas scale

"""Warp-coalesced allocation in a BFS-style frontier expansion.

Graph frameworks expand frontiers in lockstep: every thread of a warp
needs an output buffer at the same instant — the exact pattern the
paper's transparent request coalescing targets ("specialized paths for
single-threaded and full-warp operations").

Each thread expands one frontier node into a freshly allocated
neighbour buffer, writes the neighbours, and publishes it.  The same
kernel runs twice — scalar ``malloc`` vs ``malloc_coalesced`` — and the
example reports virtual cycles and the memory-op counts per strategy,
then verifies both produced identical expansions.

Run:  python examples/frontier_expansion.py
"""

import random

from repro.core import AllocatorConfig, ThroughputAllocator
from repro.sim import DeviceMemory, GPUDevice, Scheduler, ops

NULL = DeviceMemory.NULL


def build_graph(n_nodes, max_deg, seed):
    rng = random.Random(seed)
    return [
        sorted(rng.sample(range(n_nodes), rng.randint(1, max_deg)))
        for _ in range(n_nodes)
    ]


def expand_kernel(ctx, alloc, adjacency, out_index, coalesced):
    """Allocate an output buffer for this node's neighbours and fill it."""
    neighbours = adjacency[ctx.tid % len(adjacency)]
    nbytes = 8 + 8 * len(neighbours)  # count + payload
    if coalesced:
        buf = yield from alloc.malloc_coalesced(ctx, nbytes)
    else:
        buf = yield from alloc.malloc(ctx, nbytes)
    if buf == NULL:
        yield ops.store(out_index + 8 * ctx.tid, 0)
        return
    base = (buf + 7) & ~7
    yield ops.store(base, len(neighbours))
    for i, dst in enumerate(neighbours):
        yield ops.store(base + 8 + 8 * i, dst)
    yield ops.store(out_index + 8 * ctx.tid, base)


def run(coalesced, adjacency, n_threads, device):
    mem = DeviceMemory(64 << 20)
    alloc = ThroughputAllocator(mem, device, AllocatorConfig(pool_order=11))
    out_index = mem.host_alloc(8 * n_threads)
    sched = Scheduler(mem, device, seed=5)
    sched.launch(expand_kernel, n_threads // 256, 256,
                 args=(alloc, adjacency, out_index, coalesced))
    report = sched.run()
    # collect host-side
    expansions = []
    for i in range(n_threads):
        base = mem.load_word(out_index + 8 * i)
        if base == 0:
            expansions.append(None)
            continue
        cnt = mem.load_word(base)
        expansions.append([mem.load_word(base + 8 + 8 * k) for k in range(cnt)])
    atomics = sum(report.op_counts.get(code, 0) for code in range(3, 11))
    return report, expansions, atomics


def main():
    device = GPUDevice(num_sms=4)
    adjacency = build_graph(n_nodes=256, max_deg=6, seed=3)
    n_threads = 4096

    rep_s, exp_s, atomics_s = run(False, adjacency, n_threads, device)
    rep_c, exp_c, atomics_c = run(True, adjacency, n_threads, device)

    assert exp_s == exp_c, "strategies must produce identical expansions"
    failed = sum(1 for e in exp_s if e is None)
    print(f"frontier nodes expanded: {n_threads - failed} / {n_threads}")
    print(f"scalar malloc:    {rep_s.cycles:>8d} cycles, "
          f"{atomics_s} atomic ops")
    print(f"coalesced malloc: {rep_c.cycles:>8d} cycles, "
          f"{atomics_c} atomic ops")
    print(f"coalescing: {rep_s.cycles / rep_c.cycles:.2f}x faster, "
          f"{atomics_s / atomics_c:.1f}x fewer atomics")
    print("expansions verified identical across strategies")


if __name__ == "__main__":
    main()

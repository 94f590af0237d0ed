"""Figure 5 — upper-limit two-stage allocation throughput.

Paper §5.1: each thread performs one two-stage allocation of a single
resource unit; a batch refill is a single atomic operation, factoring
out any real allocator so the measurement is the synchronization
primitive's ceiling.  Counting semaphores serialize every refill (all
arrivals block behind one refiller); bulk semaphores admit exactly as
many concurrent refills as unmet demand requires.

The paper plots allocations/second against concurrent threads for batch
size 512 (matching UAlloc) and reports that other batch sizes look
analogous — ``benchmarks/test_ablations.py`` sweeps them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..sim import GPUDevice, DeviceMemory, Scheduler, ops
from ..sim.trace import Tracer
from ..sync import BulkSemaphore, CountingSemaphore
from .reporting import Series, format_table, si
from .sweep import map_points


@dataclass
class Fig5Result:
    """Measured throughput curves for one batch size."""

    batch: int
    counting: Series
    bulk: Series

    def table(self) -> str:
        rows = []
        for i, x in enumerate(self.counting.xs):
            c, b = self.counting.ys[i], self.bulk.ys[i]
            rows.append([int(x), si(c), si(b), f"{b / c:.2f}x" if c else "-"])
        return format_table(
            ["threads", "counting/s", "bulk/s", "bulk speedup"], rows
        )


#: cycles a batch refill takes.  The paper idealizes the refill as "a
#: single atomic"; on real hardware the batch boundary also pays the
#: latency of waking blocked threads (microseconds).  We charge a fixed
#: refill latency so the primitive's *structure* (serial vs overlapped
#: refills), not the simulator's wake-up artifacts, sets the gap.
REFILL_CYCLES = 2000


def _bulk_kernel(ctx, sem: BulkSemaphore, batch: int, refill_addr: int):
    r = yield from sem.wait(ctx, 1, batch)
    if r == -1:
        # produce a batch of resources (overlaps with other refills)
        yield ops.sleep(REFILL_CYCLES)
        yield ops.atomic_add(refill_addr, 1)
        yield from sem.fulfill(ctx, batch - 1)


def _counting_kernel(ctx, sem: CountingSemaphore, batch: int, refill_addr: int):
    r = yield from sem.wait(ctx, 1)
    if r < 1:
        # produce a batch; every other thread is blocked meanwhile
        yield ops.sleep(REFILL_CYCLES)
        yield ops.atomic_add(refill_addr, 1)
        yield from sem.signal(ctx, batch)


def run_one(kind: str, nthreads: int, batch: int, block: int = 256,
            seed: int = 1, tracer: Optional[Tracer] = None) -> float:
    """Throughput (allocs/s) for one primitive at one thread count."""
    device = GPUDevice()
    mem = DeviceMemory(1 << 16)
    refill = mem.host_alloc(8)
    grid = -(-nthreads // block)
    if tracer is not None:
        tracer.begin_run(f"fig5:{kind} n={nthreads} batch={batch}")
    sched = Scheduler(mem, device, seed=seed, tracer=tracer)
    if kind == "bulk":
        sem = BulkSemaphore(mem)
        sched.launch(_bulk_kernel, grid, block,
                     args=(sem, batch, refill))
    elif kind == "counting":
        sem = CountingSemaphore(mem)
        sched.launch(_counting_kernel, grid, block,
                     args=(sem, batch, refill))
    else:
        raise ValueError(f"unknown primitive kind {kind!r}")
    report = sched.run()
    return report.throughput(grid * block)


def _point(spec: tuple) -> float:
    kind, nthreads, batch, block, seed, tracer = spec
    return run_one(kind, nthreads, batch, block, seed, tracer=tracer)


def run(
    thread_counts: Sequence[int],
    *,
    seed: int,
    batch: int = 512,
    block: int = 256,
    tracer: Optional[Tracer] = None,
) -> Fig5Result:
    """Reproduce Figure 5 for one batch size."""
    counting = Series("Counting Semaphores")
    bulk = Series("Bulk Semaphores")
    specs = [(kind, n, batch, block, seed, tracer) for n in thread_counts
             for kind in ("counting", "bulk")]
    for (kind, n, *_), ops_per_s in zip(specs,
                                        map_points(_point, specs, tracer)):
        (bulk if kind == "bulk" else counting).add(n, ops_per_s)
    return Fig5Result(batch=batch, counting=counting, bulk=bulk)

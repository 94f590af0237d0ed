"""Figure 5 — upper-limit two-stage allocation throughput.

Paper §5.1: each thread performs one two-stage allocation of a single
resource unit; a batch refill is a single atomic operation, factoring
out any real allocator so the measurement is the synchronization
primitive's ceiling.  Counting semaphores serialize every refill (all
arrivals block behind one refiller); bulk semaphores admit exactly as
many concurrent refills as unmet demand requires.

The paper plots allocations/second against concurrent threads for batch
size 512 (matching UAlloc) and reports that other batch sizes look
analogous — :func:`run_batches` sweeps them at one thread count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..sim import GPUDevice, DeviceMemory, Scheduler, ops
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
        return _table("threads", self.counting, self.bulk)


@dataclass
class Fig5BatchResult:
    """Throughput curves over batch size at one thread count."""

    nthreads: int
    counting: Series
    bulk: Series

    def table(self) -> str:
        return (f"{self.nthreads} threads\n"
                + _table("batch", self.counting, self.bulk))


def _table(axis: str, counting: Series, bulk: Series) -> str:
    rows = [[x, si(c), si(b), f"{b / c:.2f}x" if c else "-"]
            for x, c, b in zip(counting.xs, counting.ys, bulk.ys)]
    return format_table([axis, "counting/s", "bulk/s", "bulk speedup"], rows)


#: cycles a batch refill takes.  The paper idealizes the refill as "a
#: single atomic"; on real hardware the batch boundary also pays the
#: latency of waking blocked threads (microseconds).  We charge a fixed
#: refill latency so the primitive's *structure* (serial vs overlapped
#: refills), not the simulator's wake-up artifacts, sets the gap.
REFILL_CYCLES = 2000

#: resource units per refill in Figure 5 (UAlloc's bin batch)
BATCH = 512


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
            seed: int = 1) -> float:
    """Throughput (allocs/s) for one primitive at one thread count."""
    device = GPUDevice()
    mem = DeviceMemory(1 << 16)
    refill = mem.host_alloc(8)
    grid = -(-nthreads // block)
    sched = Scheduler(mem, device, seed=seed)
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
    kind, nthreads, batch, block, seed = spec
    return run_one(kind, nthreads, batch, block, seed)


def _curves(specs, x: int):
    """(counting, bulk) throughput against field ``x`` of the specs."""
    curves = {"counting": Series("Counting Semaphores"),
              "bulk": Series("Bulk Semaphores")}
    for spec, ops_per_s in zip(specs, map_points(_point, specs)):
        curves[spec[0]].add(spec[x], ops_per_s)
    return curves["counting"], curves["bulk"]


def run(
    thread_counts: Sequence[int],
    *,
    seed: int,
    block: int = 256,
) -> Fig5Result:
    """Reproduce Figure 5 at batch size :data:`BATCH`."""
    specs = [(kind, n, BATCH, block, seed) for n in thread_counts
             for kind in ("counting", "bulk")]
    return Fig5Result(BATCH, *_curves(specs, 1))


def run_batches(batches: Sequence[int], *, seed: int,
                nthreads: int) -> Fig5BatchResult:
    """Figure 5 at ``nthreads`` threads for every batch size (§5.1)."""
    specs = [(kind, nthreads, batch, 256, seed) for batch in batches
             for kind in ("counting", "bulk")]
    return Fig5BatchResult(nthreads, *_curves(specs, 2))

"""Figure 7 — allocator throughput and failure rate across sizes.

Paper §5.3: for every power-of-two size from 8 B to 512 KB, run exactly
enough single-``malloc`` threads to exhaust the memory pool; report
allocations/second and the fraction of calls that failed (the indirect
fragmentation measurement — with zero fragmentation nothing would
fail).

Scaling substitutions (DESIGN.md): the paper sizes pools from 8 MB to
512 MB and runs up to 2^20 threads; we scale both down proportionally
(pools 512 KB–1 MB, thousands of threads) which preserves the shape:

* UAlloc sizes (8 B–2 KB) allocate at high, roughly size-independent
  rates; failures stay low for sizes that use tails (<=128 B), rise for
  bin-residue sizes (512 B, 1 KB) and hit ~50% for the degenerate 2 KB
  class (a 4 KB bin fits only one 2 KB block).
* TBuddy sizes (>=4 KB) run at a lower, flat rate that rises as the
  thread count drops, with zero failures.
* The CUDA-like baseline serializes on its global lock at every size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..backends import get as get_backend
from ..core import AllocatorConfig
from ..sim import GPUDevice, DeviceMemory, Scheduler
from ..sim.trace import Tracer
from .reporting import Series, format_table, geometric_mean, si, size_label
from .sweep import map_points
from .workloads import malloc_storm

_NULL = DeviceMemory.NULL

#: the full Figure 7 sweep
PAPER_SIZES = tuple(8 << i for i in range(17))  # 8 B .. 512 KB
#: threads per block of every storm launch
BLOCK = 256


@dataclass
class Fig7Point:
    size: int
    allocator: str
    nthreads: int
    throughput: float       # malloc calls per virtual second
    failed: int
    cycles: int

    @property
    def failure_rate(self) -> float:
        return self.failed / self.nthreads if self.nthreads else 0.0


@dataclass
class Fig7Result:
    points: List[Fig7Point]

    def series(self) -> dict:
        out = {}
        for p in self.points:
            out.setdefault(p.allocator, Series(p.allocator)).add(p.size, p.throughput)
        return out

    def speedups(self) -> List[float]:
        """Per-size throughput ratio ours/CUDA (paper: 0.22x–346x)."""
        ours = {p.size: p.throughput for p in self.points if p.allocator == "ours"}
        cuda = {p.size: p.throughput for p in self.points if p.allocator == "cuda"}
        return [ours[s] / cuda[s] for s in sorted(ours) if s in cuda and cuda[s]]

    def mean_speedup(self) -> float:
        """Headline number (paper: 16.56x average)."""
        return geometric_mean(self.speedups())

    def table(self) -> str:
        by_size: dict = {}
        for p in self.points:
            by_size.setdefault(p.size, {})[p.allocator] = p
        rows = []
        for size in sorted(by_size):
            d = by_size[size]
            ours, cuda = d.get("ours"), d.get("cuda")
            rows.append([
                size_label(size),
                ours.nthreads if ours else "-",
                si(cuda.throughput) if cuda else "-",
                si(ours.throughput) if ours else "-",
                f"{ours.throughput / cuda.throughput:.2f}x" if ours and cuda else "-",
                f"{cuda.failure_rate:.1%}" if cuda else "-",
                f"{ours.failure_rate:.1%}" if ours else "-",
            ])
        out = format_table(
            ["size", "threads", "CUDA/s", "ours/s", "speedup",
             "CUDA fail", "ours fail"],
            rows,
        )
        sp = self.speedups()
        if sp:
            out += (f"\n\nspeedup range: {min(sp):.2f}x .. {max(sp):.2f}x  "
                    "(paper: 0.22x .. 346x)"
                    f"\nmean speedup:  {self.mean_speedup():.2f}x  "
                    "(paper mean: 16.56x)")
        return out


def pool_bytes_for(size: int, chunk_size: int, n_arenas: int,
                   max_pool: int = 1 << 20) -> int:
    """Paper-style pool sizing, scaled: grow the pool with the size
    until the cap, never below one chunk per arena."""
    floor = chunk_size * n_arenas
    want = size * 1024
    pool = max(floor, min(want, max_pool))
    # round up to a power of two of pages
    p = 1
    while p < pool:
        p <<= 1
    return p


def run_size(
    size: int,
    allocator: str,
    seed: int = 7,
    max_threads: int = 65536,
    max_pool: int = 1 << 20,
    tracer: Optional[Tracer] = None,
) -> Fig7Point:
    """Exhaust a fresh pool with single-malloc threads at one size."""
    device = GPUDevice(num_sms=2, max_resident_blocks=4)
    backend = get_backend(allocator)
    cfg = AllocatorConfig()  # paper layout: 4 KB bins, 64-bin chunks
    if backend.name in ("ours", "ours-coalesced"):
        pool = pool_bytes_for(size, cfg.chunk_size, device.num_sms, max_pool)
        nthreads = max(1, min(pool // size, max_threads))
    else:
        # Lock/stack baselines are dominated by their serialization, so
        # their throughput is concurrency-independent; measuring at a
        # proportionally smaller scale keeps simulation time sane
        # without changing the figure's shape (DESIGN.md substitutions).
        nthreads = max(1, min(4096, (max_pool // size), max_threads))
        pool = max(4096, (size + 48) * nthreads)
        pool = (pool + 15) & ~15
    grid = -(-nthreads // BLOCK)
    blk = min(BLOCK, nthreads)
    mem = DeviceMemory(pool * 2 + (4 << 20))
    handle = backend.build(mem, device, pool)
    kernel, out = malloc_storm(handle, size)
    if tracer is not None:
        tracer.begin_run(
            f"fig7:{allocator} size={size_label(size)} n={grid * blk}"
        )
    sched = Scheduler(mem, device, seed=seed, tracer=tracer)
    sched.launch(kernel, grid, blk, args=())
    report = sched.run()
    n_calls = grid * blk
    failed = sum(1 for p in out if p == _NULL)
    return Fig7Point(
        size=size,
        allocator=allocator,
        nthreads=n_calls,
        throughput=report.throughput(n_calls),
        failed=failed,
        cycles=report.cycles,
    )


def _point(spec: tuple) -> Fig7Point:
    size, allocator, seed, max_threads, tracer = spec
    return run_size(size, allocator, seed, max_threads, tracer=tracer)


def run(
    sizes: Sequence[int],
    *,
    seed: int,
    max_threads: int = 65536,
    tracer: Optional[Tracer] = None,
) -> Fig7Result:
    """Reproduce Figure 7 for both allocators across ``sizes``."""
    specs = [(size, allocator, seed, max_threads, tracer)
             for size in sizes for allocator in ("cuda", "ours")]
    return Fig7Result(map_points(_point, specs, tracer))

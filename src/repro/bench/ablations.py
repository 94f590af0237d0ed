"""Ablation benches for the design choices DESIGN.md calls out.

* **TBuddy vs global-lock buddy** — isolates the value of the state
  tree + per-order bulk semaphores over the textbook design (§4.1).
* **Collective vs per-thread mutex** — the §4.2.2 primitive, measured
  on the list-pop workload the paper motivates it with.
* **Warp coalescing** — transparent full-warp malloc vs scalar malloc
  (§2.2: Widmer et al. need a non-standard per-warp interface).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..baselines import LockBuddy
from ..core.dlist import DList
from ..core.tbuddy import TBuddy
from ..sim import GPUDevice, DeviceMemory, Scheduler
from ..sync import CollectiveMutex
from .fig7 import StormResult, run_storms
from .reporting import Series, format_table, si
from .sweep import map_points

_NULL = DeviceMemory.NULL


# ----------------------------------------------------------------------
# TBuddy vs LockBuddy
# ----------------------------------------------------------------------
@dataclass
class BuddyAblationResult:
    tbuddy: Series
    lock_buddy: Series

    def table(self) -> str:
        rows = [
            [int(x), si(self.lock_buddy.ys[i]), si(self.tbuddy.ys[i]),
             f"{self.tbuddy.ys[i] / self.lock_buddy.ys[i]:.2f}x"]
            for i, x in enumerate(self.tbuddy.xs)
        ]
        return format_table(
            ["threads", "lock buddy/s", "TBuddy/s", "speedup"], rows
        )


def _storm(ctx, buddy):
    addr = yield from buddy.alloc(ctx, 0)
    return addr


def _buddy_point(spec: tuple) -> float:
    """Throughput of one buddy design (``TBuddy`` or ``LockBuddy``)
    under ``n`` single-page allocations."""
    tree, n, block, seed = spec
    page_size = 4096
    max_order = (n - 1).bit_length() + 1  # pool comfortably > demand
    mem = DeviceMemory((page_size << max_order) + (8 << 20))
    cls = TBuddy if tree else LockBuddy
    buddy = cls(mem, 0, page_size, max_order)
    sched = Scheduler(mem, GPUDevice(), seed=seed)
    grid = -(-n // block)
    h = sched.launch(_storm, grid, min(block, n), args=(buddy,))
    report = sched.run()
    assert all(a != _NULL for a in h.results), "pool unexpectedly exhausted"
    return report.throughput(h.n_threads)


def run_buddy_ablation(
    thread_counts: Sequence[int],
    *,
    seed: int,
    block: int = 128,
) -> BuddyAblationResult:
    """Order-0 allocation storm: every thread takes one 4 KB page."""
    t_series = Series("TBuddy")
    l_series = Series("Lock buddy")
    specs = [(tree, n, block, seed) for n in thread_counts
             for tree in (True, False)]
    for (tree, n, _, _), ops_per_s in zip(specs,
                                          map_points(_buddy_point, specs)):
        (t_series if tree else l_series).add(n, ops_per_s)
    return BuddyAblationResult(tbuddy=t_series, lock_buddy=l_series)


# ----------------------------------------------------------------------
# Collective vs per-thread mutex
# ----------------------------------------------------------------------
@dataclass
class CollectiveAblationResult:
    plain: Series
    collective: Series

    def table(self) -> str:
        rows = [
            [int(x), si(self.plain.ys[i]), si(self.collective.ys[i]),
             f"{self.collective.ys[i] / self.plain.ys[i]:.2f}x"]
            for i, x in enumerate(self.plain.xs)
        ]
        return format_table(
            ["threads", "plain mutex/s", "collective/s", "speedup"], rows
        )


def _pop_plain(ctx, mutex: CollectiveMutex, lst: DList, out):
    """Each thread pops one element under its own lock acquisition."""
    yield from mutex.lock(ctx)
    node = yield from lst.first(ctx)
    if not lst.is_end(node):
        yield from lst.remove(ctx, node)
        out.append(node)
    yield from mutex.unlock(ctx)


def _pop_collective(ctx, mutex: CollectiveMutex, lst: DList, out):
    """Converged warp lanes pop k elements inside one critical section:
    one traversal splits off as many elements as there are lanes (the
    paper's 'several chunks with a single list operation')."""
    mask = yield from mutex.lock_warp(ctx)
    rank = sorted(mask).index(ctx.lane)
    if rank == 0:
        # the leader walks once and hands out popped nodes via the list
        taken = []
        node = yield from lst.first(ctx)
        while len(taken) < len(mask) and not lst.is_end(node):
            nxt = yield from lst.next(ctx, node)
            yield from lst.remove(ctx, node)
            taken.append(node)
            node = nxt
        out.extend(taken)
    yield from mutex.unlock_warp(ctx, mask)


def _collective_point(spec: tuple) -> float:
    """Throughput of one lock regime with ``n`` threads each popping one
    element of an ``n``-element list."""
    collective, n, block, seed = spec
    mem = DeviceMemory(8 << 20)
    lst = DList(mem)
    # pre-populate one node per thread (32-byte nodes)
    for _ in range(n):
        node = mem.host_alloc(32)
        # host-side insert at head
        first = mem.load_word(lst.head + lst.next_off)
        mem.store_word(node + lst.next_off, first)
        mem.store_word(node + lst.prev_off, lst.head)
        mem.store_word(first + lst.prev_off, node)
        mem.store_word(lst.head + lst.next_off, node)
    mutex = CollectiveMutex(mem)
    out: list = []
    sched = Scheduler(mem, GPUDevice(), seed=seed)
    grid = -(-n // block)
    kernel = _pop_collective if collective else _pop_plain
    sched.launch(kernel, grid, min(block, n), args=(mutex, lst, out))
    report = sched.run()
    assert len(out) == n, f"popped {len(out)} of {n}"
    assert len(set(out)) == n, "duplicate pops"
    return report.throughput(n)


def run_collective_ablation(
    thread_counts: Sequence[int],
    *,
    seed: int,
    block: int = 128,
) -> CollectiveAblationResult:
    """Every thread needs one list element; compare lock regimes."""
    plain = Series("plain mutex")
    coll = Series("collective mutex")
    specs = [(collective, n, block, seed) for n in thread_counts
             for collective in (False, True)]
    for (collective, n, _, _), ops_per_s in zip(
            specs, map_points(_collective_point, specs)):
        (coll if collective else plain).add(n, ops_per_s)
    return CollectiveAblationResult(plain=plain, collective=coll)


def run_coalescing_ablation(*, seed: int, nthreads: int) -> StormResult:
    """Every thread mallocs 64 B once, scalar and then warp-coalesced,
    counting the atomic operations each storm issues."""
    return run_storms({"scalar": (2, False), "warp-coalesced": (2, True)},
                      nthreads, seed)

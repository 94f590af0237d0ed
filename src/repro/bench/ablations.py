"""Ablation benches for the design choices DESIGN.md calls out.

* **TBuddy vs global-lock buddy** — isolates the value of the state
  tree + per-order bulk semaphores over the textbook design (§4.1).
* **Collective vs per-thread mutex** — the §4.2.2 primitive, measured
  on the list-pop workload the paper motivates it with.
* **Batch-size sweep** for Figure 5 lives in :mod:`repro.bench.fig5`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..baselines import LockBuddy
from ..core.dlist import DList
from ..core.tbuddy import TBuddy
from ..sim import GPUDevice, DeviceMemory, Scheduler, ops
from ..sync import CollectiveMutex
from .reporting import Series, format_table, si

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


def _storm_tbuddy(ctx, buddy):
    addr = yield from buddy.alloc(ctx, 0)
    return addr


def _storm_lock_buddy(ctx, buddy):
    addr = yield from buddy.alloc(ctx, 0)
    return addr


def run_buddy_ablation(
    thread_counts: Sequence[int] = (64, 256, 1024),
    block: int = 128,
    seed: int = 5,
) -> BuddyAblationResult:
    """Order-0 allocation storm: every thread takes one 4 KB page."""
    device = GPUDevice()
    page_size = 4096
    t_series = Series("TBuddy")
    l_series = Series("Lock buddy")
    for n in thread_counts:
        max_order = (n - 1).bit_length() + 1  # pool comfortably > demand
        for series, cls, kernel in (
            (t_series, "t", _storm_tbuddy),
            (l_series, "l", _storm_lock_buddy),
        ):
            mem = DeviceMemory((page_size << max_order) + (8 << 20))
            if cls == "t":
                buddy = TBuddy(mem, 0, page_size, max_order)
            else:
                buddy = LockBuddy(mem, 0, page_size, max_order)
            sched = Scheduler(mem, device, seed=seed)
            grid = -(-n // block)
            h = sched.launch(kernel, grid, min(block, n), args=(buddy,))
            report = sched.run()
            assert all(a != _NULL for a in h.results), "pool unexpectedly exhausted"
            series.add(n, report.throughput(h.n_threads))
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


def run_collective_ablation(
    thread_counts: Sequence[int] = (64, 256, 1024),
    block: int = 128,
    seed: int = 6,
) -> CollectiveAblationResult:
    """Every thread needs one list element; compare lock regimes."""
    device = GPUDevice()
    plain = Series("plain mutex")
    coll = Series("collective mutex")
    for n in thread_counts:
        for series, kernel in ((plain, _pop_plain), (coll, _pop_collective)):
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
            sched = Scheduler(mem, device, seed=seed)
            grid = -(-n // block)
            sched.launch(kernel, grid, min(block, n), args=(mutex, lst, out))
            report = sched.run()
            assert len(out) == n, f"popped {len(out)} of {n}"
            assert len(set(out)) == n, "duplicate pops"
            series.add(n, report.throughput(n))
    return CollectiveAblationResult(plain=plain, collective=coll)


def main():  # pragma: no cover - CLI convenience
    b = run_buddy_ablation()
    print("Ablation A — TBuddy vs global-lock buddy (order-0 storm):")
    print(b.table())
    c = run_collective_ablation()
    print("\nAblation B — collective vs plain mutex (list pop):")
    print(c.table())
    return b, c


if __name__ == "__main__":  # pragma: no cover
    main()

"""Figure 6 — speedup of RCU delegation over classical RCU.

Paper §5.2: a device doubly-linked list holds one element per *writer*
thread; every thread searches the list for its own tag under an RCU
read-side section.  Writer tags match a list element — the thread
unlinks it under the writer mutex, enqueues the reclamation callback,
and issues an RCU barrier.  Reader tags match nothing.  The
writer:reader ratio sweeps 1:32 … 1:2048.

Classical RCU makes every writer a *full* barrier: the writer's block
sits on its SM until the grace period drains, delaying every queued
block.  Delegation (conditional barriers) lets a writer return
immediately whenever another barrier has not yet flipped the epoch, so
writer blocks retire early and queued reader blocks launch sooner —
that resource-release effect is where the measured speedup comes from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core.dlist import DList
from ..sim import GPUDevice, DeviceMemory, Scheduler, ops
from ..sim.trace import Tracer
from ..sync import RCU, SpinLock
from .reporting import Series, format_table
from .sweep import map_points

#: element layout: word0 tag, word1 next, word2 prev
TAG_OFF = 0
ELEM_NEXT = 8
ELEM_PREV = 16
ELEM_SIZE = 24

_NULL = DeviceMemory.NULL

#: largest threads x list-length product a configuration may reach
MAX_WORK = 2.0e6


def build_list(mem: DeviceMemory, n_elems: int) -> tuple[DList, List[int]]:
    """Host-side construction of the tagged device list."""
    lst = DList(mem, next_off=ELEM_NEXT, prev_off=ELEM_PREV)
    elems = []
    prev = lst.head
    for tag in range(n_elems):
        e = mem.host_alloc(ELEM_SIZE)
        mem.store_word(e + TAG_OFF, tag)
        mem.store_word(prev + (ELEM_NEXT if prev != lst.head else ELEM_NEXT), e)
        elems.append(e)
        prev = e
    # link prev pointers and close the circle
    chain = [lst.head] + elems + [lst.head]
    for a, b in zip(chain, chain[1:]):
        mem.store_word(a + ELEM_NEXT, b)
        mem.store_word(b + ELEM_PREV, a)
    return lst, elems


def _search_remove_kernel(ctx, lst: DList, rcu: RCU, wmutex: SpinLock,
                          delegated: bool, n_writers: int, stride: int,
                          reclaimed: List[int]):
    """Search for this thread's tag; remove the element if found.

    Writers are strided across the launch (one per ``stride`` threads)
    so they land in different blocks — matching the paper's Figure 4,
    where removal threads are spread over thread-blocks.  A barrier that
    parks a writer then holds its whole block's SM residency hostage,
    which is precisely the cost delegation avoids.
    """
    if ctx.tid % stride == 0 and ctx.tid // stride < n_writers:
        tag = ctx.tid // stride
    else:
        tag = (1 << 40) + ctx.tid
    idx = yield from rcu.read_lock(ctx)
    node = yield from lst.first(ctx)
    found = _NULL
    while not lst.is_end(node):
        t = yield ops.load(node + TAG_OFF)
        if t == tag:
            found = node
            break
        node = yield from lst.next(ctx, node)
    yield from rcu.read_unlock(ctx, idx)
    if found == _NULL:
        return
    yield from wmutex.lock(ctx)
    yield from lst.remove(ctx, found)
    yield from rcu.call(ctx, _reclaim_cb, found, reclaimed)
    yield from wmutex.unlock(ctx)
    if delegated:
        yield from rcu.synchronize_conditional(ctx)
    else:
        yield from rcu.synchronize(ctx)


def _reclaim_cb(ctx, elem: int, reclaimed: List[int]):
    """[RCU callback] physically reclaim the unlinked element."""
    reclaimed.append(elem)
    yield ops.sleep(10)


@dataclass
class Fig6Point:
    ratio: int
    nthreads: int
    cycles_classical: int
    cycles_delegated: int
    delegated_share: float  # fraction of barriers that were delegated

    @property
    def speedup(self) -> float:
        return self.cycles_classical / self.cycles_delegated


@dataclass
class Fig6Result:
    points: List[Fig6Point]

    def series(self) -> Dict[int, Series]:
        out: Dict[int, Series] = {}
        for p in self.points:
            out.setdefault(p.ratio, Series(f"1:{p.ratio}")).add(p.nthreads, p.speedup)
        return out

    def table(self) -> str:
        rows = [
            [f"1:{p.ratio}", p.nthreads, p.cycles_classical, p.cycles_delegated,
             f"{p.speedup:.2f}x", f"{p.delegated_share:.0%}"]
            for p in self.points
        ]
        return format_table(
            ["ratio", "threads", "classical cyc", "delegated cyc",
             "speedup", "delegated"],
            rows,
        )


def run_one(n_writers: int, ratio: int, delegated: bool, block: int = 128,
            seed: int = 3, tracer: Optional[Tracer] = None):
    """One configuration; returns (cycles, delegated_share, ok)."""
    device = GPUDevice()
    n_threads = n_writers * (1 + ratio)
    mem = DeviceMemory(max(1 << 20, ELEM_SIZE * n_writers * 4))
    lst, elems = build_list(mem, n_writers)
    rcu = RCU(mem)
    wmutex = SpinLock(mem)
    reclaimed: List[int] = []
    grid = -(-n_threads // block)
    stride = max(1, (grid * block) // n_writers)
    if tracer is not None:
        mode = "delegated" if delegated else "classical"
        tracer.begin_run(f"fig6:{mode} ratio=1:{ratio} writers={n_writers}")
    sched = Scheduler(mem, device, seed=seed, tracer=tracer)
    sched.launch(
        _search_remove_kernel, grid, block,
        args=(lst, rcu, wmutex, delegated, n_writers, stride, reclaimed),
    )
    report = sched.run()
    rcu.drain_host()
    ok = len(reclaimed) == n_writers and not lst.host_items()
    total_barriers = rcu.barriers_full + rcu.barriers_delegated
    share = rcu.barriers_delegated / total_barriers if total_barriers else 0.0
    return report.cycles, share, ok


def _point(spec: tuple):
    n_writers, ratio, delegated, block, seed, tracer = spec
    return run_one(n_writers, ratio, delegated, block, seed, tracer=tracer)


def run(
    ratios: Sequence[int],
    thread_targets: Sequence[int],
    *,
    seed: int,
    block: int = 128,
    tracer: Optional[Tracer] = None,
) -> Fig6Result:
    """Reproduce Figure 6: speedup of delegation across ratios/threads.

    As in the paper, the x-axis is total concurrent threads and the
    writer count follows from the ratio (list length = writers = total /
    (1 + ratio)).  Configurations whose reader x list-length product
    exceeds ``MAX_WORK`` are skipped to bound simulation time; the
    remaining grid preserves the figure's shape (speedup grows with
    thread count and with the writer share).
    """
    configs = []
    for ratio in ratios:
        for target in thread_targets:
            w = max(1, target // (1 + ratio))
            if w >= 2 and w * (1 + ratio) * w <= MAX_WORK:
                configs.append((w, ratio))
    specs = [(w, ratio, delegated, block, seed, tracer)
             for w, ratio in configs for delegated in (False, True)]
    runs = map_points(_point, specs, tracer)
    points = []
    for (w, ratio), (cyc_classic, _, ok1), (cyc_deleg, share, ok2) in zip(
            configs, runs[::2], runs[1::2]):
        if not (ok1 and ok2):
            raise RuntimeError(
                f"fig6 correctness check failed (ratio={ratio}, w={w})"
            )
        points.append(Fig6Point(ratio, w * (1 + ratio), cyc_classic,
                                cyc_deleg, share))
    return Fig6Result(points)

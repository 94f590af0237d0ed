"""Fragmentation study: live bytes vs reserved bytes over churn rounds.

The paper's Figure 7 measures fragmentation indirectly through failed
allocations at exhaustion.  This complementary harness tracks it
directly over time: after each churn round (every thread mallocs, holds,
frees a random subset), it records

* ``live``      — bytes the application still holds;
* ``reserved``  — pool bytes the allocator cannot hand back to TBuddy
  (chunks kept by partially-used bins);
* ``overhead``  = reserved / live (1.0 is perfect).

Run against the paper's allocator and the bump pointer (whose reserved
bytes only ever grow — the Vinkler design the paper contrasts in §2.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..backends import get as get_backend
from ..sim import GPUDevice, DeviceMemory, Scheduler, ops
from .reporting import format_table

_NULL = DeviceMemory.NULL

#: one in KEEP_MOD blocks stays live after each round
KEEP_MOD = 8
#: block sizes, cycled through by thread id and round
SIZES = (8, 32, 64, 200, 1024)
#: pool bytes per allocator: 1024 pages of 4 KB
POOL = 4096 << 10


@dataclass
class FragPoint:
    round: int
    live: int
    reserved: int

    @property
    def overhead(self) -> float:
        return self.reserved / self.live if self.live else float("inf")


@dataclass
class FragResult:
    ours: List[FragPoint] = field(default_factory=list)
    bump: List[FragPoint] = field(default_factory=list)

    def table(self) -> str:
        rows = []
        for o, b in zip(self.ours, self.bump):
            rows.append([
                o.round, o.live, o.reserved, f"{o.overhead:.2f}x",
                b.reserved, f"{b.overhead:.2f}x",
            ])
        return format_table(
            ["round", "live B", "ours reserved", "ours ovh",
             "bump reserved", "bump ovh"],
            rows,
        )


def _round_kernel(alloc, slots, round_no):
    """Each thread allocates one block; threads with
    ``tid % KEEP_MOD != 0`` free it again at the end of the round."""

    def kernel(ctx):
        size = SIZES[(ctx.tid * 7 + round_no) % len(SIZES)]
        p = yield from alloc.malloc(ctx, size)
        if p == _NULL:
            return
        yield ops.sleep(ctx.rng.randrange(200))
        if ctx.tid % KEEP_MOD != 0:
            yield from alloc.free(ctx, p)
        else:
            slots.append((p, size))

    return kernel


def run(rounds: int, nthreads: int, *, seed: int) -> FragResult:
    """Run the churn-with-leak-in workload against both allocators."""
    device = GPUDevice(num_sms=2)
    res = FragResult()

    # --- ours -----------------------------------------------------------
    mem = DeviceMemory(POOL * 2 + (16 << 20))
    handle = get_backend("ours").build(mem, device, POOL)
    alloc = handle.allocator
    kept: List[tuple] = []
    for r in range(rounds):
        sched = Scheduler(mem, device, seed=seed + r)
        sched.launch(_round_kernel(handle, kept, r),
                     -(-nthreads // 256), min(256, nthreads))
        sched.run()
        alloc.ualloc.host_gc()
        live = handle.used_bytes()
        reserved = alloc.cfg.pool_size - alloc.tbuddy.host_free_bytes()
        res.ours.append(FragPoint(r, live, reserved))

    # --- bump -----------------------------------------------------------
    mem2 = DeviceMemory(POOL * 2 + (16 << 20))
    bhandle = get_backend("bump").build(mem2, device, POOL)
    kept2: List[tuple] = []
    live2 = 0
    for r in range(rounds):
        sched = Scheduler(mem2, device, seed=seed + r)
        before = len(kept2)
        sched.launch(_round_kernel(bhandle, kept2, r),
                     -(-nthreads // 256), min(256, nthreads))
        sched.run()
        live2 += sum(s for _, s in kept2[before:])
        res.bump.append(FragPoint(r, live2, bhandle.used_bytes()))

    return res

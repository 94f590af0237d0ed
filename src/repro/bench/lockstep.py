"""Whole-warp coalesced allocation ceiling — paper §4.2.

UAlloc's throughput story leans on *warp aggregation*: when the lanes
of a warp need memory at the same time, one elected leader performs a
single allocation for the whole group and broadcasts the base address,
so the shared allocator state sees one atomic per warp instead of one
per lane.  This bench isolates that mechanism the way fig5 isolates the
two-stage semaphore: the "allocator" is an idealized bump cursor (one
``atomic_add`` on a shared word), so the measurement is the ceiling of
the coalescing *pattern* itself, not any particular free-list design.

Two kernels run the same round structure at SIMT density:

``coalesced``
    Each round every warp converges (``warp_converge``), the leader
    bumps the shared cursor once for the whole converged mask and
    broadcasts the slab base (``warp_broadcast``), every lane stores
    and reads back its private slot, and the block barriers before the
    next round — the lockstep cadence real allocating kernels settle
    into.

``plain``
    Every lane bumps the shared cursor itself.  The cursor word
    serializes at ``atomic_service``, so lanes convoy and the warp
    desynchronizes — the 32× atomic-traffic amplification §4.2 is
    about.  Plain rounds cost ~32× more virtual time each, so the
    harness runs fewer of them (the convoy reaches steady state almost
    immediately).

Reported speedup is per-slot virtual throughput, coalesced over plain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..sim import DeviceMemory, GPUDevice, Scheduler, ops
from .reporting import Series, format_table, si

#: bytes handed to each lane per round (one 64-bit slot)
ITEM_BYTES = 8
#: threads per block
BLOCK = 256


def _coalesced_kernel(ctx, cursor: int, rounds: int, widths: List[int]):
    """Leader allocates for the converged mask; lanes share the slab."""
    checksum = 0
    seen = None  # leader/rank are derived once per distinct mask —
    lead = rank = 0  # register math on hardware, not per-round work
    for r in range(rounds):
        mask = yield ops.warp_converge()
        if mask != seen:
            seen = mask
            lanes = sorted(mask)
            lead = lanes[0]
            rank = lanes.index(ctx.lane)
        if ctx.lane == lead:
            base = yield ops.atomic_add(cursor, len(mask) * ITEM_BYTES)
            widths.append(len(mask))
            base = yield ops.warp_broadcast(mask, base)
        else:
            base = yield ops.warp_broadcast(mask)
        slot = base + rank * ITEM_BYTES
        yield ops.store(slot, (ctx.tid << 8) | (r & 0xFF))
        got = yield ops.load(slot)
        checksum += got & 0xFF
        yield ops.syncthreads()
    return checksum


def _plain_kernel(ctx, cursor: int, rounds: int, widths: List[int]):
    """Every lane allocates its own slot straight off the cursor."""
    checksum = 0
    for r in range(rounds):
        base = yield ops.atomic_add(cursor, ITEM_BYTES)
        yield ops.store(base, (ctx.tid << 8) | (r & 0xFF))
        got = yield ops.load(base)
        checksum += got & 0xFF
        yield ops.syncthreads()
    return checksum


@dataclass
class LockstepPoint:
    """One kernel variant at one launch width."""

    kind: str
    nthreads: int
    rounds: int
    slots: int              # total slots handed out (= nthreads * rounds)
    cycles: int
    slots_per_s: float
    coalesce_width_mean: float  # lanes amortized per cursor atomic


@dataclass
class LockstepResult:
    coalesced: LockstepPoint
    plain: LockstepPoint

    @property
    def speedup(self) -> float:
        """Coalesced over plain, per-slot virtual throughput."""
        return (self.coalesced.slots_per_s / self.plain.slots_per_s
                if self.plain.slots_per_s else 0.0)

    def table(self) -> str:
        rows = [
            [p.kind, p.nthreads, p.rounds, si(p.slots_per_s),
             f"{p.coalesce_width_mean:.1f}"]
            for p in (self.coalesced, self.plain)
        ]
        rows.append(["speedup", "", "", f"{self.speedup:.2f}x", ""])
        return format_table(
            ["kernel", "threads", "rounds", "slots/s", "lanes/atomic"], rows
        )


def run_one(kind: str, nthreads: int, rounds: int, seed: int = 13,
            ) -> LockstepPoint:
    """Run one variant on a fresh heap and validate every slot landed."""
    device = GPUDevice()
    pool = 1 << 16
    slab = nthreads * rounds * ITEM_BYTES
    mem = DeviceMemory(pool + slab)
    cursor = mem.host_alloc(8)
    mem.store_word(cursor, mem.host_alloc(slab))
    base0 = mem.load_word(cursor)
    kernel = _coalesced_kernel if kind == "coalesced" else _plain_kernel
    widths: List[int] = []
    sched = Scheduler(mem, device, seed=seed)
    grid = -(-nthreads // BLOCK)
    handle = sched.launch(kernel, grid, min(BLOCK, nthreads),
                          args=(cursor, rounds, widths))
    report = sched.run()
    slots = nthreads * rounds
    # every lane read back its own slot: per-round low byte sums to r
    want = sum(r & 0xFF for r in range(rounds))
    for tid, got in enumerate(handle.results):
        if got != want:
            raise AssertionError(
                f"{kind}: tid {tid} checksum {got} != {want}")
    used = mem.load_word(cursor) - base0
    if used != slots * ITEM_BYTES:
        raise AssertionError(
            f"{kind}: cursor advanced {used} bytes for {slots} slots")
    width = slots / len(widths) if widths else 1.0
    return LockstepPoint(
        kind=kind, nthreads=nthreads, rounds=rounds, slots=slots,
        cycles=report.cycles, slots_per_s=report.throughput(slots),
        coalesce_width_mean=width,
    )


def run(nthreads: int = 4096, rounds: int = 48, plain_rounds: int = 6,
        seed: int = 13) -> LockstepResult:
    """Reproduce the §4.2 coalescing ablation at one launch width."""
    co = run_one("coalesced", nthreads, rounds, seed=seed)
    pl = run_one("plain", nthreads, plain_rounds, seed=seed)
    return LockstepResult(coalesced=co, plain=pl)


def main():  # pragma: no cover - CLI convenience
    res = run()
    print("Whole-warp coalesced allocation ceiling (§4.2):")
    print(res.table())
    return res


if __name__ == "__main__":  # pragma: no cover
    main()

"""Workload builders shared by benches, examples and tests.

Each builder returns a kernel (generator function) closed over its
parameters, plus whatever host-side result containers it populates.
Kernels follow the package convention: ``kernel(ctx, ...)`` yielding
simulator ops.
"""

from __future__ import annotations

from typing import List, Sequence

from ..sim import ops
from ..sim.device import rng_randbelow
from ..sim.memory import DeviceMemory

_NULL = DeviceMemory.NULL


def malloc_storm(allocator, size: int):
    """Every thread calls ``malloc(size)`` once (the Figure 7 workload).

    Returns ``(kernel, out)`` where ``out`` collects one address (or
    NULL) per completed thread.
    """
    out: List[int] = []

    def kernel(ctx):
        p = yield from allocator.malloc(ctx, size)
        out.append(p)

    return kernel, out


#: a churn thread holds each block for a uniform draw below this many cycles
HOLD_CYCLES = 400


def churn(allocator, sizes: Sequence[int], iters: int):
    """Repeated malloc/hold/free cycles with sizes drawn per-thread.

    Exercises steady-state behaviour: bins filling and draining,
    retirement, merge traffic.  Returns ``(kernel, out)``; ``out``
    records failed allocation counts per thread.
    """
    out: List[int] = []

    def kernel(ctx):
        failures = 0
        randbelow = rng_randbelow(ctx.rng)
        nsizes = len(sizes)
        tid = ctx.tid
        for i in range(iters):
            size = sizes[(tid + i) % nsizes]
            p = yield from allocator.malloc(ctx, size)
            if p == _NULL:
                failures += 1
                yield ops.cpu_yield()
                continue
            yield (ops.OP_SLEEP, randbelow(HOLD_CYCLES))
            yield from allocator.free(ctx, p)
        out.append(failures)

    return kernel, out


def producer_consumer(allocator, size: int, slots: int, mem, iters: int):
    """Half the threads allocate and publish pointers through a mailbox
    array; the other half consume and free them.

    Crosses frees between SMs/arenas (the paper's free-anywhere path).
    Returns ``(kernel, mailbox_addr)``; the mailbox must be zeroed
    between runs.

    Every producer iteration publishes exactly one token even when
    ``malloc`` fails: a NULL result is forwarded as a poison value the
    consumer consumes without freeing.  Skipping the publish instead
    (an earlier version did) livelocks an undersized pool — the paired
    consumer spins forever on a slot nobody will ever fill and the
    scheduler eventually reports a deadlock.
    """
    mailbox = mem.host_alloc(8 * slots)
    for i in range(slots):
        mem.store_word(mailbox + 8 * i, 0)

    # Slots hold p + 1 so that 0 means "empty"; NULL is 2**64 - 1, so
    # POISON (NULL as-is) can never collide with a published p + 1.
    poison = _NULL

    def kernel(ctx):
        half = ctx.nthreads // 2
        if ctx.tid < half:  # producer
            for i in range(iters):
                p = yield from allocator.malloc(ctx, size)
                token = poison if p == _NULL else p + 1
                slot = mailbox + 8 * ((ctx.tid + i) % slots)
                # publish; spin until the slot is empty
                while True:
                    old = yield ops.atomic_cas(slot, 0, token)
                    if old == 0:
                        break
                    yield ops.cpu_yield()
        else:  # consumer
            for i in range(iters):
                slot = mailbox + 8 * (((ctx.tid - half) + i) % slots)
                while True:
                    val = yield ops.atomic_exch(slot, 0)
                    if val:
                        break
                    yield ops.cpu_yield()
                if val != poison:
                    yield from allocator.free(ctx, val - 1)

    return kernel, mailbox

"""Spin mutex in simulated device memory.

A single 64-bit word: 0 = free, 1 = held.  Lock is a CAS loop with
randomized exponential backoff (the device analogue of
``__nanosleep``-based backoff); unlock is an atomic exchange.

This is the baseline synchronization primitive the paper's techniques
are designed to out-scale: every lock/unlock round-trips the lock word,
so a contended SpinLock serializes at the word's atomic service rate.
"""

from __future__ import annotations

from ..sim import ops
from ..sim.device import ThreadCtx, rng_randbelow
from ..sim.memory import DeviceMemory

_FREE = 0
_HELD = 1
#: cap, in cycles, of the randomized exponential backoff between polls
MAX_BACKOFF = 65536


class SpinLock:
    """A test-and-test-and-set spin mutex living at a device address.

    Device-side use::

        yield from lock.lock(ctx)
        ...critical section...
        yield from lock.unlock(ctx)
    """

    __slots__ = ("mem", "addr", "_load_op", "_cas_op")

    def __init__(self, mem: DeviceMemory, addr: int | None = None):
        self.mem = mem
        self.addr = mem.host_alloc(8) if addr is None else addr
        mem.store_word(self.addr, _FREE)
        # lock()/try_lock() run once per critical section on the hottest
        # paths; their op tuples are invariant, so build them once.
        self._load_op = ops.load(self.addr)
        self._cas_op = ops.atomic_cas(self.addr, _FREE, _HELD)

    # -- device side ---------------------------------------------------
    def try_lock(self, ctx: ThreadCtx):
        """Single attempt; returns True if the lock was taken."""
        tr = ctx.trace
        t0 = tr.now(ctx) if tr is not None else 0
        old = yield self._cas_op
        if old == _FREE:
            if tr is not None:
                tr.lock_acquired(ctx, self.addr, t0)
            if ctx.fault is not None:
                # stall site: hold the lock for extra cycles
                yield ops.fault_point("spinlock.hold", self.addr)
            return True
        return False

    def lock(self, ctx: ThreadCtx):
        """Acquire, spinning with randomized exponential backoff."""
        tr = ctx.trace
        t0 = tr.now(ctx) if tr is not None else 0
        # Hot loop: the op tuples are prebuilt on the instance, so only
        # the RNG draw needs binding out of the loop.
        addr = self.addr
        max_backoff = MAX_BACKOFF
        load_op = self._load_op
        cas_op = self._cas_op
        randbelow = rng_randbelow(ctx.rng)
        backoff = 32
        while True:
            # test-and-test-and-set: read before attempting the CAS so a
            # held lock costs loads, not atomic slots.
            val = yield load_op
            if val == _FREE:
                old = yield cas_op
                if old == _FREE:
                    if tr is not None:
                        tr.lock_acquired(ctx, addr, t0)
                    if ctx.fault is not None:
                        # stall site: hold the lock for extra cycles
                        yield ops.fault_point("spinlock.hold", addr)
                    return
            yield (ops.OP_SLEEP, randbelow(backoff))
            if backoff < max_backoff:
                backoff <<= 1

    def unlock(self, ctx: ThreadCtx):
        """Release.  The caller must hold the lock."""
        yield ops.atomic_exch(self.addr, _FREE)
        if ctx.trace is not None:
            ctx.trace.lock_released(ctx, self.addr)

    # -- host side -----------------------------------------------------
    def is_locked(self) -> bool:
        """Host-side inspection (valid only while no kernel is running)."""
        return self.mem.load_word(self.addr) == _HELD

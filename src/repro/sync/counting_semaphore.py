"""Counting semaphore with the paper's grow/shrink extension (§3.2).

The semaphore value ``S`` is a signed 64-bit word.  On top of Dijkstra's
``wait``/``signal``, the paper extends ``wait(N)`` for resource pools
that can grow:

* if ``S >= N``: ``S -= N``, return ``N`` (the caller got all units);
* if ``N > S >= 0``: ``S <- -1``, return ``S`` (the caller got the last
  ``S`` units and is now *the* batch allocator — everyone else blocks);
* if ``S < 0``: block (someone is already allocating a batch).

The batch allocator later calls ``signal(B)``; the ``-1`` flag absorbs
one unit, so after ``signal(B)`` the value is ``B - 1`` — exactly the
new batch minus the unit the allocator consumed itself (paper Fig. 1a).

This primitive is the Figure 5 baseline: only one batch refill can be in
flight, so at high thread counts everybody piles up behind a single
refiller — the scalability barrier bulk semaphores remove.
"""

from __future__ import annotations

from ..sim import ops
from ..sim.device import ThreadCtx, rng_randbelow
from ..sim.memory import DeviceMemory
from ..sim.ops import to_signed, to_unsigned

_MASK64 = (1 << 64) - 1
#: cap, in cycles, of the randomized exponential backoff between polls
MAX_BACKOFF = 65536


class CountingSemaphore:
    """A growable counting semaphore at a device address."""

    __slots__ = ("mem", "addr", "_op_cache")

    #: value stored while a batch allocation is in flight
    GROWING = -1

    def __init__(self, mem: DeviceMemory, initial: int = 0):
        if initial < 0:
            raise ValueError("initial semaphore value must be non-negative")
        self.mem = mem
        self.addr = mem.host_alloc(8)
        mem.store_word(self.addr, to_unsigned(initial))
        # n -> (load_op, sub_op, add_op): wait()'s invariant op tuples,
        # cached per requested unit count (usually just n=1)
        self._op_cache: dict = {}

    # -- device side ---------------------------------------------------
    def wait(self, ctx: ThreadCtx, n: int = 1):
        """Acquire up to ``n`` units (grow-variant semantics).

        Returns ``n`` when all units were acquired, or ``r < n`` when
        only ``r`` remained — the caller is then responsible for growing
        the pool by allocating a new batch and calling :meth:`signal`.
        """
        tr = ctx.trace
        t0 = tr.now(ctx) if tr is not None else 0
        # Hot loop: the load/sub/add op tuples are invariant in
        # (self.addr, n); build them once per n and cache on the instance.
        addr = self.addr
        max_backoff = MAX_BACKOFF
        randbelow = rng_randbelow(ctx.rng)
        cached = self._op_cache.get(n)
        if cached is None:
            cached = self._op_cache[n] = (
                (ops.OP_LOAD, addr),
                (ops.OP_ADD, addr, (-n) & _MASK64),
                (ops.OP_ADD, addr, n & _MASK64),
            )
        load_op, sub_op, add_op = cached
        growing = to_unsigned(self.GROWING)
        backoff = 32
        cas_backoff = 8
        while True:
            s = to_signed((yield load_op))
            if s < 0:
                # a batch allocation is in flight; everyone blocks — this
                # stop-the-world window is the primitive's scalability
                # barrier (§3.3).
                yield (ops.OP_SLEEP, randbelow(backoff))
                if backoff < max_backoff:
                    backoff <<= 1
                continue
            if s >= n:
                # fetch-and-sub fast path (always succeeds; undo on
                # overdraw) — a pure CAS loop here livelocks under
                # massive contention, see bulk_semaphore.py.
                old = to_signed((yield sub_op))
                if old >= n:
                    if tr is not None:
                        tr.sem_waited(ctx, addr, t0, "acquired")
                    return n
                yield add_op
                continue
            # 0 <= s < n: try to become the batch allocator (rare: only
            # at batch boundaries, so CAS contention stays bounded)
            old = yield (ops.OP_CAS, addr, to_unsigned(s), growing)
            if to_signed(old) == s:
                if tr is not None:
                    tr.sem_waited(ctx, addr, t0, "grower")
                return s
            yield (ops.OP_SLEEP, randbelow(cas_backoff))
            if cas_backoff < max_backoff:
                cas_backoff <<= 1

    def try_wait(self, ctx: ThreadCtx, n: int = 1):
        """Acquire ``n`` units only if immediately available.

        Returns True on success.  Never blocks and never takes the
        batch-allocator role.
        """
        while True:
            s = to_signed((yield ops.load(self.addr)))
            if s < n:
                return False
            old = yield ops.atomic_cas(self.addr, to_unsigned(s), to_unsigned(s - n))
            if to_signed(old) == s:
                return True

    def signal(self, ctx: ThreadCtx, n: int = 1):
        """Release ``n`` units (also used to publish a new batch)."""
        yield ops.atomic_add(self.addr, n)

    # -- host side -----------------------------------------------------
    @property
    def value(self) -> int:
        """Host-side read of the semaphore value."""
        return to_signed(self.mem.load_word(self.addr))

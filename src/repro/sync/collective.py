"""Collective synchronization primitives — paper §4.2.2.

A *collective* primitive lets a group of cooperating threads acquire a
synchronization object together: one elected thread performs the actual
acquire, a group barrier ensures nobody enters the critical section
before the acquire lands, the group cooperates inside the critical
section (e.g. taking k list elements with one traversal), and the
release happens only after every member has left.

Two group flavours are provided:

* **warp-collective** — the group is the set of warp lanes that reach
  the collective call together (discovered with the simulator's
  ``warp_converge``, the ``__activemask()`` analogue).  This is what
  UAlloc uses for chunk allocation: whichever lanes of a warp need a
  chunk at the same time grab the chunk-list mutex once.
* **block-collective** — the group is the whole thread block,
  synchronized with ``syncthreads``; usable when every thread of the
  block participates (the paper's presentation).
"""

from __future__ import annotations

from ..sim import ops
from ..sim.device import ThreadCtx
from ..sim.memory import DeviceMemory
from .spinlock import SpinLock


class CollectiveMutex:
    """A mutex with collective acquire/release operations.

    Warp-collective use (any subset of a warp may participate)::

        mask = yield from cmutex.lock_warp(ctx)
        rank = sorted(mask).index(ctx.lane)      # my index in the group
        ...cooperate: thread `rank` handles the rank-th element...
        yield from cmutex.unlock_warp(ctx, mask)

    Block-collective use (every live thread of the block participates)::

        yield from cmutex.lock_block(ctx)
        ...
        yield from cmutex.unlock_block(ctx)
    """

    __slots__ = ("_mutex",)

    def __init__(self, mem: DeviceMemory):
        self._mutex = SpinLock(mem)

    # -- warp-collective -------------------------------------------------
    def lock_warp(self, ctx: ThreadCtx):
        """Collectively acquire with the lanes that converge here.

        Returns the converged mask (a frozenset of lane indices); pass it
        to :meth:`unlock_warp`.  The elected leader (lowest lane) takes
        the underlying mutex; the trailing ``warp_sync`` guarantees no
        member proceeds before the mutex is held.
        """
        mask = yield ops.warp_converge()
        if ctx.lane == min(mask):
            if ctx.trace is not None:
                # one sample per group: the coalescing width this
                # collective acquire amortized the mutex over
                ctx.trace.collective_joined(ctx, len(mask))
            yield from self._mutex.lock(ctx)
        mask = yield ops.warp_sync(mask)
        return mask

    def unlock_warp(self, ctx: ThreadCtx, mask: frozenset):
        """Collectively release; the mutex drops only after every member
        of ``mask`` has arrived."""
        yield ops.warp_sync(mask)
        if ctx.lane == min(mask):
            yield from self._mutex.unlock(ctx)

    # -- block-collective ------------------------------------------------
    def lock_block(self, ctx: ThreadCtx):
        """Collectively acquire with the entire thread block.

        The paper's own form of the collective (§4.2.2).  UAlloc and the
        collective ablation use the warp form, so only tests run this
        one; it stays as the primitive the paper presents.
        """
        if ctx.tid_in_block == 0:
            if ctx.trace is not None:
                ctx.trace.collective_joined(ctx, ctx.block_dim)
            yield from self._mutex.lock(ctx)
        yield ops.syncthreads()

    def unlock_block(self, ctx: ThreadCtx):
        """Collectively release with the entire thread block (the
        paper's §4.2.2 form; see :meth:`lock_block`)."""
        yield ops.syncthreads()
        if ctx.tid_in_block == 0:
            yield from self._mutex.unlock(ctx)

    # -- degenerate (per-thread) ------------------------------------------
    def lock(self, ctx: ThreadCtx):
        """Plain single-thread acquire (for baselines/ablation)."""
        yield from self._mutex.lock(ctx)

    def unlock(self, ctx: ThreadCtx):
        """Plain single-thread release."""
        yield from self._mutex.unlock(ctx)

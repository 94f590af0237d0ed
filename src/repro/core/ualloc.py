"""UAlloc — the fine-grained unaligned allocator (paper §4.2).

Serves power-of-two sizes up to half a bin from per-SM arenas.  Every
component uses two-stage resource management:

* **blocks** within a size class: a bulk semaphore counts free blocks
  (batch = blocks per fresh bin); the tracking stage walks the class's
  bin free-list under RCU and claims a block via the bin's count +
  bitmap.
* **bins** within an arena: a bulk semaphore counts free bins (batch =
  regular bins per chunk); the tracking stage walks the chunk list and
  claims a bin via the chunk-header bitmap.
* **chunks** come from TBuddy; freshly created chunks are inserted into
  the arena's chunk list under a *collective* mutex, so converging
  threads pay for one lock acquisition (paper §4.2.2).

Reclamation is deferred: retiring bins and chunks are unlinked first and
physically released by RCU callbacks after a grace period, issued
through *conditional* barriers so writers rarely wait (paper §4.2.1).

Every block address is misaligned with respect to the page size by
construction (see :mod:`repro.core.layout`), which lets the combined
allocator route ``free`` calls without shared ownership metadata.
"""

from __future__ import annotations

from typing import List

from ..sim import ops
from ..sim.device import ThreadCtx, rng_randbelow
from ..sim.memory import DeviceMemory
from .arena import Arena, SizeClass
from .bin_ import (
    BIN_MAGIC,
    BinOps,
    CH_ARENA_OFF,
    CH_BITMAP_OFF,
    CH_MAGIC_OFF,
    CHUNK_MAGIC,
    CHUNK_OFF,
    COUNT_OFF,
    FLAGS_OFF,
    HeapCorruption,
    LINKED,
    MAGIC_OFF,
    RETIRED,
    SIZE_OFF,
    UNLINKED,
)
from .config import AllocatorConfig
from .layout import BinLayout
from .tbuddy import TBuddy

_NULL = DeviceMemory.NULL
_ALL_ONES = (1 << 64) - 1


class UAlloc:
    """Fine-grained allocator over a TBuddy-backed pool.

    New chunks enter an arena's chunk list under the collective mutex
    (§4.2.2); ``bench/ablations.py`` measures it against per-thread
    locking.
    """

    def __init__(
        self,
        mem: DeviceMemory,
        cfg: AllocatorConfig,
        tbuddy: TBuddy,
        pool_base: int,
        num_arenas: int,
    ):
        self.mem = mem
        self.cfg = cfg
        self.tbuddy = tbuddy
        self.pool_base = pool_base
        self.binops = BinOps(cfg)
        self.layout = BinLayout(cfg)
        self.arenas: List[Arena] = [Arena(mem, cfg, i)
                                    for i in range(num_arenas)]
        # initial bin-bitmap word: the two special bins pre-claimed
        self._fresh_bitmap = 0b11
        if cfg.bins_per_chunk < 64:
            # mark non-existent bins as used
            self._fresh_bitmap |= (_ALL_ONES << cfg.bins_per_chunk) & _ALL_ONES

    # ------------------------------------------------------------------
    # malloc
    # ------------------------------------------------------------------
    def arena_of(self, ctx: ThreadCtx) -> Arena:
        """The arena serving this thread (one per SM)."""
        return self.arenas[ctx.sm % len(self.arenas)]

    def malloc(self, ctx: ThreadCtx, size: int):
        """Allocate one ``size``-byte block (``size`` must be a
        power-of-two size class).  Returns the address or NULL."""
        arena = self.arena_of(ctx)
        sc = arena.size_class(size)
        r = yield from sc.sem.wait(ctx, 1, sc.capacity)
        if r == 0:
            addr = yield from self._take_from_lists(ctx, arena, sc)
        else:
            addr = yield from self._new_bin_take(ctx, arena, sc)
        return addr

    def malloc_coalesced(self, ctx: ThreadCtx, size: int):
        """Warp-coalesced allocation (paper §2.2 / §4: "we transparently
        coalesce requests within the allocator ... using specialized
        paths for single-threaded and full-warp operations").

        Lanes of a warp that request the same size class at the same
        time are grouped with a ``__match_any_sync``-style rendezvous;
        the group leader acquires all the group's blocks — one semaphore
        operation, one list traversal — and broadcasts the addresses.
        Falls back to the scalar path for singleton groups.
        """
        cls = self.cfg.class_index(size)
        mask = yield ops.warp_match(("ualloc", id(self), cls))
        n = len(mask)
        if n == 1:
            addr = yield from self.malloc(ctx, size)
            return addr
        rank = sorted(mask).index(ctx.lane)
        if rank == 0:
            arena = self.arena_of(ctx)
            sc = arena.size_class(size)
            addrs = yield from self._take_n(ctx, arena, sc, n)
            got = yield ops.warp_broadcast(mask, tuple(addrs))
        else:
            got = yield ops.warp_broadcast(mask)
        return got[rank] if rank < len(got) else _NULL

    def _take_n(self, ctx: ThreadCtx, arena: Arena, sc: SizeClass, n: int):
        """Leader path: acquire up to ``n`` blocks of one class.

        Accounts for all ``n`` with a single bulk-semaphore ``wait``
        (plus a remainder wait when the class's batch is smaller than
        the group), then claims blocks from as few bins as possible.
        Returns the list of acquired addresses (may be shorter than
        ``n`` on pool exhaustion).
        """
        addrs = []
        remaining = n
        while remaining > 0:
            # want <= capacity, so the batch parameter is the capacity
            want = min(remaining, sc.capacity)
            r = yield from sc.sem.wait(ctx, want, sc.capacity)
            if r == -1:
                # batch stage: a fresh bin covers `want` of our blocks
                res = yield from self._claim_bin(ctx, arena)
                if res is None:
                    yield from sc.sem.renege(ctx, sc.capacity - want)
                    break
                chunk, bin_index = res
                bin_addr = chunk + bin_index * self.cfg.bin_size
                # pre-claim the whole group's blocks at init: zero extra
                # atomics for the entire coalesced batch
                cap = yield from self.binops.init_bin(
                    ctx, bin_addr, chunk, sc.size, preclaim=want
                )
                for kk in range(want):
                    addrs.append(self.layout.block_addr(
                        chunk, bin_index, sc.size, kk))
                leftover = cap - want
                if leftover > 0:
                    yield from sc.lock.lock(ctx)
                    yield from sc.bins.insert_head(ctx, bin_addr)
                    yield ops.store(bin_addr + FLAGS_OFF, LINKED)
                    yield from sc.lock.unlock(ctx)
                    yield from sc.sem.fulfill(ctx, leftover)
                remaining -= want
                continue
            # tracking stage: `want` blocks exist across the listed
            # bins; claim them in bulk, bin by bin
            taken = 0
            backoff = 32
            while taken < want:
                idx = yield from arena.rcu.read_lock(ctx)
                node = yield from sc.bins.first(ctx)
                exhausted = []
                while not sc.bins.is_end(node) and taken < want:
                    got, took_last = yield from self.binops.try_take_k(
                        ctx, node, want - taken
                    )
                    if got:
                        chunk = yield ops.load(node + CHUNK_OFF)
                        bin_index = (node - chunk) // self.cfg.bin_size
                        for kk in got:
                            addrs.append(self.layout.block_addr(
                                chunk, bin_index, sc.size, kk))
                        taken += len(got)
                        if took_last:
                            exhausted.append(node)
                    node = yield from sc.bins.next(ctx, node)
                yield from arena.rcu.read_unlock(ctx, idx)
                for node in exhausted:
                    yield from self._unlink_if_empty(ctx, sc, node)
                if taken < want:
                    yield ops.sleep(ctx.rng.randrange(backoff))
                    if backoff < 4096:
                        backoff <<= 1
            remaining -= want
        return addrs

    def _take_from_lists(self, ctx: ThreadCtx, arena: Arena, sc: SizeClass):
        """Tracking stage: claim one block from some listed bin.  The
        semaphore stage guaranteed a free block exists (or is about to be
        published), so this loops until it finds one."""
        backoff = 32
        # Hot path: inline the DList hops (one load each) and bind the
        # per-iteration callables out of the loop.  The op sequence is
        # identical to the method-based traversal.
        bins = sc.bins
        head = bins.head
        next_off = bins.next_off
        _load = ops.OP_LOAD
        try_take = self.binops.try_take
        randbelow = rng_randbelow(ctx.rng)
        read_lock = arena.rcu.read_lock
        read_unlock = arena.rcu.read_unlock
        while True:
            idx = yield from read_lock(ctx)
            node = yield (_load, head + next_off)
            got = None
            while node != head:
                res = yield from try_take(ctx, node)
                if res is not None:
                    got = (node, res[0], res[1])
                    break
                node = yield (_load, node + next_off)
            yield from read_unlock(ctx, idx)
            if got is not None:
                bin_addr, index, took_last = got
                if took_last:
                    yield from self._unlink_if_empty(ctx, sc, bin_addr)
                chunk = yield ops.load(bin_addr + CHUNK_OFF)
                bin_index = (bin_addr - chunk) // self.cfg.bin_size
                return self.layout.block_addr(chunk, bin_index, sc.size, index)
            yield (ops.OP_SLEEP, randbelow(backoff))
            if backoff < 4096:
                backoff <<= 1

    def _new_bin_take(self, ctx: ThreadCtx, arena: Arena, sc: SizeClass):
        """Batch stage: claim a fresh bin, keep block 0, publish the rest."""
        res = yield from self._claim_bin(ctx, arena)
        if res is None:
            yield from sc.sem.renege(ctx, sc.capacity - 1)
            return _NULL
        chunk, bin_index = res
        bin_addr = chunk + bin_index * self.cfg.bin_size
        cap = yield from self.binops.init_bin(ctx, bin_addr, chunk, sc.size)
        if cap > 1:
            yield from sc.lock.lock(ctx)
            yield from sc.bins.insert_head(ctx, bin_addr)
            yield ops.store(bin_addr + FLAGS_OFF, LINKED)
            yield from sc.lock.unlock(ctx)
            yield from sc.sem.fulfill(ctx, cap - 1)
        return self.layout.block_addr(chunk, bin_index, sc.size, 0)

    # ------------------------------------------------------------------
    # bins and chunks
    # ------------------------------------------------------------------
    def _claim_bin(self, ctx: ThreadCtx, arena: Arena):
        """Two-stage bin allocation; returns (chunk_base, bin_index) or
        None when the pool is exhausted."""
        r = yield from arena.bin_sem.wait(ctx, 1, self.cfg.n_regular_bins)
        if r == 0:
            claimed = yield from self._claim_bin_from_chunks(ctx, arena)
            return claimed
        return (yield from self._new_chunk(ctx, arena))

    def _claim_bin_from_chunks(self, ctx: ThreadCtx, arena: Arena):
        backoff = 32
        # Inlined chunk-list hops; op sequence identical to the
        # method-based walk (see _take_from_lists).
        chunks = arena.chunks
        head = chunks.head
        next_off = chunks.next_off
        _load = ops.OP_LOAD
        randbelow = rng_randbelow(ctx.rng)
        while True:
            idx = yield from arena.rcu.read_lock(ctx)
            node = yield (_load, head + next_off)
            claimed = None
            while node != head:
                while True:
                    word = yield (_load, node + CH_BITMAP_OFF)
                    if word == _ALL_ONES:
                        break
                    free = (~word) & _ALL_ONES
                    bit = free & (-free)
                    old = yield ops.atomic_or(node + CH_BITMAP_OFF, bit)
                    if not (old & bit):
                        claimed = (node, bit.bit_length() - 1)
                        break
                if claimed is not None:
                    break
                node = yield (_load, node + next_off)
            yield from arena.rcu.read_unlock(ctx, idx)
            if claimed is not None:
                return claimed
            yield (ops.OP_SLEEP, randbelow(backoff))
            if backoff < 4096:
                backoff <<= 1

    def _new_chunk(self, ctx: ThreadCtx, arena: Arena):
        """Allocate a chunk from TBuddy, claim bin 2, and insert the
        chunk into the arena list under the collective mutex."""
        if ctx.fault is not None:
            # renege site: the chunk allocation fails after the bin-sem
            # batch promise — the failure arm below must renege it.
            act = yield ops.fault_point("ualloc.new_chunk", arena.index)
            chunk = _NULL if act is not None else (
                yield from self.tbuddy.alloc(ctx, self.cfg.chunk_order)
            )
        else:
            chunk = yield from self.tbuddy.alloc(ctx, self.cfg.chunk_order)
        if chunk == _NULL:
            yield from arena.bin_sem.renege(ctx, self.cfg.n_regular_bins - 1)
            return None
        yield ops.store(chunk + CH_ARENA_OFF, arena.index)
        yield ops.store(chunk + CH_MAGIC_OFF, CHUNK_MAGIC)
        yield ops.store(chunk + CH_BITMAP_OFF, self._fresh_bitmap | 0b100)
        # Converging threads acquire the list mutex once and insert
        # their chunks serially inside the shared critical section.
        mask = yield from arena.chunk_mutex.lock_warp(ctx)
        for lane in sorted(mask):
            if lane == ctx.lane:
                yield from arena.chunks.insert_head(ctx, chunk)
            yield ops.warp_sync(mask)
        yield from arena.chunk_mutex.unlock_warp(ctx, mask)
        yield from arena.bin_sem.fulfill(ctx, self.cfg.n_regular_bins - 1)
        return (chunk, 2)

    def _unlink_if_empty(self, ctx: ThreadCtx, sc: SizeClass, bin_addr: int):
        """Remove an exhausted bin from its free-list (revalidated under
        the list lock: a racing free may have already replenished it)."""
        yield from sc.lock.lock(ctx)
        flags = yield ops.load(bin_addr + FLAGS_OFF)
        count = yield ops.load(bin_addr + COUNT_OFF)
        if flags == LINKED and count == 0:
            yield from sc.bins.remove(ctx, bin_addr)
            yield ops.store(bin_addr + FLAGS_OFF, UNLINKED)
        yield from sc.lock.unlock(ctx)

    def _link_if_needed(self, ctx: ThreadCtx, sc: SizeClass, bin_addr: int):
        """Re-insert a previously exhausted bin that has free blocks again."""
        yield from sc.lock.lock(ctx)
        flags = yield ops.load(bin_addr + FLAGS_OFF)
        count = yield ops.load(bin_addr + COUNT_OFF)
        if flags == UNLINKED and 0 < count < RETIRED:
            yield from sc.bins.insert_head(ctx, bin_addr)
            yield ops.store(bin_addr + FLAGS_OFF, LINKED)
        yield from sc.lock.unlock(ctx)

    # ------------------------------------------------------------------
    # free
    # ------------------------------------------------------------------
    def free(self, ctx: ThreadCtx, addr: int):
        """Release a block.  The owning arena is read from the chunk
        header — frees may come from any SM."""
        chunk = self.layout.chunk_of(self.pool_base, addr)
        magic = yield ops.load(chunk + CH_MAGIC_OFF)
        if magic != CHUNK_MAGIC:
            raise HeapCorruption(
                f"free({addr:#x}): containing chunk {chunk:#x} has bad magic"
            )
        bin_index, logical = self.layout.locate(chunk, addr)
        bin_addr = chunk + bin_index * self.cfg.bin_size
        bmagic = yield ops.load(bin_addr + MAGIC_OFF)
        if bmagic != BIN_MAGIC:
            raise HeapCorruption(
                f"free({addr:#x}): owning bin {bin_addr:#x} has bad magic"
            )
        size = yield ops.load(bin_addr + SIZE_OFF)
        index = self.layout.block_index(logical, size)
        oldc = yield from self.binops.release_block(ctx, bin_addr, index)
        arena_idx = yield ops.load(chunk + CH_ARENA_OFF)
        arena = self.arenas[arena_idx]
        sc = arena.size_class(size)
        if oldc == 0:
            yield from self._link_if_needed(ctx, sc, bin_addr)
        yield from sc.sem.post(ctx, 1)
        if oldc + 1 == sc.capacity:
            yield from self._try_retire_bin(ctx, arena, sc, bin_addr, chunk, bin_index)

    # ------------------------------------------------------------------
    # retirement (deferred reclamation)
    # ------------------------------------------------------------------
    def _try_retire_bin(self, ctx: ThreadCtx, arena: Arena, sc: SizeClass,
                        bin_addr: int, chunk: int, bin_index: int):
        """Opportunistically give a fully-free bin back to its chunk.

        Claims all of the bin's blocks from the class semaphore, marks
        the count RETIRED (making the blocks unclaimable), unlinks it,
        and defers the physical release past an RCU grace period so
        stale readers can still walk off the bin's list links.
        """
        got = yield from sc.sem.try_wait(ctx, sc.capacity)
        if not got:
            return
        old = yield ops.atomic_cas(bin_addr + COUNT_OFF, sc.capacity, RETIRED)
        if old != sc.capacity:
            yield from sc.sem.post(ctx, sc.capacity)
            return
        yield from sc.lock.lock(ctx)
        flags = yield ops.load(bin_addr + FLAGS_OFF)
        if flags == LINKED:
            yield from sc.bins.remove(ctx, bin_addr)
            yield ops.store(bin_addr + FLAGS_OFF, UNLINKED)
        yield from sc.lock.unlock(ctx)
        yield from arena.rcu.call(ctx, self._release_bin_cb, arena.index,
                                  chunk, bin_index)
        yield from arena.rcu.synchronize_conditional(ctx)

    def _release_bin_cb(self, ctx: ThreadCtx, arena_idx: int, chunk: int,
                        bin_index: int):
        """[RCU callback] Return a retired bin to its chunk's bitmap and,
        if the chunk is now empty, try to retire the chunk too."""
        arena = self.arenas[arena_idx]
        yield ops.atomic_and(chunk + CH_BITMAP_OFF, ~(1 << bin_index))
        yield from arena.bin_sem.post(ctx, 1)
        word = yield ops.load(chunk + CH_BITMAP_OFF)
        if word == self._fresh_bitmap:
            yield from self._try_retire_chunk(ctx, arena, chunk)

    def _try_retire_chunk(self, ctx: ThreadCtx, arena: Arena, chunk: int):
        """Opportunistically return an empty chunk to TBuddy (claims all
        of its bins, unlinks it, defers the TBuddy free past a grace
        period)."""
        got = yield from arena.bin_sem.try_wait(ctx, self.cfg.n_regular_bins)
        if not got:
            return
        old = yield ops.atomic_cas(
            chunk + CH_BITMAP_OFF, self._fresh_bitmap, _ALL_ONES
        )
        if old != self._fresh_bitmap:
            yield from arena.bin_sem.post(ctx, self.cfg.n_regular_bins)
            return
        # single-thread lock here: retirement may run inside an RCU
        # callback, where collective convergence would be inappropriate
        yield from arena.chunk_mutex.lock(ctx)
        yield from arena.chunks.remove(ctx, chunk)
        yield from arena.chunk_mutex.unlock(ctx)
        yield from arena.rcu.call(ctx, self._free_chunk_cb, chunk)

    def _free_chunk_cb(self, ctx: ThreadCtx, chunk: int):
        """[RCU callback] Physically return a retired chunk to TBuddy.

        The magic is cleared only here: until the grace period elapses
        the block is still a (retiring) chunk to host-side walkers."""
        yield ops.store(chunk + CH_MAGIC_OFF, 0)
        yield from self.tbuddy.free(ctx, chunk)

    # ------------------------------------------------------------------
    # host-side introspection
    # ------------------------------------------------------------------
    def host_check(self) -> None:
        """Quiescent semaphore-accounting invariants (§3.3 applied to
        §4.2's two-stage hierarchy); raises AssertionError on violation.

        * every bulk semaphore has ``E == R == 0`` — each batch promise
          was fulfilled or reneged — and ``C`` below the borrow guard;
        * per size class, ``C`` equals the total free-block count over
          the class's live (non-retired) bins;
        * per arena, the bin semaphore's ``C`` equals the number of free
          bin slots across the arena's listed chunks.

        Tolerates pending deferred reclamation: retired bins and
        unlinked retiring chunks are excluded from both sides of each
        ledger by construction.
        """
        from ..sync.bulk_semaphore import C_GUARD

        for arena in self.arenas:
            free_blocks = [0] * len(arena.classes)
            free_slots = 0
            for chunk in arena.chunks.host_items():
                magic = self.mem.load_word(chunk + CH_MAGIC_OFF)
                assert magic == CHUNK_MAGIC, (
                    f"arena {arena.index}: listed chunk {chunk:#x} has bad "
                    f"magic {magic:#x}"
                )
                bitmap = self.mem.load_word(chunk + CH_BITMAP_OFF)
                for b in range(2, self.cfg.bins_per_chunk):
                    if not bitmap & (1 << b):
                        free_slots += 1
                        continue
                    info = self.binops.host_summary(
                        self.mem, chunk + b * self.cfg.bin_size
                    )
                    if info["count"] >= RETIRED:
                        continue  # capacity already claimed by retirement
                    free_blocks[self.cfg.class_index(info["size"])] += info["count"]
            c, e, r = arena.bin_sem.counters
            assert e == 0 and r == 0, (
                f"arena {arena.index} bin_sem: E={e} R={r} at quiescence "
                "(a batch promise was neither fulfilled nor reneged)"
            )
            assert c < C_GUARD, f"arena {arena.index} bin_sem: C={c} borrowed"
            assert c == free_slots, (
                f"arena {arena.index} bin_sem: C={c} but {free_slots} free "
                "bin slots in listed chunks"
            )
            for sc, expect in zip(arena.classes, free_blocks):
                c, e, r = sc.sem.counters
                assert e == 0 and r == 0, (
                    f"arena {arena.index} class {sc.size}: E={e} R={r} at "
                    "quiescence (a batch promise was neither fulfilled nor "
                    "reneged)"
                )
                assert c < C_GUARD, (
                    f"arena {arena.index} class {sc.size}: C={c} borrowed"
                )
                assert c == expect, (
                    f"arena {arena.index} class {sc.size}: sem C={c} but "
                    f"{expect} free blocks in live bins"
                )

    def host_drain_reclamation(self) -> int:
        """Run all pending RCU callbacks host-side (quiescent only)."""
        n = 0
        for arena in self.arenas:
            # drain repeatedly: chunk retirement enqueues more callbacks
            while arena.rcu.pending_callbacks:
                n += arena.rcu.drain_host()
        return n

    def host_gc(self) -> int:
        """Complete all *opportunistic* reclamation host-side.

        Device-side bin/chunk retirement is best-effort: a retirement
        races with concurrent allocations and simply gives up when it
        loses, leaving fully-free bins linked and empty chunks live.
        At quiescence this sweep finishes the job deterministically by
        replaying the same retirement paths through the host driver.
        Returns the number of chunks returned to TBuddy.
        """
        from ..sim.hostrun import drive, host_ctx

        self.host_drain_reclamation()
        before = sum(len(a.chunks.host_items()) for a in self.arenas)
        ctx = host_ctx()
        for arena in self.arenas:
            for chunk in list(arena.chunks.host_items()):
                bitmap = self.mem.load_word(chunk + CH_BITMAP_OFF)
                for bin_index in range(2, self.cfg.bins_per_chunk):
                    if not bitmap & (1 << bin_index):
                        continue
                    bin_addr = chunk + bin_index * self.cfg.bin_size
                    info = self.binops.host_summary(self.mem, bin_addr)
                    if info["count"] == info["capacity"] and info["capacity"] > 0:
                        arena_obj = self.arenas[
                            self.mem.load_word(chunk + CH_ARENA_OFF)
                        ]
                        sc = arena_obj.size_class(info["size"])
                        drive(self.mem, self._try_retire_bin(
                            ctx, arena_obj, sc, bin_addr, chunk, bin_index
                        ))
                self.host_drain_reclamation()
            self.host_drain_reclamation()
        # chunk retirement may have been enqueued by the drains above
        for arena in self.arenas:
            while arena.rcu.pending_callbacks:
                arena.rcu.drain_host()
        after = sum(len(a.chunks.host_items()) for a in self.arenas)
        return before - after

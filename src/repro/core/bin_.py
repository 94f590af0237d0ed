"""Bin headers and their device-side operations (paper §4.2, Figure 3).

Every UAlloc bin starts with a 128-byte header:

====  ======  =====================================================
word  offset  contents
====  ======  =====================================================
0     0       block size (bytes) of this bin's size class
1     8       free block count (``RETIRED`` sentinel while retiring)
2     16      free-list ``next`` link (shared layout with DList)
3     24      free-list ``prev`` link
4     32      link flags: UNLINKED / LINKED (mutated under list lock)
5-12  40-96   occupancy bitmap, 512 bits (bit set = block unavailable)
13    104     capacity (blocks this bin actually holds)
14    112     owning chunk base address
15    120     magic (corruption tripwire)
====  ======  =====================================================

Bits at and beyond ``capacity`` are pre-set at init time so the bitmap
"allows allocating only the number of available blocks" (paper §4.2).

The chunk header occupies the same 128 bytes at the start of bin 0:

====  ======  =====================================================
0     0       bin-occupancy bitmap (bit set = bin in use; bits 0-1
              pre-set; all-ones = chunk retiring)
1     8       owning arena index
2     16      chunk-list ``next`` link
3     24      chunk-list ``prev`` link
4     32      magic
====  ======  =====================================================
"""

from __future__ import annotations

from ..sim import ops
from ..sim.device import ThreadCtx, rng_randbelow
from ..sim.errors import SimError
from ..sim.memory import DeviceMemory
from .config import AllocatorConfig

# bin header word offsets (bytes)
SIZE_OFF = 0
COUNT_OFF = 8
NEXT_OFF = 16
PREV_OFF = 24
FLAGS_OFF = 32
BITMAP_OFF = 40
BITMAP_WORDS = 8
CAPACITY_OFF = 104
CHUNK_OFF = 112
MAGIC_OFF = 120

# chunk header word offsets
CH_BITMAP_OFF = 0
CH_ARENA_OFF = 8
CH_MAGIC_OFF = 32

BIN_MAGIC = 0xB13B13B13B13B13B
CHUNK_MAGIC = 0xC04FC04FC04FC04F

#: free-count sentinel marking a bin being retired (blocks unclaimable)
RETIRED = 1 << 32

# link flag values
UNLINKED = 0
LINKED = 1

_ALL_ONES = (1 << 64) - 1


class HeapCorruption(SimError):
    """A header magic check failed — wild write or routing bug."""


class DoubleFree(SimError):
    """free() of a block not currently allocated: its bin bitmap bit or
    its TBuddy node's allocated bit was already clear."""


class BinOps:
    """Device-side bin header operations for one configuration."""

    __slots__ = ("cfg",)

    def __init__(self, cfg: AllocatorConfig):
        self.cfg = cfg

    # ------------------------------------------------------------------
    # init
    # ------------------------------------------------------------------
    def init_bin(self, ctx: ThreadCtx, bin_addr: int, chunk_base: int, size: int,
                 preclaim: int = 1):
        """Initialize a freshly claimed bin for ``size``-byte blocks,
        with blocks ``0..preclaim-1`` pre-allocated to the caller (the
        warp-coalesced path pre-claims a whole group's blocks for free).
        Returns the capacity."""
        cap = self.cfg.bin_capacity(size)
        if not (1 <= preclaim <= cap):
            raise ValueError(f"preclaim {preclaim} outside 1..{cap}")
        yield ops.store(bin_addr + SIZE_OFF, size)
        yield ops.store(bin_addr + CAPACITY_OFF, cap)
        yield ops.store(bin_addr + CHUNK_OFF, chunk_base)
        yield ops.store(bin_addr + FLAGS_OFF, UNLINKED)
        yield ops.store(bin_addr + MAGIC_OFF, BIN_MAGIC)
        # bitmap: the caller's pre-claimed blocks plus every bit >= cap
        for w in range(BITMAP_WORDS):
            lo, hi = w * 64, w * 64 + 64
            word = 0
            if cap <= lo:
                word = _ALL_ONES
            elif cap < hi:
                word = (_ALL_ONES << (cap - lo)) & _ALL_ONES
            if preclaim > lo:
                word |= (1 << min(preclaim - lo, 64)) - 1
            yield ops.store(bin_addr + BITMAP_OFF + 8 * w, word)
        # publish the count last: a positive count is what makes the bin
        # usable to concurrent searchers.
        yield ops.store(bin_addr + COUNT_OFF, cap - preclaim)
        return cap

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def try_take(self, ctx: ThreadCtx, bin_addr: int):
        """Reserve and claim one block from the bin.

        Returns ``(block_index, took_last)`` or ``None`` when the bin has
        no free blocks (or is being retired).  The count is decremented
        *before* the bitmap search — two-stage management in miniature:
        a successful decrement guarantees a clear bit exists.

        The decrement is a guarded fetch-and-sub (undone on overdraw),
        not a CAS loop: hot bins serve thousands of concurrent claims
        and a CAS loop would collapse (see bulk_semaphore.py).
        """
        count_addr = bin_addr + COUNT_OFF
        count = yield (ops.OP_LOAD, count_addr)
        if count == 0 or count >= RETIRED:
            return None
        cap = yield (ops.OP_LOAD, bin_addr + CAPACITY_OFF)
        old = yield (ops.OP_ADD, count_addr, _ALL_ONES)  # atomic_sub(count, 1)
        if not (1 <= old <= cap):
            # empty, retired, or transiently overdrawn: undo and give up
            yield (ops.OP_ADD, count_addr, 1)
            return None
        idx = yield from self._claim_bit(ctx, bin_addr)
        return idx, old == 1

    def _claim_bit(self, ctx: ThreadCtx, bin_addr: int):
        """Find and set a clear bitmap bit; the caller holds a count
        reservation so one is guaranteed to turn up."""
        cap = yield ops.load(bin_addr + CAPACITY_OFF)
        nwords = (cap + 63) // 64
        randbelow = rng_randbelow(ctx.rng)
        start = randbelow(nwords)
        while True:
            for i in range(nwords):
                w = (start + i) % nwords
                waddr = bin_addr + BITMAP_OFF + 8 * w
                while True:
                    word = yield ops.load(waddr)
                    if word == _ALL_ONES:
                        break
                    free = (~word) & _ALL_ONES
                    # Scatter: claim a *random* clear bit, not the lowest
                    # — concurrent claimants racing for the same bit
                    # would serialize into retry waves (the collision
                    # problem ScatterAlloc's hashing solves, paper §2.2).
                    nfree = free.bit_count()
                    pick = randbelow(nfree)
                    for _ in range(pick):
                        free &= free - 1  # drop lowest set bit
                    bit = free & (-free)
                    old = yield ops.atomic_or(waddr, bit)
                    if not (old & bit):
                        return w * 64 + bit.bit_length() - 1
                    # lost the race for that bit; rescan this word
            yield ops.cpu_yield()

    def try_take_k(self, ctx: ThreadCtx, bin_addr: int, k: int):
        """Claim up to ``k`` blocks in bulk (warp-coalesced leader path).

        Reserves min(k, count) via one fetch-and-sub, then claims whole
        groups of bits with single atomic ORs — one memory operation can
        secure up to 64 blocks.  Returns a (possibly empty) list of
        block indices; ``took_last`` semantics are folded in by checking
        the post-decrement count against zero via the returned amount.
        Returns ``(indices, took_last)``.
        """
        count = yield ops.load(bin_addr + COUNT_OFF)
        if count == 0 or count >= RETIRED:
            return [], False
        cap = yield ops.load(bin_addr + CAPACITY_OFF)
        want = min(k, count, cap)
        old = yield ops.atomic_sub(bin_addr + COUNT_OFF, want)
        if not (want <= old <= cap):
            # raced with a drain or retirement: undo, maybe retry smaller
            yield ops.atomic_add(bin_addr + COUNT_OFF, want)
            return [], False
        took_last = old == want
        got: list = []
        nwords = (cap + 63) // 64
        start = ctx.rng.randrange(nwords)
        scan = 0
        while len(got) < want:
            w = (start + scan) % nwords
            waddr = bin_addr + BITMAP_OFF + 8 * w
            word = yield ops.load(waddr)
            free = (~word) & _ALL_ONES
            if free:
                # select up to the remaining need from this word's bits
                need = want - len(got)
                pick = free
                extra = pick.bit_count() - need
                while extra > 0:
                    pick &= pick - 1  # drop lowest surplus bits
                    extra -= 1
                old_word = yield ops.atomic_or(waddr, pick)
                newly = pick & ~old_word
                b = newly
                while b:
                    low = b & (-b)
                    got.append(w * 64 + low.bit_length() - 1)
                    b &= b - 1
                if newly != pick:
                    continue  # lost some bits to a racer; rescan word
            scan += 1
            if scan >= nwords:
                scan = 0
                yield ops.cpu_yield()
        return got, took_last

    # ------------------------------------------------------------------
    # free
    # ------------------------------------------------------------------
    def release_block(self, ctx: ThreadCtx, bin_addr: int, index: int):
        """Clear block ``index``'s bit and bump the count.

        Returns the pre-increment count.  Raises :class:`DoubleFree` if
        the bit was already clear.
        """
        cap = yield ops.load(bin_addr + CAPACITY_OFF)
        if index >= cap:
            raise HeapCorruption(
                f"block index {index} beyond capacity {cap} in bin {bin_addr:#x}"
            )
        waddr = bin_addr + BITMAP_OFF + 8 * (index // 64)
        bit = 1 << (index % 64)
        old = yield ops.atomic_and(waddr, ~bit)
        if not (old & bit):
            raise DoubleFree(
                f"block {index} of bin {bin_addr:#x} freed while already free"
            )
        oldc = yield ops.atomic_add(bin_addr + COUNT_OFF, 1)
        return oldc

    # ------------------------------------------------------------------
    # host-side introspection
    # ------------------------------------------------------------------
    def host_summary(self, mem: DeviceMemory, bin_addr: int) -> dict:
        """Decode a bin header for tests/stats."""
        magic = mem.load_word(bin_addr + MAGIC_OFF)
        if magic != BIN_MAGIC:
            raise HeapCorruption(f"bad bin magic at {bin_addr:#x}: {magic:#x}")
        cap = mem.load_word(bin_addr + CAPACITY_OFF)
        bits = 0
        for w in range(BITMAP_WORDS):
            word = mem.load_word(bin_addr + BITMAP_OFF + 8 * w)
            lo = w * 64
            for b in range(64):
                if lo + b >= cap:
                    break
                if word & (1 << b):
                    bits += 1
        return {
            "size": mem.load_word(bin_addr + SIZE_OFF),
            "capacity": cap,
            "count": mem.load_word(bin_addr + COUNT_OFF),
            "flags": mem.load_word(bin_addr + FLAGS_OFF),
            "used_blocks": bits,
            "chunk": mem.load_word(bin_addr + CHUNK_OFF),
        }

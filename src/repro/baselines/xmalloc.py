"""XMalloc-style baseline [Huang et al. 2010] (paper §2.2).

The first GPU allocator: lock-free stacks of pre-defined-size bins,
refilled by carving superblocks off a coarse region.  Our rendition:

* per-size-class Treiber stacks of free blocks (push/pop via CAS on the
  stack head; the pop is the classic CAS loop, so this baseline
  *exhibits* the hot-word collapse the paper's two-stage design avoids
  — that contrast is the point of including it);
* an atomic bump region supplies superblocks; an empty stack refills by
  carving one superblock into blocks and pushing the spares;
* every block is preceded by an 8-byte size header so ``free`` needs no
  out-of-band metadata.

Freed memory returns to the class stack; superblocks are never returned
to the region (the original's coarse blocks were likewise long-lived).
"""

from __future__ import annotations

from typing import Dict, List

from ..sim import ops
from ..sim.device import ThreadCtx, rng_randbelow
from ..sim.errors import SimError
from ..sim.memory import DeviceMemory

_NULL = DeviceMemory.NULL
HDR = 8  # size header ahead of each block


class XMallocError(SimError):
    """Invalid free or corrupted stack."""


class XMalloc:
    """Lock-free bin-stack allocator over ``[base, base+size)``."""

    #: the smallest size class
    min_alloc = 16
    #: the largest size class, and so the largest request served
    max_alloc = 4096

    def __init__(self, mem: DeviceMemory, base: int, size: int,
                 superblock: int = 1 << 16):
        if base % 8 or size % 8:
            raise ValueError("pool must be 8-byte aligned")
        self.mem = mem
        self.base = base
        self.size = size
        self.superblock = superblock
        self.bump_addr = mem.host_alloc(8)
        mem.store_word(self.bump_addr, 0)
        # One stack head per size class.  The head word packs a
        # 24-bit version tag above the entry (block_addr + 1, 0 = empty)
        # — the classic ABA countermeasure for Treiber stacks (XMalloc's
        # queues are likewise tagged).
        self.classes: List[int] = []
        s = self.min_alloc
        while s <= self.max_alloc:
            self.classes.append(s)
            s <<= 1
        self.heads: Dict[int, int] = {}
        for s in self.classes:
            h = mem.host_alloc(8)
            mem.store_word(h, 0)
            self.heads[s] = h

    def _round(self, nbytes: int) -> int:
        s = self.min_alloc
        while s < nbytes:
            s <<= 1
        return s

    # ------------------------------------------------------------------
    # Treiber stack.  A free block's first *payload* word holds the next
    # pointer; the size header word stays intact for the block's whole
    # life.
    # ------------------------------------------------------------------
    _TAG_SHIFT = 40
    _ENTRY_MASK = (1 << 40) - 1
    _TAG_MASK = (1 << 24) - 1

    def _push(self, ctx: ThreadCtx, head: int, block: int):
        backoff = 8
        load_head = (ops.OP_LOAD, head)
        entry_mask = self._ENTRY_MASK
        tag_mask = self._TAG_MASK
        tag_shift = self._TAG_SHIFT
        randbelow = rng_randbelow(ctx.rng)
        while True:
            word = yield load_head
            top = word & entry_mask
            tag = (word >> tag_shift) & tag_mask
            yield ops.store(block + HDR, top)
            new = (((tag + 1) & tag_mask) << tag_shift) | (block + 1)
            old = yield (ops.OP_CAS, head, word, new)
            if old == word:
                return
            yield (ops.OP_SLEEP, randbelow(backoff))
            if backoff < 8192:
                backoff <<= 1

    def _pop(self, ctx: ThreadCtx, head: int):
        backoff = 8
        load_head = (ops.OP_LOAD, head)
        entry_mask = self._ENTRY_MASK
        tag_mask = self._TAG_MASK
        tag_shift = self._TAG_SHIFT
        randbelow = rng_randbelow(ctx.rng)
        while True:
            word = yield load_head
            top = word & entry_mask
            if top == 0:
                return _NULL
            tag = (word >> tag_shift) & tag_mask
            block = top - 1
            nxt = yield (ops.OP_LOAD, block + HDR)
            new = (((tag + 1) & tag_mask) << tag_shift) | (nxt & entry_mask)
            old = yield (ops.OP_CAS, head, word, new)
            if old == word:
                return block
            yield (ops.OP_SLEEP, randbelow(backoff))
            if backoff < 8192:
                backoff <<= 1

    # ------------------------------------------------------------------
    def malloc(self, ctx: ThreadCtx, nbytes: int):
        """Pop from the class stack, refilling from the bump region."""
        if nbytes <= 0 or nbytes > self.max_alloc:
            return _NULL
        size = self._round(nbytes)
        head = self.heads[size]
        retries = 0
        while True:
            block = yield from self._pop(ctx, head)
            if block != _NULL:
                return block + HDR
            refilled = yield from self._refill(ctx, size)
            if not refilled:
                # region exhausted — but a concurrent refiller's pushes
                # may still be landing; retry the pop a bounded number
                # of times before reporting OOM
                retries += 1
                if retries > 30:
                    return _NULL
                yield ops.sleep(ctx.rng.randrange(min(64 << retries, 32768)))

    def _refill(self, ctx: ThreadCtx, size: int):
        """Carve one superblock into `size`-class blocks and splice the
        whole chain onto the stack with a single CAS (bulk push)."""
        stride = HDR + size
        count = max(1, self.superblock // stride)
        need = count * stride
        old = yield ops.atomic_add(self.bump_addr, need)
        if old + need > self.size:
            # burned tail, like any bump design
            return False
        head = self.heads[size]
        blocks = [self.base + old + i * stride for i in range(count)]
        for i, block in enumerate(blocks):
            yield ops.store(block, size)  # size header
            if i + 1 < count:
                yield ops.store(block + HDR, blocks[i + 1] + 1)
        first, last = blocks[0], blocks[-1]
        backoff = 8
        while True:
            word = yield ops.load(head)
            top = word & self._ENTRY_MASK
            tag = (word >> self._TAG_SHIFT) & self._TAG_MASK
            yield ops.store(last + HDR, top)
            new = (((tag + 1) & self._TAG_MASK) << self._TAG_SHIFT) | (first + 1)
            got = yield ops.atomic_cas(head, word, new)
            if got == word:
                return True
            yield ops.sleep(ctx.rng.randrange(backoff))
            if backoff < 8192:
                backoff <<= 1

    def free(self, ctx: ThreadCtx, addr: int):
        """Push the block back onto its class stack."""
        if addr == _NULL:
            return
        block = addr - HDR
        if not (self.base <= block < self.base + self.size):
            raise XMallocError(f"free of {addr:#x} outside the pool")
        size = yield ops.load(block)
        if size not in self.heads:
            raise XMallocError(f"free of {addr:#x}: corrupt size header {size}")
        yield from self._push(ctx, self.heads[size], block)

    # ------------------------------------------------------------------
    def host_carved(self) -> Dict[int, int]:
        """Blocks carved from the region per size class (quiescent only).

        Walks the bump region by size headers — every block keeps its
        header for life, so the carved layout is fully recoverable.
        """
        carved = {s: 0 for s in self.classes}
        end = min(self.mem.load_word(self.bump_addr), self.size)
        off = 0
        while off < end:
            size = self.mem.load_word(self.base + off)
            if size == 0:
                # burned tail: a failed refill bumps the offset without
                # carving headers, so the region ends here
                break
            if size not in carved:
                raise XMallocError(
                    f"corrupt size header {size} at offset {off}"
                )
            carved[size] += 1
            off += HDR + size
        if off > end:
            raise XMallocError(
                f"region walk overran the bump offset ({off} > {end})"
            )
        return carved

    def host_used_bytes(self) -> int:
        """Bytes in live blocks: carved minus stacked, per class
        (quiescent only).  Headers are not counted — this is payload
        capacity handed to callers, matching what ``malloc`` returned."""
        carved = self.host_carved()
        return sum(
            (carved[s] - self.host_stack_depth(s)) * s for s in self.classes
        )

    def host_check(self) -> None:
        """Every stacked block must lie in the carved region and no
        class stack may hold more blocks than were ever carved."""
        carved = self.host_carved()
        for s in self.classes:
            depth = self.host_stack_depth(s)
            if depth > carved[s]:
                raise XMallocError(
                    f"class {s}: stack holds {depth} blocks but only "
                    f"{carved[s]} were carved"
                )

    def host_stack_depth(self, size: int) -> int:
        """Free blocks on one class stack (quiescent only)."""
        depth = 0
        top = self.mem.load_word(self.heads[size]) & self._ENTRY_MASK
        while top:
            depth += 1
            top = self.mem.load_word(top - 1 + HDR) & self._ENTRY_MASK
            if depth > 10_000_000:
                raise XMallocError("stack corrupt")
        return depth

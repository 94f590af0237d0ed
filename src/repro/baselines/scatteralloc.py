"""ScatterAlloc-style baseline [Steinberger et al. 2012] (paper §2.2).

The defining idea: scatter atomic operations across page bitmaps with a
hash so that concurrent threads rarely collide.  The pool is carved
into fixed-size pages at init; a page is lazily bound to one size class
and serves blocks out of a bitmap; allocation hashes the thread id to a
starting page and probes from there.

The paper borrows the scattering idea for TBuddy's tree traversal; this
module provides the design as a standalone comparator.

Simplifications vs the original: pages hold at most 64 blocks (one
bitmap word), no region hierarchy, large allocations are simply
rejected — the paper's own comparison treats ScatterAlloc as a
small-allocation allocator layered on the CUDA allocator for big
requests.
"""

from __future__ import annotations

from ..sim import ops
from ..sim.device import ThreadCtx
from ..sim.errors import SimError
from ..sim.memory import DeviceMemory

_NULL = DeviceMemory.NULL
_ALL_ONES = (1 << 64) - 1

# page metadata: two words per page
META_SIZE_OFF = 0   # block size this page serves (0 = unbound)
META_BITMAP_OFF = 8


class ScatterAllocError(SimError):
    """Invalid free or metadata corruption."""


class ScatterAlloc:
    """Hashed-bitmap page allocator over ``[base, base+size)``."""

    #: bytes per page, and so the largest request served
    page_size = 4096
    #: the smallest block size
    min_alloc = 16
    #: hashed pages a malloc probes before it returns NULL
    max_probe = 32

    def __init__(self, mem: DeviceMemory, base: int, size: int):
        if base % self.page_size or size % self.page_size:
            raise ValueError("pool must be page aligned")
        self.mem = mem
        self.base = base
        self.size = size
        self.n_pages = size // self.page_size
        self.meta = mem.host_alloc(16 * self.n_pages)
        mem.fill_words(self.meta, 2 * self.n_pages, 0)

    # ------------------------------------------------------------------
    def _meta_addr(self, page: int) -> int:
        return self.meta + 16 * page

    def blocks_per_page(self, size: int) -> int:
        return min(64, self.page_size // size)

    def _round(self, nbytes: int) -> int:
        size = self.min_alloc
        while size < nbytes:
            size <<= 1
        return size

    # ------------------------------------------------------------------
    def malloc(self, ctx: ThreadCtx, nbytes: int):
        """Hashed-probe allocation; returns the address or NULL.

        NULL is returned for requests beyond a page or when
        ``max_probe`` hashed pages are all full (the design trades
        worst-case coverage for collision-freedom, which is exactly the
        fragmentation behaviour the paper contrasts with).
        """
        if nbytes <= 0:
            return _NULL
        size = self._round(nbytes)
        if size > self.page_size:
            return _NULL
        nblocks = self.blocks_per_page(size)
        full_mask = (1 << nblocks) - 1
        # multiplicative hash scatters threads over pages
        start = (ctx.tid * 0x9E3779B9 + ctx.rng.randrange(1 << 16)) % self.n_pages
        for j in range(self.max_probe):
            page = (start + j * j + j) % self.n_pages  # quadratic probe
            maddr = self._meta_addr(page)
            psize = yield ops.load(maddr + META_SIZE_OFF)
            if psize == 0:
                # try to bind the page to our size class
                old = yield ops.atomic_cas(maddr + META_SIZE_OFF, 0, size)
                psize = size if old == 0 else old
            if psize != size:
                continue
            # claim a random clear bit in the page's bitmap
            while True:
                word = yield ops.load(maddr + META_BITMAP_OFF)
                free = (~word) & full_mask
                if not free:
                    break
                pick = ctx.rng.randrange(free.bit_count())
                b = free
                for _ in range(pick):
                    b &= b - 1
                bit = b & (-b)
                old = yield ops.atomic_or(maddr + META_BITMAP_OFF, bit)
                if not (old & bit):
                    k = bit.bit_length() - 1
                    return self.base + page * self.page_size + k * size
        return _NULL

    def free(self, ctx: ThreadCtx, addr: int):
        """Clear the block's bit; raises for any invalid address.

        ``free(NULL)`` is a no-op (the shared backend contract) — it
        used to fall through the range check and raise, which made
        NULL-tolerant workloads backend-dependent.
        """
        if addr == _NULL:
            return
        off = addr - self.base
        if not (0 <= off < self.size):
            raise ScatterAllocError(f"free of {addr:#x} outside the pool")
        page = off // self.page_size
        maddr = self._meta_addr(page)
        size = yield ops.load(maddr + META_SIZE_OFF)
        if size == 0:
            raise ScatterAllocError(f"free of {addr:#x} in an unbound page")
        local = off % self.page_size
        if local % size:
            raise ScatterAllocError(f"{addr:#x} is not a block base")
        bit = 1 << (local // size)
        old = yield ops.atomic_and(maddr + META_BITMAP_OFF, ~bit)
        if not (old & bit):
            raise ScatterAllocError(f"double free of {addr:#x}")
        # Pages stay bound to their size class: unbinding on the last
        # free would race a concurrent claim in the same page (and the
        # original design likewise reuses pages within their class).
        # The cost is cross-class fragmentation — part of what the
        # paper's chunk/bin recycling improves on.

    # ------------------------------------------------------------------
    def host_used_blocks(self) -> int:
        """Total blocks currently allocated (quiescent only)."""
        used = 0
        for p in range(self.n_pages):
            used += self.mem.load_word(self._meta_addr(p) + META_BITMAP_OFF).bit_count()
        return used

    def host_used_bytes(self) -> int:
        """Bytes currently allocated: per-page bitmap population times
        the page's bound block size (quiescent only)."""
        used = 0
        for p in range(self.n_pages):
            maddr = self._meta_addr(p)
            size = self.mem.load_word(maddr + META_SIZE_OFF)
            if size:
                bits = self.mem.load_word(maddr + META_BITMAP_OFF)
                used += bits.bit_count() * size
        return used

    def host_bound_pages(self) -> int:
        """Pages currently bound to a size class (quiescent only)."""
        return sum(
            1 for p in range(self.n_pages)
            if self.mem.load_word(self._meta_addr(p) + META_SIZE_OFF)
        )

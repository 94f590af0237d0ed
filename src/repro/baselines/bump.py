"""Vinkler-style bump-pointer baseline [Vinkler & Havran 2014].

A single atomically incremented offset: allocation is one ``atomicAdd``,
``free`` is a no-op.  The paper cites this as the register-cheap design
whose price is unbounded fragmentation — memory is only recovered by
rebuilding the pool.  Used as the throughput upper bound and the
fragmentation lower bound in ablation benches.
"""

from __future__ import annotations

from ..sim import ops
from ..sim.device import ThreadCtx
from ..sim.errors import SimError
from ..sim.memory import DeviceMemory

_NULL = DeviceMemory.NULL


class BumpFreeError(SimError):
    """Free of an address the bump pool never contained."""


class BumpAllocator:
    """Atomic bump allocator over ``[base, base+size)``."""

    def __init__(self, mem: DeviceMemory, base: int, size: int, align: int = 16):
        if align <= 0 or align & (align - 1):
            raise ValueError("align must be a power of two")
        self.mem = mem
        self.base = base
        self.size = size
        self.align = align
        self.off_addr = mem.host_alloc(8)
        mem.store_word(self.off_addr, 0)
        #: in-pool frees absorbed as no-ops (host-side counter) — the
        #: backend contract's "documented no-op with a counter"
        self.n_noop_frees = 0

    def malloc(self, ctx: ThreadCtx, nbytes: int):
        """One atomic add; returns NULL once the pool is spent."""
        if nbytes <= 0:
            return _NULL
        need = (nbytes + self.align - 1) & ~(self.align - 1)
        old = yield ops.atomic_add(self.off_addr, need)
        if old + need > self.size:
            # Burned the tail of the pool; later frees cannot recover it
            # (the defining weakness of this design).
            return _NULL
        return self.base + old

    def free(self, ctx: ThreadCtx, addr: int):
        """In-pool frees are counted no-ops; out-of-pool frees raise.

        The design recovers nothing per-block (only rebuilding the pool
        reclaims), but a free of an address this pool never handed out
        is still a caller bug — silently ignoring it used to mask
        cross-allocator pointer mixups in comparison benches.
        ``free(NULL)`` is the universal no-op and is not counted.
        """
        if addr != _NULL:
            if not (self.base <= addr < self.base + self.size):
                raise BumpFreeError(
                    f"free({addr:#x}): address outside the bump pool "
                    f"[{self.base:#x}, {self.base + self.size:#x})"
                )
            self.n_noop_frees += 1
        if False:  # pragma: no cover - keeps this a generator
            yield

    @property
    def used_bytes(self) -> int:
        """Bytes consumed so far (host-side)."""
        return min(self.mem.load_word(self.off_addr), self.size)

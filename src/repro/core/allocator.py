"""The combined throughput-oriented allocator (paper §4).

``malloc`` rounds the request up to a power of two and routes it: sizes
up to half a bin go to :class:`~repro.core.ualloc.UAlloc`, larger sizes
to :class:`~repro.core.tbuddy.TBuddy`.  ``free`` routes purely by
address alignment — TBuddy results are always page aligned, UAlloc
results never are — so no shared ownership structure exists to contend
on (the paper's "key property").
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim import ops
from ..sim.device import GPUDevice, ThreadCtx
from ..sim.memory import DeviceMemory
from .config import DEFAULT_CONFIG, AllocatorConfig, round_up_pow2
from .tbuddy import InvalidFree, TBuddy
from .ualloc import UAlloc

_NULL = DeviceMemory.NULL


@dataclass
class AllocStats:
    """Host-side counters accumulated across kernel runs.

    Counting contract
    -----------------
    * ``n_malloc`` counts **every** ``malloc``/``malloc_coalesced``
      call, including invalid-size calls — historically ``nbytes <= 0``
      returned NULL without touching the stats, which silently skewed
      ``failure_rate`` against runs that probe edge sizes.
    * ``n_malloc_failed`` counts every NULL return and always equals
      ``n_invalid_size + n_exhaustion`` (failures are classified by
      cause, never double-counted).
    * ``n_free`` counts every completed ``free`` call, including the
      ``free(NULL)`` no-op (tracked separately in ``n_free_null``).
      Frees that *raise* (``InvalidFree``/``DoubleFree``) are not
      counted: the call did not release anything, and a malloc/free
      delta of zero must continue to certify a leak-free episode.
    * ``n_robust_retries``/``n_transient`` are only touched by
      :meth:`ThroughputAllocator.malloc_robust`: retries it issued, and
      failed attempts that a later retry of the same call recovered.
    """

    n_malloc: int = 0
    n_malloc_failed: int = 0
    n_free: int = 0
    #: malloc calls rejected for a non-positive size (subset of failed)
    n_invalid_size: int = 0
    #: malloc calls that returned NULL on a valid size (subset of failed)
    n_exhaustion: int = 0
    #: free(NULL) no-op calls (subset of n_free)
    n_free_null: int = 0
    #: retries issued by malloc_robust after a NULL attempt
    n_robust_retries: int = 0
    #: failed attempts recovered by a later malloc_robust retry
    n_transient: int = 0

    @property
    def failure_rate(self) -> float:
        """Fraction of malloc calls that returned NULL."""
        return self.n_malloc_failed / self.n_malloc if self.n_malloc else 0.0


@dataclass(frozen=True)
class PressureGauge:
    """Host-readable snapshot of remaining pool supply.

    Built from the TBuddy per-order bulk-semaphore ledgers, so reading
    it costs one word per order and no tree walk.  Exact at quiescence;
    during a run it is a best-effort gauge (transient claim borrows are
    clamped to zero rather than reported as garbage counts).
    """

    #: free blocks per TBuddy order, index = order
    free_per_order: tuple

    #: bytes of one order-0 block
    page_size: int

    #: total pool bytes
    pool_bytes: int

    @property
    def free_bytes(self) -> int:
        """Bytes of free supply across all orders."""
        return sum(
            n * (self.page_size << order)
            for order, n in enumerate(self.free_per_order)
        )

    @property
    def pressure(self) -> float:
        """Fraction of the pool currently *not* free: 0.0 = everything
        free, 1.0 = fully committed (allocations or metadata)."""
        if not self.pool_bytes:
            return 0.0
        return 1.0 - min(1.0, self.free_bytes / self.pool_bytes)


class ThroughputAllocator:
    """Device-side ``malloc``/``free`` over a simulated memory pool.

    Typical setup::

        mem = DeviceMemory(64 << 20)
        alloc = ThroughputAllocator(mem, device)

        def kernel(ctx):
            p = yield from alloc.malloc(ctx, 48)
            ...
            yield from alloc.free(ctx, p)

    Chunk-list inserts always use the collective mutex (§4.2.2);
    ``bench/ablations.py`` measures it against per-thread locking.
    """

    def __init__(
        self,
        mem: DeviceMemory,
        device: GPUDevice,
        cfg: AllocatorConfig = DEFAULT_CONFIG,
    ):
        self.mem = mem
        self.cfg = cfg
        # Chunk-aligned base makes chunk_of() pure masking and guarantees
        # the page-alignment routing property.
        self.pool_base = mem.host_alloc(cfg.pool_size, align=cfg.chunk_size)
        self.tbuddy = TBuddy(mem, self.pool_base, cfg.page_size,
                             cfg.pool_order)
        self.ualloc = UAlloc(mem, cfg, self.tbuddy, self.pool_base,
                             device.num_sms)
        self.stats = AllocStats()

    # ------------------------------------------------------------------
    # device-side interface
    # ------------------------------------------------------------------
    def malloc(self, ctx: ThreadCtx, nbytes: int):
        """Allocate at least ``nbytes``; returns the address or NULL.

        Every call is counted in :class:`AllocStats`, invalid sizes
        included (see the counting contract there)."""
        if nbytes <= 0:
            self._count_invalid_size()
            return _NULL
        size = round_up_pow2(max(nbytes, self.cfg.min_alloc))
        if size <= self.cfg.max_ualloc_size:
            addr = yield from self.ualloc.malloc(ctx, size)
        else:
            addr = yield from self.tbuddy.alloc_bytes(ctx, size)
        self.stats.n_malloc += 1
        if addr == _NULL:
            self.stats.n_malloc_failed += 1
            self.stats.n_exhaustion += 1
        return addr

    def malloc_coalesced(self, ctx: ThreadCtx, nbytes: int):
        """Warp-coalescing ``malloc``: converging lanes that request the
        same size class are served by one leader operation (the paper's
        transparent full-warp specialized path).

        Semantically identical to :meth:`malloc`; profitable when whole
        warps allocate together (the common data-parallel pattern), at
        the cost of a convergence rendezvous when they do not.
        """
        if nbytes <= 0:
            self._count_invalid_size()
            return _NULL
        size = round_up_pow2(max(nbytes, self.cfg.min_alloc))
        if size <= self.cfg.max_ualloc_size:
            addr = yield from self.ualloc.malloc_coalesced(ctx, size)
        else:
            addr = yield from self.tbuddy.alloc_bytes(ctx, size)
        self.stats.n_malloc += 1
        if addr == _NULL:
            self.stats.n_malloc_failed += 1
            self.stats.n_exhaustion += 1
        return addr

    def _count_invalid_size(self) -> None:
        self.stats.n_malloc += 1
        self.stats.n_malloc_failed += 1
        self.stats.n_invalid_size += 1

    def malloc_robust(self, ctx: ThreadCtx, nbytes: int, max_retries: int = 4,
                      backoff_base: int = 256, backoff_cap: int = 16384):
        """Bounded-retry ``malloc`` with randomized exponential backoff.

        The graceful-degradation wrapper for callers that prefer a
        slower allocation over a NULL under transient pressure (a storm
        of reneges, supply still in flight up the split chain).  Retries
        at most ``max_retries`` times, sleeping a randomized
        exponentially-growing interval between attempts; gives up — and
        lets the caller see NULL — when the failure persists, so a truly
        exhausted pool still fails fast enough to act on.

        Invalid sizes are not retried: the failure is permanent by
        construction.  Each attempt is counted normally in
        :class:`AllocStats`; additionally ``n_robust_retries`` counts
        retries issued, and attempts that a later retry of this call
        recovered are recorded in ``n_transient`` (so
        ``n_exhaustion - n_transient`` estimates *hard* exhaustion).

        Parameters are validated *eagerly* (this is a plain function
        returning the retry generator), so a bad ``backoff_base=0`` or
        negative ``max_retries`` raises ``ValueError`` at the call site
        instead of surfacing as an opaque ``randrange(0)`` crash
        mid-kernel.  The sleep interval is always drawn from
        ``min(backoff, backoff_cap)``: a ``backoff_base`` above the cap
        (or a doubling that overshoots it) sleeps at the cap, never past
        it.
        """
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0 (got {max_retries})")
        if backoff_base <= 0:
            raise ValueError(f"backoff_base must be > 0 (got {backoff_base})")
        if backoff_cap <= 0:
            raise ValueError(f"backoff_cap must be > 0 (got {backoff_cap})")
        return self._malloc_robust(ctx, nbytes, max_retries,
                                   backoff_base, backoff_cap)

    def _malloc_robust(self, ctx: ThreadCtx, nbytes: int, max_retries: int,
                       backoff_base: int, backoff_cap: int):
        if nbytes <= 0:
            self._count_invalid_size()
            return _NULL
        failures = 0
        backoff = backoff_base
        while True:
            addr = yield from self.malloc(ctx, nbytes)
            if addr != _NULL:
                self.stats.n_transient += failures
                return addr
            failures += 1
            if failures > max_retries:
                return _NULL
            self.stats.n_robust_retries += 1
            yield ops.sleep(ctx.rng.randrange(min(backoff, backoff_cap)))
            if backoff < backoff_cap:
                backoff <<= 1

    def free(self, ctx: ThreadCtx, addr: int):
        """Release a block returned by :meth:`malloc` (NULL is a no-op).

        Raises :class:`~repro.core.tbuddy.InvalidFree` for addresses
        outside the pool: alignment routing would otherwise hand the
        address to UAlloc, whose chunk-of masking computes a garbage
        chunk base and reports an opaque ``HeapCorruption``.

        ``free(NULL)`` counts in ``n_free``/``n_free_null`` — it is a
        completed call per the :class:`AllocStats` contract (frees that
        raise are the ones left uncounted).
        """
        if addr == _NULL:
            self.stats.n_free += 1
            self.stats.n_free_null += 1
            return
        if not (0 <= addr - self.pool_base < self.cfg.pool_size):
            raise InvalidFree(
                f"free({addr:#x}): address outside the pool "
                f"[{self.pool_base:#x}, {self.pool_base + self.cfg.pool_size:#x})"
            )
        self.stats.n_free += 1
        if (addr - self.pool_base) % self.cfg.page_size == 0:
            yield from self.tbuddy.free(ctx, addr)
        else:
            yield from self.ualloc.free(ctx, addr)

    # ------------------------------------------------------------------
    # host-side introspection
    # ------------------------------------------------------------------
    def host_pressure(self) -> PressureGauge:
        """Snapshot remaining pool supply from the TBuddy semaphore
        ledgers (one word read per order — no tree walk, so it is safe
        to poll while a kernel runs).

        Free supply at each order is the order semaphore's ``C``;
        an in-flight claim borrow (``C >= C_GUARD``) clamps to 0 for
        that order rather than reporting a wrapped count.  Exact at
        quiescence.
        """
        from ..sync.bulk_semaphore import C_GUARD

        free = tuple(
            (0 if c >= C_GUARD else c)
            for c in (sem.value for sem in self.tbuddy.sems)
        )
        return PressureGauge(
            free_per_order=free,
            page_size=self.cfg.page_size,
            pool_bytes=self.cfg.pool_size,
        )

    def host_drain_reclamation(self) -> int:
        """Finish all deferred reclamation host-side (quiescent only)."""
        return self.ualloc.host_drain_reclamation()

    def host_live_chunks(self) -> list[int]:
        """Chunk base addresses currently allocated from TBuddy
        (quiescent only; distinguishes chunks from direct coarse
        allocations via the chunk magic)."""
        from .bin_ import CH_MAGIC_OFF, CHUNK_MAGIC

        out = []
        for addr, order in self.tbuddy.host_allocated_blocks():
            if (
                order == self.cfg.chunk_order
                and self.mem.load_word(addr + CH_MAGIC_OFF) == CHUNK_MAGIC
            ):
                out.append(addr)
        return out

    def host_used_bytes(self) -> int:
        """Bytes currently handed out to the application (quiescent
        only): UAlloc blocks in use plus direct TBuddy allocations —
        allocator metadata (headers, empty bins, retiring chunks)
        excluded."""
        from .bin_ import CH_BITMAP_OFF, RETIRED

        all_ones = (1 << 64) - 1
        chunks = set(self.host_live_chunks())
        used = 0
        for addr, order in self.tbuddy.host_allocated_blocks():
            if addr in chunks:
                bitmap = self.mem.load_word(addr + CH_BITMAP_OFF)
                if bitmap == all_ones and order == self.cfg.chunk_order:
                    continue  # retiring: reclamation pending, nothing live
                for b in range(2, self.cfg.bins_per_chunk):
                    if not bitmap & (1 << b):
                        continue
                    info = self.ualloc.binops.host_summary(
                        self.mem, addr + b * self.cfg.bin_size
                    )
                    if info["count"] < RETIRED:
                        used += info["used_blocks"] * info["size"]
            else:
                used += self.cfg.page_size << order
        return used

    def host_check(self) -> None:
        """Quiescent-state consistency check of the whole allocator."""
        self.tbuddy.check_invariants()
        for arena in self.ualloc.arenas:
            arena.chunks.host_check()
            for sc in arena.classes:
                sc.bins.host_check()
        self.ualloc.host_check()

    def host_checkpoint(self, expect_leak_free: bool = False) -> None:
        """Full quiescent checkpoint for verification sweeps: finish
        opportunistic reclamation, validate every structural and
        accounting invariant, and optionally assert that no bytes remain
        handed out (leak accounting after a full-free phase)."""
        self.ualloc.host_gc()
        self.host_check()
        if expect_leak_free:
            used = self.host_used_bytes()
            assert used == 0, (
                f"leak: {used} bytes still handed out at a full-free checkpoint"
            )

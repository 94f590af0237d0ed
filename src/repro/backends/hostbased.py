"""Host-based allocator backend (Bell et al., arXiv 2405.07079).

The design point the paper argues for: keep *all* allocator metadata on
the host and let the device request memory through a command channel.
The device never touches bookkeeping words, so there is no device-side
contention at all; the price is a host round-trip on every call, and a
single host thread serializing the requests.

Our rendition maps that onto the simulator naturally:

* metadata lives in host Python structures (an address-ordered free
  list plus a live table) — zero device-memory traffic for bookkeeping;
* a ``malloc``/``free`` pays a fixed travel latency
  (``yield ops.sleep(...)``) and then queues at the host's command
  channel — modeled as a device-resident mutex held for the host's
  per-request service time.  The mutex word is a simulation stand-in
  for the queue (in hardware it lives host-side), but it charges the
  requester exactly what the real bottleneck costs: requests are
  serviced one at a time, so throughput caps at
  ``1 / SERVICE_CYCLES`` regardless of how many threads call in.
  That single-server ceiling is the trade the paper's host-based
  family makes for contention-free device code;
* because the host sees every allocation, invalid and double frees are
  detected *exactly* (one of the paper's selling points over
  device-side designs, where a bad free silently corrupts shared
  metadata).

Allocation policy is address-ordered first fit with eager coalescing on
free — the allocator of the paper's host-based baseline family, not a
buddy system, so external fragmentation behaviour differs measurably
from TBuddy (the comparison the backend registry exists to make).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, List, Tuple

from ..sim import ops
from ..sim.device import ThreadCtx
from ..sim.errors import SimError
from ..sim.memory import DeviceMemory
from ..sync.spinlock import SpinLock

_NULL = DeviceMemory.NULL

#: simulated cycles for one device->host->device request round trip.
#: PCIe-ish: far above an L2 atomic (a few cycles in the cost model),
#: far below a kernel launch.
REQUEST_CYCLES = 900

#: releases are fire-and-forget (the device does not need the result),
#: so they pay a shorter, one-way cost.
RELEASE_CYCLES = 300

#: cycles the single host thread spends servicing one request — the
#: serialized part.  Every request holds the command-queue mutex this
#: long, so aggregate throughput tops out at one request per
#: SERVICE_CYCLES however wide the launch is.
SERVICE_CYCLES = 200

#: block alignment: every request is rounded up to a multiple of it
ALIGN = 16


class HostBasedError(SimError):
    """Invalid or double free detected by the host-side bookkeeping."""


class HostBasedAllocator:
    """Host-bookkept first-fit allocator over ``[base, base+size)``."""

    def __init__(self, mem: DeviceMemory, base: int, size: int):
        if base % ALIGN or size % ALIGN:
            raise ValueError("pool must be aligned to the block alignment")
        self.mem = mem        # kept only so the pool region is reserved
        self.base = base
        self.size = size
        #: the host command queue: one request serviced at a time
        self.queue = SpinLock(mem)
        #: address-ordered, coalesced free ranges as (offset, nbytes)
        self._free: List[Tuple[int, int]] = [(0, size)]
        #: live blocks: offset -> nbytes (host-exact accounting)
        self._live: Dict[int, int] = {}
        # host-side counters (no device words involved)
        self.n_malloc = 0
        self.n_malloc_failed = 0
        self.n_free = 0
        self.n_free_null = 0

    # ------------------------------------------------------------------
    # device-side interface (generators over simulator ops)
    # ------------------------------------------------------------------
    def malloc(self, ctx: ThreadCtx, nbytes: int):
        """Round-trip to the host; first-fit; returns address or NULL."""
        if nbytes <= 0:
            self.n_malloc += 1
            self.n_malloc_failed += 1
            return _NULL
        yield ops.sleep(REQUEST_CYCLES)
        # Queue at the host thread; the state mutation itself is atomic
        # at the moment the service completes.
        yield from self.queue.lock(ctx)
        yield ops.sleep(SERVICE_CYCLES)
        need = (nbytes + ALIGN - 1) & ~(ALIGN - 1)
        self.n_malloc += 1
        result = _NULL
        for i, (off, sz) in enumerate(self._free):
            if sz >= need:
                if sz == need:
                    del self._free[i]
                else:
                    self._free[i] = (off + need, sz - need)
                self._live[off] = need
                result = self.base + off
                break
        else:
            self.n_malloc_failed += 1
        yield from self.queue.unlock(ctx)
        return result

    def free(self, ctx: ThreadCtx, addr: int):
        """Release a block; the host validates the address exactly."""
        if addr == _NULL:
            self.n_free += 1
            self.n_free_null += 1
            return
        off = addr - self.base
        if not (0 <= off < self.size):
            raise HostBasedError(
                f"free({addr:#x}): address outside the pool "
                f"[{self.base:#x}, {self.base + self.size:#x})"
            )
        yield ops.sleep(RELEASE_CYCLES)
        yield from self.queue.lock(ctx)
        yield ops.sleep(SERVICE_CYCLES)
        need = self._live.pop(off, None)
        if need is not None:
            self.n_free += 1
            self._insert_free(off, need)
        # Unlock before raising: the host thread survives a bad request,
        # so the queue must not be left poisoned by one.
        yield from self.queue.unlock(ctx)
        if need is None:
            raise HostBasedError(
                f"free({addr:#x}): not a live block (double or invalid free)"
            )

    def _insert_free(self, off: int, nbytes: int) -> None:
        """Insert a range into the free list, coalescing both ways."""
        i = bisect_left(self._free, (off, 0))
        # merge with the successor
        if i < len(self._free) and off + nbytes == self._free[i][0]:
            nbytes += self._free[i][1]
            del self._free[i]
        # merge with the predecessor
        if i > 0:
            poff, psz = self._free[i - 1]
            if poff + psz == off:
                self._free[i - 1] = (poff, psz + nbytes)
                return
        insort(self._free, (off, nbytes))

    # ------------------------------------------------------------------
    # host-side introspection (exact by construction)
    # ------------------------------------------------------------------
    def host_used_bytes(self) -> int:
        """Bytes currently handed out (exact, any time)."""
        return sum(self._live.values())

    def host_free_bytes(self) -> int:
        """Bytes of free supply (exact, any time)."""
        return sum(sz for _, sz in self._free)

    def host_check(self) -> None:
        """Validate the host structures: sorted, disjoint, coalesced free
        ranges; live blocks disjoint from them; everything sums to the
        pool."""
        prev_end = -1
        for off, sz in self._free:
            if sz <= 0 or off < 0 or off + sz > self.size:
                raise HostBasedError(f"free range ({off}, {sz}) out of pool")
            if off < prev_end:
                raise HostBasedError("free ranges overlap or are unsorted")
            if off == prev_end:
                raise HostBasedError("adjacent free ranges left uncoalesced")
            prev_end = off + sz
        for off, sz in self._live.items():
            if off < 0 or off + sz > self.size:
                raise HostBasedError(f"live block ({off}, {sz}) out of pool")
        total = self.host_used_bytes() + self.host_free_bytes()
        if total != self.size:
            raise HostBasedError(
                f"accounting leak: live + free = {total} != pool {self.size}"
            )

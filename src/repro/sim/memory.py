"""Flat simulated device memory.

Device memory is a byte-addressed flat space of 64-bit words, held in a
private anonymous ``mmap`` viewed as a ``'Q'`` memoryview.  The kernel
zero-fills each page on first touch, so building a memory costs nothing
and a run pays only for the pages it touches: a 16 MiB memory whose run
touches a few hundred pages never faults in the rest.  The mapping is
``MAP_PRIVATE`` (``mmap``'s default is ``MAP_SHARED``), so a forked
worker's writes stay copy-on-write in that worker.  Device code accesses
memory through op tuples (:mod:`repro.sim.ops`) executed by the
scheduler; the host may read and write it directly (analogous to
``cudaMemcpy`` while no kernel is running).

A small *metadata* region can be carved from the top of memory with
:meth:`DeviceMemory.host_alloc` during host-side setup — the analogue of
``cudaMalloc``-ing control blocks for semaphores, tree nodes and list
heads before launching kernels.  The remaining bottom region is what an
allocator under test manages.
"""

from __future__ import annotations

import mmap
from array import array

from .errors import MisalignedAccess, OutOfBoundsAccess

_MASK64 = (1 << 64) - 1


def _count(name: str, n: object) -> int:
    """Return ``n`` if it is a non-negative ``int`` (not a ``bool``),
    else raise :class:`ValueError` naming the argument."""
    if type(n) is bool or not isinstance(n, int) or n < 0:
        raise ValueError(f"{name} must be a non-negative int, got {n!r}")
    return n


class DeviceMemory:
    """A flat, byte-addressed simulated memory of ``size`` bytes.

    ``size`` is rounded up to a multiple of 8.  Word accesses must be
    8-byte aligned.  Addresses are plain ints starting at 0; address 0 is
    valid storage, so code that wants a null sentinel should use
    :data:`NULL` (all-ones), which this class never hands out.
    """

    #: Null pointer sentinel: never a valid address.
    NULL = _MASK64

    __slots__ = ("size", "words", "_map", "_meta_brk")

    def __init__(self, size: int) -> None:
        if type(size) is bool or not isinstance(size, int) or size <= 0:
            raise ValueError(f"size must be a positive int, got {size!r}")
        size = (size + 7) & ~7
        self.size = size
        self._map = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
        self.words = memoryview(self._map).cast("Q")
        # Host metadata allocations grow downward from the top.
        self._meta_brk = size

    # ------------------------------------------------------------------
    # Host-side setup
    # ------------------------------------------------------------------
    def host_alloc(self, nbytes: int, align: int = 8) -> int:
        """Carve ``nbytes`` (aligned to ``align``) off the top of memory.

        Used during host-side setup to place control structures.  Returns
        the base address.  Raises :class:`OutOfBoundsAccess` when memory
        is exhausted.
        """
        _count("nbytes", nbytes)
        if align <= 0 or (align & (align - 1)):
            raise ValueError("alignment must be a positive power of two")
        base = (self._meta_brk - nbytes) & ~(align - 1)
        if base < 0:
            raise OutOfBoundsAccess(base, self.size)
        self._meta_brk = base
        return base

    # ------------------------------------------------------------------
    # Word accessors (used by the scheduler and by host-side code)
    # ------------------------------------------------------------------
    # The word accessors below inline the alignment/bounds check rather
    # than calling ``_windex``: the scheduler dispatches into them once
    # per memory event, and the extra Python-level call was measurable
    # on the figure benches.  ``_windex`` remains for colder callers.
    def _windex(self, addr: int) -> int:
        if addr & 7:
            raise MisalignedAccess(addr)
        if addr < 0 or addr + 8 > self.size:
            raise OutOfBoundsAccess(addr, self.size)
        return addr >> 3

    def load_word(self, addr: int) -> int:
        """Read the unsigned 64-bit word at ``addr``."""
        if addr & 7 or addr < 0 or addr + 8 > self.size:
            self._windex(addr)
        return self.words[addr >> 3]

    def store_word(self, addr: int, value: int) -> None:
        """Write the unsigned 64-bit word at ``addr``."""
        if addr & 7 or addr < 0 or addr + 8 > self.size:
            self._windex(addr)
        self.words[addr >> 3] = value & _MASK64

    def cas_word(self, addr: int, expected: int, new: int) -> int:
        """Compare-and-swap on the word at ``addr``; returns the old value."""
        if addr & 7 or addr < 0 or addr + 8 > self.size:
            self._windex(addr)
        i = addr >> 3
        words = self.words
        old = words[i]
        if old == (expected & _MASK64):
            words[i] = new & _MASK64
        return old

    def add_word(self, addr: int, value: int) -> int:
        """Wrapping atomic add; returns the old value."""
        if addr & 7 or addr < 0 or addr + 8 > self.size:
            self._windex(addr)
        i = addr >> 3
        words = self.words
        old = words[i]
        words[i] = (old + value) & _MASK64
        return old

    def exch_word(self, addr: int, value: int) -> int:
        if addr & 7 or addr < 0 or addr + 8 > self.size:
            self._windex(addr)
        i = addr >> 3
        words = self.words
        old = words[i]
        words[i] = value & _MASK64
        return old

    def and_word(self, addr: int, value: int) -> int:
        if addr & 7 or addr < 0 or addr + 8 > self.size:
            self._windex(addr)
        i = addr >> 3
        words = self.words
        old = words[i]
        words[i] = old & value & _MASK64
        return old

    def or_word(self, addr: int, value: int) -> int:
        if addr & 7 or addr < 0 or addr + 8 > self.size:
            self._windex(addr)
        i = addr >> 3
        words = self.words
        old = words[i]
        words[i] = (old | value) & _MASK64
        return old

    def xor_word(self, addr: int, value: int) -> int:
        if addr & 7 or addr < 0 or addr + 8 > self.size:
            self._windex(addr)
        i = addr >> 3
        words = self.words
        old = words[i]
        words[i] = (old ^ value) & _MASK64
        return old

    def max_word(self, addr: int, value: int) -> int:
        if addr & 7 or addr < 0 or addr + 8 > self.size:
            self._windex(addr)
        old = self.words[addr >> 3]
        value &= _MASK64
        if value > old:
            self.words[addr >> 3] = value
        return old

    def min_word(self, addr: int, value: int) -> int:
        if addr & 7 or addr < 0 or addr + 8 > self.size:
            self._windex(addr)
        old = self.words[addr >> 3]
        value &= _MASK64
        if value < old:
            self.words[addr >> 3] = value
        return old

    # ------------------------------------------------------------------
    # Host-side byte-range helpers (cudaMemcpy analogue)
    # ------------------------------------------------------------------
    # Counts must be non-negative ints (ValueError otherwise).  A
    # zero-length access at any address in ``0..size`` is a no-op.
    def read_bytes(self, addr: int, nbytes: int) -> bytes:
        """Copy ``nbytes`` starting at ``addr`` out of device memory.

        A test seam, like :meth:`write_bytes`: the program moves words,
        and tests check raw bytes and lazy pages through these two.
        """
        if addr < 0 or addr + _count("nbytes", nbytes) > self.size:
            raise OutOfBoundsAccess(addr, self.size)
        return self._map[addr : addr + nbytes]

    def write_bytes(self, addr: int, data: bytes) -> None:
        """Copy ``data`` into device memory starting at ``addr`` (a test
        seam; see :meth:`read_bytes`)."""
        if addr < 0 or addr + len(data) > self.size:
            raise OutOfBoundsAccess(addr, self.size)
        self._map[addr : addr + len(data)] = data

    def fill_words(self, addr: int, nwords: int, value: int) -> None:
        """Host-side fill of ``nwords`` consecutive words with ``value``."""
        if _count("nwords", nwords) == 0:
            if addr < 0 or addr > self.size:
                raise OutOfBoundsAccess(addr, self.size)
            return
        i = self._windex(addr)
        if addr + 8 * nwords > self.size:
            raise OutOfBoundsAccess(addr + 8 * nwords - 8, self.size)
        self.words[i : i + nwords] = array("Q", [value & _MASK64]) * nwords

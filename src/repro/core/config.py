"""Allocator configuration (paper §4 constants, parameterized).

The paper's published constants: 4 KB pages/bins, 128 B bin headers,
128 B tails, 512-bit bin bitmaps (minimum allocation 8 B), 64 bins per
chunk, one arena per SM.  §4.2's "512 KB chunks" is inconsistent with
the 64-bin chunk bitmap and the 62x128 B tail layout, which only add up
for 64 x 4 KB = 256 KB chunks; we default to the self-consistent layout
(see DESIGN.md §2) and keep every constant configurable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


def round_up_pow2(n: int) -> int:
    """Smallest power of two >= n (n >= 1)."""
    if n <= 1:
        return 1
    return 1 << (n - 1).bit_length()


@dataclass(frozen=True)
class AllocatorConfig:
    """Sizing knobs for the combined allocator.

    Attributes
    ----------
    page_size:
        TBuddy granularity; also the alignment that routes ``free`` calls
        (page-aligned => TBuddy, otherwise UAlloc).
    bins_per_chunk:
        Bins per chunk, including the two special header bins.
    bin_header_size:
        Bytes reserved at the start of every bin for its header.
    tail_size:
        Bytes of tail space logically appended to each regular bin.
    min_alloc:
        Smallest serviced allocation (8 B in the paper; one bitmap bit).
    pool_order:
        TBuddy tree height: the managed pool spans ``2**pool_order``
        pages.
    """

    page_size: int = 4096
    bins_per_chunk: int = 64
    bin_header_size: int = 128
    tail_size: int = 128
    min_alloc: int = 8
    pool_order: int = 10  # 2**10 pages * 4 KB = 4 MB pool by default

    def __post_init__(self) -> None:
        for name in ("page_size", "bins_per_chunk",
                     "bin_header_size", "tail_size", "min_alloc"):
            if not _is_pow2(getattr(self, name)):
                raise ValueError(f"{name} must be a power of two")
        if self.bins_per_chunk < 4:
            raise ValueError("need at least 4 bins per chunk")
        if self.pool_order < self.chunk_order:
            raise ValueError(
                f"pool_order={self.pool_order} smaller than a single chunk "
                f"(chunk_order={self.chunk_order})"
            )
        # The two special bins must hold one tail per regular bin.
        tails_capacity = 2 * (self.bin_size - self.bin_header_size) // self.tail_size
        if self.n_regular_bins > tails_capacity:
            raise ValueError(
                f"{self.n_regular_bins} regular bins need tails but the two "
                f"special bins only hold {tails_capacity}"
            )
        if self.max_bin_blocks > 512:
            raise ValueError("bin bitmaps hold at most 512 blocks")

    # -- derived sizes -------------------------------------------------
    @property
    def bin_size(self) -> int:
        """Bytes per UAlloc bin: one page (the paper's layout)."""
        return self.page_size

    @property
    def chunk_size(self) -> int:
        """Bytes per chunk."""
        return self.bin_size * self.bins_per_chunk

    @property
    def chunk_order(self) -> int:
        """TBuddy order of a chunk allocation."""
        return (self.chunk_size // self.page_size - 1).bit_length()

    @property
    def pool_size(self) -> int:
        """Bytes managed by TBuddy."""
        return self.page_size << self.pool_order

    @property
    def n_regular_bins(self) -> int:
        """Allocatable bins per chunk (excludes the two special bins)."""
        return self.bins_per_chunk - 2

    @property
    def max_ualloc_size(self) -> int:
        """Largest (power-of-two) size served by UAlloc."""
        return self.bin_size // 2

    @property
    def max_bin_blocks(self) -> int:
        """Blocks in the densest bin (min_alloc-sized)."""
        return (self.bin_size - self.bin_header_size + self.tail_size) // self.min_alloc

    @property
    def size_classes(self) -> Tuple[int, ...]:
        """UAlloc size classes: min_alloc .. bin_size/2, powers of two."""
        sizes = []
        s = self.min_alloc
        while s <= self.max_ualloc_size:
            sizes.append(s)
            s <<= 1
        return tuple(sizes)

    def class_index(self, size: int) -> int:
        """Index of the size class for a rounded power-of-two ``size``."""
        return (size // self.min_alloc - 1).bit_length()

    def bin_capacity(self, size: int) -> int:
        """Blocks a bin of the given (power-of-two) size class holds.

        Sizes up to ``tail_size`` use the tail, so the full ``bin_size``
        is allocatable; larger sizes only use the space after the header
        (paper §4.2 — hence "from a 4 KB bin devoted to 1 KB allocations,
        only 3 KB are available").
        """
        if size <= self.tail_size:
            return self.bin_size // size
        return (self.bin_size - self.bin_header_size) // size

    @staticmethod
    def order_for_pool(pool_bytes: int, page_size: int = 4096) -> int:
        """The ``pool_order`` whose pool *covers* ``pool_bytes``.

        ``ceil(log2(ceil(pool_bytes / page_size)))`` — exact for pools
        that are a power-of-two number of pages, rounded **up**
        otherwise, so ``page_size << order >= pool_bytes`` always holds.
        Every bench used to hand-roll this as
        ``(pool // 4096 - 1).bit_length()``, which silently
        *under*-covers non-page-multiple pools (e.g. 4097 B mapped to a
        one-page pool); use this helper instead.
        """
        if pool_bytes <= 0:
            raise ValueError(f"pool_bytes must be positive (got {pool_bytes})")
        if page_size <= 0 or page_size & (page_size - 1):
            raise ValueError("page_size must be a power of two")
        pages = -(-pool_bytes // page_size)
        return (pages - 1).bit_length()


DEFAULT_CONFIG = AllocatorConfig()

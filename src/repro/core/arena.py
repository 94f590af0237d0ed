"""Per-SM arenas (paper §4.2, Figure 3).

Each SM gets one arena so that up to a block-resident's worth of threads
share allocator state with good L1 locality (the paper's stated reason
for the arena-per-SM association).  An arena owns:

* one bin free-list + writer lock + bulk semaphore per size class
  (readers traverse the lists under the arena's RCU domain);
* the chunk list of chunks with available bins, protected by a
  *collective* mutex (paper §4.2.2) and a bulk semaphore counting free
  bins, batch size = regular bins per chunk.
"""

from __future__ import annotations

from typing import List

from ..sim.memory import DeviceMemory
from ..sync.bulk_semaphore import BulkSemaphore
from ..sync.collective import CollectiveMutex
from ..sync.rcu import RCU
from ..sync.spinlock import SpinLock
from .config import AllocatorConfig
from .dlist import DList


class SizeClass:
    """Free-list state for one allocation size within an arena."""

    __slots__ = ("size", "capacity", "bins", "lock", "sem")

    def __init__(self, mem: DeviceMemory, cfg: AllocatorConfig, size: int):
        self.size = size
        self.capacity = cfg.bin_capacity(size)
        self.bins = DList(mem)          # bins with available blocks
        self.lock = SpinLock(mem)       # list writer lock
        self.sem = BulkSemaphore(mem, initial=0)


class Arena:
    """All allocator state private to one SM."""

    __slots__ = ("index", "cfg", "classes", "chunks", "chunk_mutex",
                 "bin_sem", "rcu")

    def __init__(self, mem: DeviceMemory, cfg: AllocatorConfig, index: int,
                 rcu: RCU | None = None):
        self.index = index
        self.cfg = cfg
        self.classes: List[SizeClass] = [
            SizeClass(mem, cfg, size) for size in cfg.size_classes
        ]
        self.chunks = DList(mem)        # chunks with available bins
        self.chunk_mutex = CollectiveMutex(mem)
        self.bin_sem = BulkSemaphore(mem, initial=0)
        self.rcu = rcu if rcu is not None else RCU(mem)

    def size_class(self, size: int) -> SizeClass:
        """The :class:`SizeClass` serving (power-of-two) ``size``."""
        return self.classes[self.cfg.class_index(size)]

"""Synchronization primitives for massive concurrency (paper §3, §4.2).

Contains the paper's three synchronization contributions plus the
classical primitives they are measured against:

* :class:`SpinLock` — baseline CAS spin mutex.
* :class:`CountingSemaphore` — Dijkstra semaphore with the grow/shrink
  extension of §3.2 (the Figure 5 baseline).
* :class:`BulkSemaphore` — the paper's bulk semaphore (§3.3).
* :class:`RCU` — SRCU with delegated conditional barriers (§4.2.1).
* :class:`CollectiveMutex` — collective acquire/release (§4.2.2).
"""

from .bulk_semaphore import BulkSemaphore, BulkSemaphoreOverflow, pack, unpack
from .collective import CollectiveMutex
from .counting_semaphore import CountingSemaphore
from .rcu import RCU
from .spinlock import SpinLock

__all__ = [
    "SpinLock",
    "CountingSemaphore",
    "BulkSemaphore",
    "BulkSemaphoreOverflow",
    "pack",
    "unpack",
    "RCU",
    "CollectiveMutex",
]

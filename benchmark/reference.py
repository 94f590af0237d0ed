"""A fixed pure-Python kernel that measures how fast the host runs now.

The benchmark's host is shared: in episodes of a few seconds, more or
fewer of them for minutes at a time, other tenants slow every
instruction and every cache miss by up to 2x, which moves a run's
medians more than any change worth measuring.  Timing this kernel before
and after each part of a pass and scaling the part by
``NOMINAL_S / kernel seconds`` gives the part's time at the host's
nominal speed.

The kernel is the benchmark's own code, never the program's, so a change
to the program cannot move it.  It does what the simulator does most,
generators resumed from a heap and small objects in dicts, over a table
of small lists larger than the processor's caches: the simulator's
working set is tens of megabytes, and a kernel that stayed in cache
under-corrected the cache-missing fig7 storm by 10 % on a loaded host.
"""

from __future__ import annotations

import gc
from heapq import heappop, heappush
from time import perf_counter
from typing import List

#: the kernel's seconds on the benchmark's 2-vCPU virtual machine when
#: no other tenant loads it
NOMINAL_S = 0.07
THREADS = 512
STEPS = 48
#: entries of the table the kernel reads and writes at random
TABLE = 1 << 19

_table: List[list] = []


def kernel() -> int:
    """Run ``THREADS`` generator threads of ``STEPS`` steps; each step
    updates two random entries of the table.  Returns a checksum."""
    if not _table:
        _table.extend([i, 3 * i] for i in range(TABLE))
    table, mask = _table, TABLE - 1
    busy = {}
    total = 0

    def thread(tid):
        x = tid * 2654435761 & 0xFFFFFFFF
        for _ in range(STEPS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            x ^= yield x

    threads = {tid: thread(tid) for tid in range(THREADS)}
    heap = [(tid & 31, tid, None) for tid in range(THREADS)]
    heap.sort()
    while heap:
        now, tid, value = heappop(heap)
        try:
            x = threads[tid].send(value)
        except StopIteration:
            continue
        table[x & mask][0] += 1
        other = table[(x >> 7) & mask][1] & 0xFF
        total += other
        start = max(now, busy.get(x & 4095, 0))
        busy[x & 4095] = start + 4
        heappush(heap, (start + 4 + (x & 3), tid, other))
    return total


def seconds() -> float:
    """Host seconds of one :func:`kernel` run, the collector held off so
    that the caller's heap cannot change the kernel's cost."""
    if not _table:
        kernel()  # builds the table, untimed
    gc.collect()
    gc.disable()
    try:
        t0 = perf_counter()
        kernel()
        return perf_counter() - t0
    finally:
        gc.enable()


def scaled(walls: List[float], refs: List[float]) -> float:
    """Sum of ``walls`` at nominal host speed; ``refs[i]`` and
    ``refs[i + 1]`` are the kernel's seconds just before and just after
    ``walls[i]``."""
    return sum(w * 2 * NOMINAL_S / (a + b)
               for w, a, b in zip(walls, refs, refs[1:]))

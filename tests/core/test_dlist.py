"""Intrusive device list: inserts, removal, traversal, host checks."""

import pytest

from repro.core import DList
from repro.sim import DeviceMemory, Scheduler, ops
from repro.sim.hostrun import drive, host_ctx
from repro.sync import SpinLock


def make(mem, n):
    lst = DList(mem)
    nodes = [mem.host_alloc(32) for _ in range(n)]
    ctx = host_ctx()
    for node in nodes:
        drive(mem, lst.insert_head(ctx, node))
    return lst, nodes


class TestSequential:
    def test_empty(self, mem):
        lst = DList(mem)
        assert lst.host_items() == []
        first = drive(mem, lst.first(host_ctx()))
        assert lst.is_end(first)

    def test_insert_head_order(self, mem):
        lst, nodes = make(mem, 3)
        assert lst.host_items() == nodes[::-1]
        lst.host_check()

    def test_remove_middle(self, mem):
        lst, nodes = make(mem, 3)
        drive(mem, lst.remove(host_ctx(), nodes[1]))
        assert lst.host_items() == [nodes[2], nodes[0]]
        lst.host_check()

    def test_remove_all(self, mem):
        lst, nodes = make(mem, 5)
        for n in nodes:
            drive(mem, lst.remove(host_ctx(), n))
        assert lst.host_items() == []
        lst.host_check()

    def test_removed_node_links_preserved_for_stale_readers(self, mem):
        """RCU requirement: a reader parked on an unlinked node can walk
        off it."""
        lst, nodes = make(mem, 3)
        drive(mem, lst.remove(host_ctx(), nodes[1]))
        nxt = drive(mem, lst.next(host_ctx(), nodes[1]))
        assert nxt == nodes[0]  # still points into the live list

    def test_traversal_device_side(self, mem):
        lst, nodes = make(mem, 4)
        seen = []

        def kernel(ctx):
            node = yield from lst.first(ctx)
            while not lst.is_end(node):
                seen.append(node)
                node = yield from lst.next(ctx, node)

        s = Scheduler(mem)
        s.launch(kernel, 1, 1)
        s.run()
        assert seen == nodes[::-1]


class TestConcurrent:
    def test_locked_inserts_and_removes(self, mem, run_kernel):
        lst = DList(mem)
        lock = SpinLock(mem)
        nodes = [mem.host_alloc(32) for _ in range(128)]

        def kernel(ctx):
            node = nodes[ctx.tid]
            yield from lock.lock(ctx)
            yield from lst.insert_head(ctx, node)
            yield from lock.unlock(ctx)
            yield ops.sleep(ctx.rng.randrange(500))
            if ctx.tid % 2 == 0:
                yield from lock.lock(ctx)
                yield from lst.remove(ctx, node)
                yield from lock.unlock(ctx)

        run_kernel(kernel, grid=2, block=64)
        lst.host_check()
        items = lst.host_items()
        assert len(items) == 64
        assert set(items) == {nodes[i] for i in range(1, 128, 2)}

    def test_concurrent_readers_during_writes(self, mem, run_kernel):
        lst, nodes = make(mem, 16)
        lock = SpinLock(mem)
        traversals = []

        def kernel(ctx):
            if ctx.tid < 8:
                yield ops.sleep(ctx.rng.randrange(300))
                yield from lock.lock(ctx)
                yield from lst.remove(ctx, nodes[ctx.tid])
                yield from lock.unlock(ctx)
            else:
                count = 0
                node = yield from lst.first(ctx)
                while not lst.is_end(node) and count < 64:
                    count += 1
                    node = yield from lst.next(ctx, node)
                traversals.append(count)

        run_kernel(kernel, grid=1, block=64)
        lst.host_check()
        assert len(lst.host_items()) == 8
        assert all(8 <= t <= 16 for t in traversals)

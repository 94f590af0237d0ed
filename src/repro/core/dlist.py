"""Intrusive circular doubly-linked list in device memory.

Used for UAlloc's per-size bin free-lists and per-arena chunk lists.
Nodes are arbitrary device structures that reserve two link words at
fixed offsets (``next_off``/``prev_off``); the list head is a sentinel
with the same link layout, so the list is circular and needs no NULL
checks.

Writers must serialize externally (UAlloc holds the list's writer lock
or a collective mutex); readers may traverse concurrently under RCU —
unlinking only rewires neighbours, so a reader holding a pointer to an
unlinked node still reads valid memory until reclamation, which UAlloc
defers with an RCU grace period.
"""

from __future__ import annotations

from ..sim import ops
from ..sim.device import ThreadCtx
from ..sim.memory import DeviceMemory

#: default link-word offsets (bin header words 2 and 3)
NEXT_OFF = 16
PREV_OFF = 24
#: a host walk longer than this never reached the sentinel: a cycle
_MAX_HOST_ITEMS = 1_000_000


class DList:
    """A device-resident intrusive list with a host-allocated sentinel."""

    __slots__ = ("mem", "head", "next_off", "prev_off")

    def __init__(self, mem: DeviceMemory, next_off: int = NEXT_OFF, prev_off: int = PREV_OFF):
        self.mem = mem
        self.next_off = next_off
        self.prev_off = prev_off
        # The sentinel only needs valid link words; allocate enough to
        # cover both offsets.
        span = max(next_off, prev_off) + 8
        self.head = mem.host_alloc(span)
        mem.store_word(self.head + next_off, self.head)
        mem.store_word(self.head + prev_off, self.head)

    # -- device side (writers must hold the list's external lock) ---------
    def insert_head(self, ctx: ThreadCtx, node: int):
        """Link ``node`` right after the sentinel."""
        if ctx.trace is not None:
            # Hook fires *before* the link writes so verification layers
            # can lift any reclamation quarantine on a re-inserted node.
            ctx.trace.list_inserted(ctx, self, node)
        first = yield ops.load(self.head + self.next_off)
        yield ops.store(node + self.next_off, first)
        yield ops.store(node + self.prev_off, self.head)
        yield ops.store(first + self.prev_off, node)
        # Publish last: once head.next points at the node, readers can
        # reach it and its links are already consistent.
        yield ops.store(self.head + self.next_off, node)

    def insert_tail(self, ctx: ThreadCtx, node: int):
        """Link ``node`` right before the sentinel."""
        if ctx.trace is not None:
            ctx.trace.list_inserted(ctx, self, node)
        last = yield ops.load(self.head + self.prev_off)
        yield ops.store(node + self.next_off, self.head)
        yield ops.store(node + self.prev_off, last)
        yield ops.store(last + self.next_off, node)
        yield ops.store(self.head + self.prev_off, node)

    def remove(self, ctx: ThreadCtx, node: int):
        """Unlink ``node``; its own link words are left intact so
        concurrent readers parked on it can still walk off of it."""
        if ctx.trace is not None:
            ctx.trace.list_removed(ctx, self, node)
        nxt = yield ops.load(node + self.next_off)
        prv = yield ops.load(node + self.prev_off)
        yield ops.store(prv + self.next_off, nxt)
        yield ops.store(nxt + self.prev_off, prv)

    def first(self, ctx: ThreadCtx):
        """First node address, or the sentinel if empty."""
        node = yield ops.load(self.head + self.next_off)
        return node

    def next(self, ctx: ThreadCtx, node: int):
        """Successor of ``node`` (possibly the sentinel)."""
        node = yield ops.load(node + self.next_off)
        return node

    def is_end(self, node: int) -> bool:
        """True when a traversal cursor reached the sentinel."""
        return node == self.head

    # -- host side ---------------------------------------------------------
    def host_items(self) -> list[int]:
        """Host-side snapshot of node addresses (no kernel running)."""
        items = []
        node = self.mem.load_word(self.head + self.next_off)
        while node != self.head:
            items.append(node)
            if len(items) > _MAX_HOST_ITEMS:
                raise RuntimeError("list corrupt: no sentinel reached")
            node = self.mem.load_word(node + self.next_off)
        return items

    def host_check(self) -> None:
        """Validate next/prev symmetry; raises AssertionError on corruption."""
        node = self.mem.load_word(self.head + self.next_off)
        prev = self.head
        seen = 0
        while node != self.head:
            back = self.mem.load_word(node + self.prev_off)
            assert back == prev, (
                f"list corrupt at node {node:#x}: prev={back:#x} expected {prev:#x}"
            )
            prev = node
            node = self.mem.load_word(node + self.next_off)
            seen += 1
            assert seen < 1_000_000, "list corrupt: unbounded"
        assert self.mem.load_word(self.head + self.prev_off) == prev

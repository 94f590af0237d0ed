"""TBuddy — the coarse-grained tree buddy allocator (paper §4.1).

Free memory is tracked at page granularity by a static binary tree: the
node of height ``h`` over a ``2**h``-page block is AVAILABLE (the block
can be allocated), BUSY (neither it nor anything below can), or PARTIAL
(the block itself cannot, but its subtree holds at least one available
block).  Two-stage resource management supplies the accounting: one
bulk semaphore per order, batch size 2 (splitting a block of order
``n+1`` yields a batch of two order-``n`` blocks).

Allocation of order ``n``:

* ``wait(1, 2)`` on the order-``n`` semaphore returns 0 → an available
  node of height ``n`` exists; a scattered (per-thread-hashed) DFS from
  the root locates one and flips it AVAILABLE→BUSY.
* it returns -1 → the caller allocates order ``n+1`` (recursively),
  splits it (parent → PARTIAL, one child → AVAILABLE, the other kept),
  and fulfills the promised unit.

Free of order ``n`` first tries to merge: only a successful
``try_wait`` on the order-``n`` semaphore, followed by a successful
AVAILABLE→BUSY CAS on the buddy, allows the merge (paper: only the
failure to decrement the semaphore *guarantees* the merge cannot
proceed); then the freed block moves up one order.  Otherwise the node
is marked AVAILABLE and the semaphore signalled.

State transitions lock the node and its parent (hand-over-hand upward,
deeper node first — deadlock-free because acquisition order strictly
decreases in depth), so at most two nodes are ever locked per update.

Every allocation is aligned to its own size relative to the pool base —
with a chunk-aligned pool base this is what guarantees TBuddy results
are page aligned (and lets ``free`` route by alignment).
"""

from __future__ import annotations

from typing import List, Optional

from ..sim import ops
from ..sim.device import ThreadCtx, rng_randbelow
from ..sim.errors import SimError
from ..sim.memory import DeviceMemory
from ..sync.bulk_semaphore import C_GUARD, BulkSemaphore

# node word layout
STATE_MASK = 0b011
LOCK_BIT = 0b100
ALLOC_BIT = 0b1000

#: Largest supported tree height.  A fully-split pool puts all
#: ``2**max_order`` order-0 blocks into one bulk semaphore, and the F&A
#: borrow-detection needs legitimate supply to stay strictly below
#: ``C_GUARD`` — at ``C == C_GUARD`` a real count is indistinguishable
#: from a transient claim borrow (and ``pack`` rejects the state).
MAX_ORDER = C_GUARD.bit_length() - 2  # 20 with the default C:22 field

BUSY = 0
AVAILABLE = 1
PARTIAL = 2

_NULL = DeviceMemory.NULL


class DoubleFree(SimError):
    """free() was called on an address not currently allocated."""


class InvalidFree(SimError):
    """free() was called on an address that is not a block base."""


class TBuddy:
    """Tree buddy allocator over ``2**max_order`` pages at ``base``.

    ``base`` must be aligned to ``page_size`` (callers that rely on the
    paper's alignment routing align it to the chunk size or better).
    """

    def __init__(
        self,
        mem: DeviceMemory,
        base: int,
        page_size: int,
        max_order: int,
    ):
        if base % page_size:
            raise ValueError("pool base must be page aligned")
        if not (1 <= max_order <= MAX_ORDER):
            # At max_order 21 a fully-split pool holds C_GUARD order-0
            # blocks: pack() rejects C == C_GUARD and the F&A borrow
            # detection misreads the legitimate count as a borrow.
            raise ValueError(
                f"max_order must be in 1..{MAX_ORDER} "
                "(2**max_order must stay below the semaphore borrow guard)"
            )
        self.mem = mem
        self.base = base
        self.page_size = page_size
        self.max_order = max_order
        self.n_pages = 1 << max_order
        self.pool_size = self.n_pages * page_size
        # Node i for i in 1..2**(max_order+1)-1; index 0 unused.
        self.n_nodes = 1 << (max_order + 1)
        self.tree_addr = mem.host_alloc(8 * self.n_nodes)
        mem.fill_words(self.tree_addr, self.n_nodes, BUSY)
        mem.store_word(self._naddr(1), AVAILABLE)
        # The whole pool starts as one available block of the max order.
        self.sems: List[BulkSemaphore] = [
            BulkSemaphore(mem, initial=(1 if order == max_order else 0))
            for order in range(max_order + 1)
        ]

    # ------------------------------------------------------------------
    # node arithmetic
    # ------------------------------------------------------------------
    def _naddr(self, node: int) -> int:
        return self.tree_addr + 8 * node

    def node_height(self, node: int) -> int:
        """Height (== block order) of a tree node."""
        return self.max_order - (node.bit_length() - 1)

    def node_addr(self, node: int) -> int:
        """Device address of the block a node covers."""
        depth = node.bit_length() - 1
        index_in_level = node - (1 << depth)
        pages = 1 << (self.max_order - depth)
        return self.base + index_in_level * pages * self.page_size

    def leaf_of(self, addr: int) -> int:
        """Leaf node covering a page-aligned address."""
        off = addr - self.base
        if off % self.page_size or not (0 <= off < self.pool_size):
            raise InvalidFree(f"address {addr:#x} is not a page in the pool")
        return (1 << self.max_order) + off // self.page_size

    # ------------------------------------------------------------------
    # node locking
    # ------------------------------------------------------------------
    def _lock(self, ctx: ThreadCtx, node: int):
        addr = self._naddr(node)
        backoff = 16
        load_op = (ops.OP_LOAD, addr)
        OP_CAS = ops.OP_CAS
        randbelow = rng_randbelow(ctx.rng)
        while True:
            word = yield load_op
            if not (word & LOCK_BIT):
                old = yield (OP_CAS, addr, word, word | LOCK_BIT)
                if old == word:
                    if ctx.fault is not None:
                        # stall site: hold the node lock for extra cycles
                        yield ops.fault_point("tbuddy.lock", node)
                    return old  # pre-lock word value
            yield (ops.OP_SLEEP, randbelow(backoff))
            if backoff < 1024:
                backoff <<= 1

    def _unlock(self, ctx: ThreadCtx, node: int):
        yield ops.atomic_and(self._naddr(node), ~LOCK_BIT)

    # ------------------------------------------------------------------
    # locked state transition with upward propagation
    # ------------------------------------------------------------------
    def _transition(self, ctx: ThreadCtx, node: int, new_word: int,
                    expect_state: Optional[int] = None):
        """Set ``node``'s word (state+flags) and repair ancestor states.

        Locks the node and its parent; propagates hand-over-hand upward
        while the parent's recomputed state changes.  Returns False
        (without changing anything) if ``expect_state`` is given and the
        node's state no longer matches.
        """
        pre = yield from self._lock(ctx, node)
        if expect_state is not None and (pre & STATE_MASK) != expect_state:
            yield from self._unlock(ctx, node)
            return False
        if node == 1:
            yield ops.store(self._naddr(node), new_word)  # store releases the lock
            return True
        parent = node >> 1
        yield from self._lock(ctx, parent)
        # Keep the node's lock bit set through the store: releasing it
        # early would let another thread lock the node and our later
        # unlock would clobber *their* lock.
        yield ops.store(self._naddr(node), new_word | LOCK_BIT)
        # Invariant while holding the parent lock: the sibling's state is
        # stable, because any sibling transition must also lock this
        # parent.
        cur = node
        while True:
            sib = cur ^ 1
            cw = yield ops.load(self._naddr(cur))
            sw = yield ops.load(self._naddr(sib))
            pw = yield ops.load(self._naddr(parent))
            both_busy = (cw & STATE_MASK) == BUSY and (sw & STATE_MASK) == BUSY
            desired = BUSY if both_busy else PARTIAL
            pstate = pw & STATE_MASK
            if pstate == AVAILABLE or pstate == desired:
                # An AVAILABLE parent is never repaired from below — it
                # is a free block whose subtree is all ours to describe.
                yield from self._unlock(ctx, cur)
                yield from self._unlock(ctx, parent)
                return True
            yield ops.store(
                self._naddr(parent), (pw & ~STATE_MASK & ~LOCK_BIT) | desired | LOCK_BIT
            )
            yield from self._unlock(ctx, cur)
            cur = parent
            if cur == 1:
                yield from self._unlock(ctx, cur)
                return True
            parent = cur >> 1
            yield from self._lock(ctx, parent)

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def alloc(self, ctx: ThreadCtx, order: int, retries: int = 3):
        """Allocate a block of ``order`` (``page_size * 2**order`` bytes).

        Returns the block's device address, or ``DeviceMemory.NULL`` when
        the pool cannot satisfy the request.

        ``retries`` re-runs the two-stage triage after a failed ascent:
        under a cold-start storm many threads race up the split chain
        and lose transiently while other threads' splits are still
        publishing supply at this order.  Recursive (ascent) calls use
        ``retries=0`` so the retry cost stays linear in tree height.
        """
        if order > self.max_order or order < 0:
            return _NULL
        attempt = 0
        while True:
            addr = yield from self._alloc_once(ctx, order)
            if addr != _NULL or attempt >= retries:
                return addr
            attempt += 1
            yield ops.sleep(ctx.rng.randrange(256 << attempt))

    def _alloc_once(self, ctx: ThreadCtx, order: int):
        if ctx.fault is not None:
            # null-alloc site: fail the allocation before triage touches
            # the semaphore, as if the pool could not satisfy the order.
            act = yield ops.fault_point("tbuddy.alloc", order)
            if act is not None:
                return _NULL
        r = yield from self.sems[order].wait(ctx, 1, 2)
        if r == 0:
            node = yield from self._take_available(ctx, order)
            return self.node_addr(node)
        # r == -1: we promised one order-`order` unit; split a bigger block.
        if ctx.fault is not None:
            # renege site: the ascent fails after the batch promise — the
            # failure arm below must renege the promised unit.
            act = yield ops.fault_point("tbuddy.split", order)
            if act is not None:
                yield from self.sems[order].renege(ctx, 1)
                return _NULL
        parent_addr = yield from self.alloc(ctx, order + 1, retries=0)
        if parent_addr == _NULL:
            yield from self.sems[order].renege(ctx, 1)
            return _NULL
        parent = self.leaf_of(parent_addr) >> (order + 1)
        keep = parent * 2 + (ctx.rng.random() < 0.5)
        give = keep ^ 1
        # The subtree is exclusively ours (just allocated): mark the kept
        # child as the allocation, demote the parent to PARTIAL, publish
        # the other child, then fulfil the semaphore promise.  The flag
        # must be OR'd in, not stored: a DFS that read the child's word
        # before our ancestor became BUSY may transiently hold its lock
        # bit (``_lock`` re-loads and CASes whatever word it finds), and
        # a plain store would clobber that lock.
        yield ops.atomic_or(self._naddr(keep), ALLOC_BIT)
        yield from self._transition(ctx, parent, PARTIAL)
        yield from self._transition(ctx, give, AVAILABLE)
        yield from self.sems[order].fulfill(ctx, 1)
        return self.node_addr(keep)

    def _take_available(self, ctx: ThreadCtx, order: int):
        """Locate and claim an AVAILABLE node of height ``order``.

        The semaphore accounting guarantees one exists (or will, once
        in-flight publishes land); the DFS scatters its child order by
        the per-thread RNG, ScatterAlloc-style, to avoid collisions.
        """
        target_depth = self.max_order - order
        backoff = 32
        while True:
            stack = [(1, 0)]
            while stack:
                node, depth = stack.pop()
                word = yield ops.load(self._naddr(node))
                state = word & STATE_MASK
                if depth == target_depth:
                    if state == AVAILABLE:
                        ok = yield from self._transition(
                            ctx, node, BUSY | ALLOC_BIT, expect_state=AVAILABLE
                        )
                        if ok:
                            return node
                    continue
                if state == PARTIAL:
                    l, r = (node * 2, depth + 1), (node * 2 + 1, depth + 1)
                    if ctx.rng.random() < 0.5:
                        stack.append(l)
                        stack.append(r)
                    else:
                        stack.append(r)
                        stack.append(l)
            yield ops.sleep(ctx.rng.randrange(backoff))
            if backoff < 2048:
                backoff <<= 1

    def alloc_bytes(self, ctx: ThreadCtx, nbytes: int):
        """Allocate the smallest power-of-two block of at least
        ``nbytes`` (minimum one page)."""
        pages = max(1, -(-nbytes // self.page_size))
        order = (pages - 1).bit_length()
        addr = yield from self.alloc(ctx, order)
        return addr

    # ------------------------------------------------------------------
    # free
    # ------------------------------------------------------------------
    def find_order(self, ctx: ThreadCtx, addr: int):
        """Recover the order of an allocated block from its address by
        walking up from the leaf to the node carrying the ALLOC flag."""
        node = self.leaf_of(addr)
        order = 0
        while True:
            word = yield ops.load(self._naddr(node))
            if (word & STATE_MASK) == BUSY and (word & ALLOC_BIT):
                return node, order
            if node <= 1 or (node & 1):
                raise DoubleFree(
                    f"address {addr:#x} is not the base of a live allocation"
                )
            node >>= 1
            order += 1

    def free(self, ctx: ThreadCtx, addr: int, order: Optional[int] = None):
        """Release a block previously returned by :meth:`alloc`.

        ``order`` is optional (the standard ``free`` interface does not
        supply it); when omitted it is recovered from the tree.
        """
        node, found = yield from self.find_order(ctx, addr)
        if order is not None and order != found:
            raise InvalidFree(
                f"free of {addr:#x} with order {order}, allocated order {found}"
            )
        order = found
        # Drop the ALLOC flag; the block is now a plain busy node we own.
        # AND, not store: a stale DFS may transiently hold the node's
        # lock bit, which a plain store would wipe.
        yield ops.atomic_and(self._naddr(node), ~ALLOC_BIT)
        while True:
            if order < self.max_order:
                got = yield from self.sems[order].try_wait(ctx, 1)
                if got:
                    buddy = node ^ 1
                    old = yield ops.atomic_cas(
                        self._naddr(buddy), AVAILABLE, BUSY
                    )
                    if old == AVAILABLE:
                        # Merged: both children are now plain BUSY; claim
                        # the parent as the block being freed.  A locked
                        # transition is required — the thread that made
                        # the buddy AVAILABLE may still hold the parent's
                        # lock mid-propagation, and a plain store would
                        # race its recompute.
                        node >>= 1
                        order += 1
                        yield from self._transition(ctx, node, BUSY)
                        continue
                    yield from self.sems[order].post(ctx, 1)
            yield from self._transition(ctx, node, AVAILABLE)
            yield from self.sems[order].post(ctx, 1)
            # Opportunistic merge sweep: two concurrent sibling frees can
            # both fail their primary merge (each ran try_wait before the
            # other's post landed), stranding an available pair.  If the
            # buddy looks available now, try to claim both units and merge.
            if order < self.max_order:
                bw = yield ops.load(self._naddr(node ^ 1))
                if (bw & (STATE_MASK | LOCK_BIT)) == AVAILABLE:
                    merged = yield from self._sweep_merge(ctx, node, order)
                    if merged:
                        node >>= 1
                        order += 1
                        yield from self._transition(ctx, node, BUSY)
                        continue
            return

    def _sweep_merge(self, ctx: ThreadCtx, node: int, order: int):
        """Try to merge the (available) pair ``node``/``node^1``.

        Claims two semaphore units, then both blocks; unwinds cleanly on
        any failure.  Returns True when the pair was merged (the caller
        then owns the parent as a block to free)."""
        got = yield from self.sems[order].try_wait(ctx, 2)
        if not got:
            return False
        old = yield ops.atomic_cas(self._naddr(node), AVAILABLE, BUSY)
        if old != AVAILABLE:
            # someone already took our block; give both units back
            yield from self.sems[order].post(ctx, 2)
            return False
        old = yield ops.atomic_cas(self._naddr(node ^ 1), AVAILABLE, BUSY)
        if old != AVAILABLE:
            yield from self._transition(ctx, node, AVAILABLE)
            yield from self.sems[order].post(ctx, 2)
            return False
        return True

    # ------------------------------------------------------------------
    # host-side introspection / invariants
    # ------------------------------------------------------------------
    def host_state(self, node: int) -> int:
        return self.mem.load_word(self._naddr(node)) & STATE_MASK

    def host_word(self, node: int) -> int:
        return self.mem.load_word(self._naddr(node))

    def host_free_bytes(self) -> int:
        """Total bytes in AVAILABLE blocks (quiescent only)."""
        total = 0
        for node in range(1, self.n_nodes):
            if self.host_state(node) == AVAILABLE:
                total += self.page_size << self.node_height(node)
        return total

    def host_allocated_blocks(self) -> list[tuple[int, int]]:
        """(address, order) of every live allocation (quiescent only)."""
        out = []
        for node in range(1, self.n_nodes):
            w = self.host_word(node)
            if (w & STATE_MASK) == BUSY and (w & ALLOC_BIT):
                out.append((self.node_addr(node), self.node_height(node)))
        return out

    def check_invariants(self, strict_siblings: bool = False) -> None:
        """Validate the quiescent tree; raises AssertionError on violation.

        * no node is locked;
        * the subtree under an AVAILABLE node is entirely BUSY without
          ALLOC flags;
        * a PARTIAL node has at least one available descendant;
        * per order, the semaphore's C equals the number of AVAILABLE
          nodes and E == R == 0.

        ``strict_siblings`` additionally asserts that siblings are never
        both AVAILABLE.  That property always holds for sequential
        histories; under concurrency the paper's opportunistic merge
        protocol can miss a merge (both sibling frees ran ``try_wait``
        before either ``post`` landed), so concurrent stress tests check
        the relaxed form.
        """
        avail_per_order = [0] * (self.max_order + 1)
        for node in range(1, self.n_nodes):
            w = self.host_word(node)
            assert not (w & LOCK_BIT), f"node {node} left locked"
            state = w & STATE_MASK
            h = self.node_height(node)
            if state == AVAILABLE:
                assert not (w & ALLOC_BIT), f"available node {node} has ALLOC"
                avail_per_order[h] += 1
                if strict_siblings and node > 1:
                    sw = self.host_word(node ^ 1) & STATE_MASK
                    assert sw != AVAILABLE, f"siblings {node},{node^1} both available"
                # subtree must be all plain BUSY
                frontier = [node * 2, node * 2 + 1] if h else []
                while frontier:
                    d = frontier.pop()
                    if d >= self.n_nodes:
                        continue
                    dw = self.host_word(d)
                    assert dw & STATE_MASK == BUSY and not (dw & ALLOC_BIT), (
                        f"descendant {d} of available {node} is {dw:#x}"
                    )
                    frontier.extend((d * 2, d * 2 + 1))
            elif state == PARTIAL:
                assert h > 0, f"leaf {node} marked PARTIAL"
                assert self._subtree_has_available(node), (
                    f"PARTIAL node {node} has no available descendant"
                )
        for order, sem in enumerate(self.sems):
            c, e, r = sem.counters
            assert e == 0 and r == 0, f"order {order}: E={e} R={r} at quiescence"
            assert c == avail_per_order[order], (
                f"order {order}: sem C={c} but {avail_per_order[order]} "
                "available nodes"
            )

    def _subtree_has_available(self, node: int) -> bool:
        frontier = [node * 2, node * 2 + 1]
        while frontier:
            d = frontier.pop()
            if d >= self.n_nodes:
                continue
            s = self.host_state(d)
            if s == AVAILABLE:
                return True
            if s == PARTIAL:
                frontier.extend((d * 2, d * 2 + 1))
        return False

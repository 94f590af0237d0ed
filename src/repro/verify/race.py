"""Scheduler-hook-based race detection for the allocator's protocols.

:class:`RaceChecker` subclasses :class:`~repro.sim.trace.Tracer` and
overrides the per-memory-op hook (``mem_op``), so it sees every load,
store and atomic the scheduler executes, plus the structured attach
points (lock spans, list unlinks, RCU grace periods).  It checks three
protocol families:

**Bit-locks** (TBuddy node words, ``LOCK_BIT`` 0b100).  A successful CAS
that sets the bit acquires; clearing the bit releases.  Violations:

* a plain store to any tree word by a thread that does not hold that
  node's lock — this clobbers a concurrent holder's lock bit (a DFS
  that loaded the word before the subtree went BUSY may transiently
  lock a now-BUSY node: ``_lock`` CASes whatever word it re-loads, and
  ``expect_state`` is only checked *after* locking);
* the lock bit cleared (AND/CAS/store) by a thread that never acquired
  it;
* raw read-modify-write atomics that could forge or drop the bit.

**Spinlocks** (one word, 0 free / 1 held).  ``CAS(0→1)`` acquires,
``exch(→0)`` releases.  Violations: release by a non-owner, release of
an unheld lock, any plain store to a lock word.

**RCU deferred reclamation.**  When a node is unlinked from a watched
list (:meth:`~repro.sim.trace.Tracer.list_removed`), its *identity*
header words — links, size, capacity, magic — are quarantined: a write
by any other thread before the domain's next grace period is a
use-after-unlink.  Mutable words that legitimately change while
unlinked (block counts, bitmaps, flags) are not quarantined.
Re-insertion lifts the quarantine (the hook fires *before* the link
writes), and a grace period lifts every quarantine whose unlink
happened before the epoch flip — the hook fires before callbacks run,
so post-grace reuse by reclamation callbacks is clean.

The checker never throws from the hot path; findings accumulate in
:attr:`RaceChecker.findings` (bounded), and the runner fails a case
when any survive.  At quiescent checkpoints, call :meth:`quiesce` —
it flags locks still held with no device thread running, then resets
transient state so host-side activity between phases cannot go stale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core import bin_ as _bin
from ..core.tbuddy import LOCK_BIT, TBuddy
from ..sim import ops as _ops
from ..sim.trace import Tracer

#: quarantined (identity) header offsets for an unlinked UAlloc bin:
#: size, list links, capacity, owning chunk, magic.  COUNT, FLAGS and
#: the block bitmap words legitimately change while unlinked (frees,
#: relink bookkeeping) and are exempt.
BIN_IDENTITY_OFFSETS = (
    _bin.SIZE_OFF,
    _bin.NEXT_OFF,
    _bin.PREV_OFF,
    _bin.CAPACITY_OFF,
    _bin.CHUNK_OFF,
    _bin.MAGIC_OFF,
)

#: quarantined header offsets for an unlinked chunk: owning arena, list
#: links, magic.  The bin bitmap (offset 0) is exempt — releases of
#: retired bins clear bits on chunks that may themselves be unlinked.
CHUNK_IDENTITY_OFFSETS = (
    _bin.CH_ARENA_OFF,
    _bin.NEXT_OFF,
    _bin.PREV_OFF,
    _bin.CH_MAGIC_OFF,
)


@dataclass
class RaceFinding:
    """One detected protocol violation."""

    rule: str      #: short rule identifier (``tree-store-unlocked``, ...)
    addr: int      #: word address the violation touched
    tid: int       #: device thread that performed the access
    time: int      #: virtual time of the access
    detail: str    #: human-readable description

    def __str__(self) -> str:
        return (f"[{self.rule}] tid={self.tid} t={self.time} "
                f"addr={self.addr:#x}: {self.detail}")


class _Quarantine:
    """Identity words of one node unlinked from an RCU-protected list."""

    __slots__ = ("node", "domain", "tid", "t_unlink", "label", "words")

    def __init__(self, node: int, domain, tid: int, t_unlink: int,
                 label: str, words: Tuple[int, ...]):
        self.node = node
        self.domain = domain
        self.tid = tid
        self.t_unlink = t_unlink
        self.label = label
        self.words = words


class RaceChecker(Tracer):
    """Protocol-violation detector; attach as the scheduler's tracer.

    Register the structures to watch (usually just
    :meth:`watch_allocator`), run kernels, then inspect
    :attr:`findings`.  Call :meth:`quiesce` at quiescent phase
    checkpoints.
    """

    #: The checker never reads ``word_stats``, so the traced run loop
    #: skips the per-atomic stall hook (it skips any hook set to ``None``).
    atomic_issued = None

    def __init__(self, max_findings: int = 64):
        super().__init__(timeline=False)
        self.max_findings = max_findings
        self.findings: List[RaceFinding] = []
        self.dropped_findings = 0
        # bit-lock state: watched tree address ranges + current holders
        self._tree_ranges: List[Tuple[int, int]] = []
        self._bit_holders: Dict[int, int] = {}     # word addr -> tid
        # spinlock state: watched words -> holder tid (None = free)
        self._spin_holders: Dict[int, Optional[int]] = {}
        # RCU state: id(dlist) -> (domain, identity offsets, label)
        self._rcu_lists: Dict[int, Tuple[object, Tuple[int, ...], str]] = {}
        self._quarantine: Dict[int, _Quarantine] = {}  # word addr -> rec
        self._q_by_node: Dict[int, _Quarantine] = {}

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def watch_tbuddy(self, tb: TBuddy) -> None:
        """Watch a TBuddy's node array for bit-lock violations."""
        self._tree_ranges.append((tb.tree_addr, tb.tree_addr + 8 * tb.n_nodes))

    def watch_spinlock(self, lock) -> None:
        """Watch a :class:`~repro.sync.spinlock.SpinLock`'s word."""
        self._spin_holders.setdefault(lock.addr, None)

    def watch_rcu_list(self, dlist, domain, identity_offsets, label: str) -> None:
        """Quarantine ``identity_offsets`` of nodes unlinked from
        ``dlist`` until ``domain``'s next grace period."""
        self._rcu_lists[id(dlist)] = (domain, tuple(identity_offsets), label)

    def watch_allocator(self, alloc) -> None:
        """Watch every protocol surface of a
        :class:`~repro.core.allocator.ThroughputAllocator`: the TBuddy
        tree, all size-class / chunk-list / RCU-writer spinlocks, and
        the RCU-protected bin and chunk lists."""
        self.watch_tbuddy(alloc.tbuddy)
        for arena in alloc.ualloc.arenas:
            self.watch_spinlock(arena.rcu._mutex)
            self.watch_spinlock(arena.chunk_mutex._mutex)
            self.watch_rcu_list(arena.chunks, arena.rcu,
                                CHUNK_IDENTITY_OFFSETS,
                                f"arena{arena.index}.chunks")
            for sc in arena.classes:
                self.watch_spinlock(sc.lock)
                self.watch_rcu_list(sc.bins, arena.rcu,
                                    BIN_IDENTITY_OFFSETS,
                                    f"arena{arena.index}.bins[{sc.size}]")

    # ------------------------------------------------------------------
    # findings
    # ------------------------------------------------------------------
    @property
    def ok(self) -> bool:
        return not self.findings and not self.dropped_findings

    def _report(self, rule: str, addr: int, tid: int, t: int, detail: str) -> None:
        if len(self.findings) >= self.max_findings:
            self.dropped_findings += 1
            return
        self.findings.append(RaceFinding(rule, addr, tid, t, detail))

    def quiesce(self) -> None:
        """Quiescent-checkpoint reset: no device thread is running, so
        any lock still registered as held is a leak (flagged), and all
        reclamation quarantines are void (host-side drains finish them
        outside the device's instruction stream)."""
        for addr, tid in self._bit_holders.items():
            self._report("bitlock-leak", addr, tid, 0,
                         "node lock still held at quiescence")
        for addr, tid in self._spin_holders.items():
            if tid is not None:
                self._report("spinlock-leak", addr, tid, 0,
                             "spinlock still held at quiescence")
        self._bit_holders.clear()
        for addr in self._spin_holders:
            self._spin_holders[addr] = None
        self._quarantine.clear()
        self._q_by_node.clear()

    # ------------------------------------------------------------------
    # per-memory-op hook (scheduler hot path)
    # ------------------------------------------------------------------
    def mem_op(self, th, op, t, result) -> None:
        code = op[0]
        if code == _ops.OP_LOAD:
            return
        addr = op[1]
        tid = th.tid
        spin = self._spin_holders
        if addr in spin:
            self._spin_op(spin, code, op, addr, tid, t, result)
            return
        for lo, hi in self._tree_ranges:
            if lo <= addr < hi:
                self._tree_op(code, op, addr, tid, t, result)
                return
        q = self._quarantine.get(addr)
        if q is not None and tid != q.tid:
            self._report(
                "rcu-use-after-unlink", addr, tid, t,
                f"write to identity word +{addr - q.node} of {q.label} node "
                f"{q.node:#x}, unlinked at t={q.t_unlink} by tid={q.tid}, "
                "before a grace period",
            )

    def _spin_op(self, spin, code, op, addr, tid, t, result) -> None:
        holder = spin[addr]
        if code == _ops.OP_CAS:
            if op[2] == 0 and op[3] == 1 and result == 0:
                spin[addr] = tid  # acquired
            return
        if code == _ops.OP_EXCH and op[2] == 0:
            if holder is None:
                self._report("spinlock-release-unheld", addr, tid, t,
                             "released a spinlock nobody holds")
            elif holder != tid:
                self._report(
                    "spinlock-release-nonowner", addr, tid, t,
                    f"released a spinlock held by tid={holder}")
            spin[addr] = None
            return
        if code == _ops.OP_STORE:
            self._report("spinlock-plain-store", addr, tid, t,
                         f"plain store of {op[2]:#x} to a spinlock word")
            spin[addr] = tid if op[2] else None
            return
        self._report(
            "spinlock-raw-atomic", addr, tid, t,
            f"{_ops.OP_NAMES.get(code, code)} on a spinlock word",
        )

    def _tree_op(self, code, op, addr, tid, t, result) -> None:
        holders = self._bit_holders
        holder = holders.get(addr)
        if code == _ops.OP_CAS:
            expected, new = op[2], op[3]
            if result != expected:
                return  # failed CAS: no effect
            if not (expected & LOCK_BIT) and (new & LOCK_BIT):
                holders[addr] = tid  # lock acquired
            elif (expected & LOCK_BIT) and not (new & LOCK_BIT):
                if holder != tid:
                    self._report(
                        "bitlock-release-nonowner", addr, tid, t,
                        f"CAS cleared a node lock held by tid={holder}")
                holders.pop(addr, None)
            return
        if code == _ops.OP_AND:
            if not (op[2] & LOCK_BIT):  # mask clears the lock bit
                if holder is None:
                    self._report("bitlock-release-unheld", addr, tid, t,
                                 "unlocked a node nobody holds")
                elif holder != tid:
                    self._report(
                        "bitlock-release-nonowner", addr, tid, t,
                        f"unlocked a node lock held by tid={holder}")
                holders.pop(addr, None)
            return  # AND preserving the lock bit (flag updates) is fine
        if code == _ops.OP_OR:
            if (op[2] & LOCK_BIT) and holder != tid:
                self._report("bitlock-forged", addr, tid, t,
                             "OR set a node lock bit without a CAS acquire")
            return  # OR of non-lock bits (flag updates) is fine
        if code == _ops.OP_STORE:
            value = op[2]
            if holder is None:
                self._report(
                    "tree-store-unlocked", addr, tid, t,
                    f"plain store of {value:#x} to a tree word whose node "
                    "lock the thread does not hold")
            elif holder != tid:
                self._report(
                    "tree-store-clobbers-lock", addr, tid, t,
                    f"plain store of {value:#x} over a node lock held by "
                    f"tid={holder}")
                if not (value & LOCK_BIT):
                    holders.pop(addr, None)
            elif not (value & LOCK_BIT):
                holders.pop(addr, None)  # store-release by the holder
            return
        self._report(
            "tree-raw-atomic", addr, tid, t,
            f"{_ops.OP_NAMES.get(code, code)} on a tree node word",
        )

    # ------------------------------------------------------------------
    # structured attach points
    # ------------------------------------------------------------------
    def list_removed(self, ctx, dlist, node: int) -> None:
        watched = self._rcu_lists.get(id(dlist))
        if watched is None:
            return
        domain, offsets, label = watched
        old = self._q_by_node.pop(node, None)
        if old is not None:
            for w in old.words:
                self._quarantine.pop(w, None)
        words = tuple(node + off for off in offsets)
        rec = _Quarantine(node, domain, ctx.tid, self.now(ctx), label, words)
        self._q_by_node[node] = rec
        for w in words:
            self._quarantine[w] = rec

    def list_inserted(self, ctx, dlist, node: int) -> None:
        rec = self._q_by_node.pop(node, None)
        if rec is not None:
            for w in rec.words:
                self._quarantine.pop(w, None)

    def rcu_grace_period(self, ctx, t_flip: int, t_drained: int,
                         domain=None) -> None:
        super().rcu_grace_period(ctx, t_flip, t_drained, domain=domain)
        if not self._q_by_node:
            return
        # Lift every quarantine of this domain whose unlink precedes the
        # epoch flip: the grace period covers all readers that could
        # still see those nodes, and the hook fires before callbacks
        # run, so reclamation's own writes land after the lift.
        lifted = [rec for rec in self._q_by_node.values()
                  if rec.domain is domain and rec.t_unlink < t_flip]
        for rec in lifted:
            del self._q_by_node[rec.node]
            for w in rec.words:
                self._quarantine.pop(w, None)

    def summary(self, top: int = 10) -> str:
        lines = [f"race checker: {len(self.findings)} finding(s)"
                 + (f" (+{self.dropped_findings} dropped)"
                    if self.dropped_findings else "")]
        lines += [f"  {f}" for f in self.findings]
        return "\n".join(lines)

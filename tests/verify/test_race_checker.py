"""RaceChecker unit tests: each rule family exercised directly through
the ``mem_op`` / list / grace-period hooks with synthetic op streams.

The checker is driven without a scheduler: ``mem_op`` takes the thread,
op tuple, time and result explicitly, and ``now()`` is satisfied by a
stub scheduler exposing per-tid clocks.
"""

from types import SimpleNamespace

import pytest

from repro.core.tbuddy import ALLOC_BIT, AVAILABLE, BUSY, LOCK_BIT
from repro.sim import ops
from repro.verify.race import RaceChecker

TREE = 0x1000          # watched tree range: 8 node words
SPIN = 0x2000          # watched spinlock word
NODE = 0x3000          # RCU-watched list node


def th(tid):
    return SimpleNamespace(tid=tid)


def make_checker(clock=0):
    c = RaceChecker()
    c.watch_tbuddy(SimpleNamespace(tree_addr=TREE, n_nodes=8))
    c.watch_spinlock(SimpleNamespace(addr=SPIN))
    c._sched = SimpleNamespace(
        _threads={tid: SimpleNamespace(clock=clock) for tid in range(8)},
        _now=0,
    )
    return c


def rules(c):
    return [f.rule for f in c.findings]


def acquire_tree(c, tid, addr=TREE, word=AVAILABLE, t=0):
    """Legitimate bit-lock acquire: CAS word -> word|LOCK_BIT."""
    c.mem_op(th(tid), (ops.OP_CAS, addr, word, word | LOCK_BIT), t, word)


class TestTreeBitLocks:
    def test_clean_lock_store_unlock_cycle(self):
        c = make_checker()
        acquire_tree(c, 1)
        # holder's store keeping the bit (parent repair) and the final
        # store-release are both legitimate
        c.mem_op(th(1), (ops.OP_STORE, TREE, BUSY | LOCK_BIT), 1, None)
        c.mem_op(th(1), (ops.OP_STORE, TREE, BUSY), 2, None)
        assert c.ok

    def test_clean_and_release_by_owner(self):
        c = make_checker()
        acquire_tree(c, 1)
        c.mem_op(th(1), (ops.OP_AND, TREE, ~LOCK_BIT), 1, AVAILABLE | LOCK_BIT)
        assert c.ok

    def test_failed_cas_does_not_acquire(self):
        c = make_checker()
        # result != expected: the CAS lost, tid 1 holds nothing
        c.mem_op(th(1), (ops.OP_CAS, TREE, AVAILABLE, AVAILABLE | LOCK_BIT),
                 0, BUSY)
        c.mem_op(th(1), (ops.OP_STORE, TREE, BUSY), 1, None)
        assert rules(c) == ["tree-store-unlocked"]

    def test_unlocked_store_flagged(self):
        c = make_checker()
        c.mem_op(th(2), (ops.OP_STORE, TREE + 8, BUSY), 5, None)
        assert rules(c) == ["tree-store-unlocked"]
        assert c.findings[0].addr == TREE + 8
        assert c.findings[0].tid == 2

    def test_store_over_held_lock_flagged(self):
        c = make_checker()
        acquire_tree(c, 1)
        c.mem_op(th(2), (ops.OP_STORE, TREE, BUSY), 1, None)
        assert rules(c) == ["tree-store-clobbers-lock"]
        # the store wiped the bit: tid 1's subsequent unlock is now of an
        # unheld lock (exactly the stale-DFS corruption cascade)
        c.mem_op(th(1), (ops.OP_AND, TREE, ~LOCK_BIT), 2, BUSY)
        assert rules(c) == ["tree-store-clobbers-lock",
                            "bitlock-release-unheld"]

    def test_and_release_by_nonowner_flagged(self):
        c = make_checker()
        acquire_tree(c, 1)
        c.mem_op(th(2), (ops.OP_AND, TREE, ~LOCK_BIT), 1, AVAILABLE | LOCK_BIT)
        assert rules(c) == ["bitlock-release-nonowner"]

    def test_cas_release_by_nonowner_flagged(self):
        c = make_checker()
        acquire_tree(c, 1, word=BUSY)
        c.mem_op(th(2), (ops.OP_CAS, TREE, BUSY | LOCK_BIT, BUSY),
                 1, BUSY | LOCK_BIT)
        assert rules(c) == ["bitlock-release-nonowner"]

    def test_or_forging_lock_bit_flagged(self):
        c = make_checker()
        c.mem_op(th(3), (ops.OP_OR, TREE, LOCK_BIT), 0, AVAILABLE)
        assert rules(c) == ["bitlock-forged"]

    def test_or_and_of_flag_bits_allowed(self):
        # the ALLOC-bit set/clear on a locked-elsewhere word is the
        # legitimate pattern _alloc_once/free use
        c = make_checker()
        c.mem_op(th(1), (ops.OP_OR, TREE, ALLOC_BIT), 0, BUSY)
        c.mem_op(th(1), (ops.OP_AND, TREE, ~ALLOC_BIT), 1, BUSY | ALLOC_BIT)
        assert c.ok

    def test_raw_atomic_flagged(self):
        c = make_checker()
        c.mem_op(th(1), (ops.OP_ADD, TREE, 1), 0, BUSY)
        assert rules(c) == ["tree-raw-atomic"]

    def test_loads_and_unwatched_addresses_ignored(self):
        c = make_checker()
        c.mem_op(th(1), (ops.OP_LOAD, TREE), 0, BUSY)
        c.mem_op(th(1), (ops.OP_STORE, 0x9000, 7), 0, None)
        assert c.ok


class TestSpinLocks:
    def test_clean_acquire_release(self):
        c = make_checker()
        c.mem_op(th(1), (ops.OP_CAS, SPIN, 0, 1), 0, 0)
        c.mem_op(th(1), (ops.OP_EXCH, SPIN, 0), 1, 1)
        assert c.ok

    def test_failed_acquire_then_owner_release(self):
        c = make_checker()
        c.mem_op(th(1), (ops.OP_CAS, SPIN, 0, 1), 0, 0)   # tid 1 wins
        c.mem_op(th(2), (ops.OP_CAS, SPIN, 0, 1), 1, 1)   # tid 2 loses
        c.mem_op(th(1), (ops.OP_EXCH, SPIN, 0), 2, 1)
        assert c.ok

    def test_release_by_nonowner_flagged(self):
        c = make_checker()
        c.mem_op(th(1), (ops.OP_CAS, SPIN, 0, 1), 0, 0)
        c.mem_op(th(2), (ops.OP_EXCH, SPIN, 0), 1, 1)
        assert rules(c) == ["spinlock-release-nonowner"]

    def test_release_unheld_flagged(self):
        c = make_checker()
        c.mem_op(th(2), (ops.OP_EXCH, SPIN, 0), 0, 0)
        assert rules(c) == ["spinlock-release-unheld"]

    def test_plain_store_flagged(self):
        c = make_checker()
        c.mem_op(th(1), (ops.OP_STORE, SPIN, 0), 0, None)
        assert rules(c) == ["spinlock-plain-store"]

    def test_raw_atomic_flagged(self):
        c = make_checker()
        c.mem_op(th(1), (ops.OP_ADD, SPIN, 1), 0, 0)
        assert rules(c) == ["spinlock-raw-atomic"]


class TestRCUQuarantine:
    OFFSETS = (0, 16)

    def make(self):
        c = make_checker()
        self.dlist = SimpleNamespace()
        self.domain = SimpleNamespace()
        c.watch_rcu_list(self.dlist, self.domain, self.OFFSETS, "bins")
        return c

    def unlink(self, c, tid=1, clock=100):
        c._sched._threads[tid].clock = clock
        c.list_removed(SimpleNamespace(tid=tid), self.dlist, NODE)

    def test_foreign_write_before_grace_flagged(self):
        c = self.make()
        self.unlink(c)
        c.mem_op(th(2), (ops.OP_STORE, NODE + 16, 0), 150, None)
        assert rules(c) == ["rcu-use-after-unlink"]
        f = c.findings[0]
        assert f.addr == NODE + 16 and "bins" in f.detail

    def test_unlinker_may_write_its_own_node(self):
        c = self.make()
        self.unlink(c, tid=1)
        c.mem_op(th(1), (ops.OP_STORE, NODE, 0), 150, None)
        assert c.ok

    def test_mutable_offsets_not_quarantined(self):
        c = self.make()
        self.unlink(c)
        c.mem_op(th(2), (ops.OP_STORE, NODE + 8, 3), 150, None)
        assert c.ok

    def test_reinsertion_lifts_quarantine(self):
        c = self.make()
        self.unlink(c)
        c.list_inserted(SimpleNamespace(tid=2), self.dlist, NODE)
        c.mem_op(th(2), (ops.OP_STORE, NODE, 0), 150, None)
        assert c.ok

    def test_grace_period_lifts_earlier_unlinks(self):
        c = self.make()
        self.unlink(c, clock=100)
        c.rcu_grace_period(SimpleNamespace(tid=0, sm=0), 150, 180,
                           domain=self.domain)
        c.mem_op(th(2), (ops.OP_STORE, NODE, 0), 200, None)
        assert c.ok

    def test_grace_period_does_not_lift_later_unlinks(self):
        c = self.make()
        self.unlink(c, clock=200)  # unlinked after this grace's epoch flip
        c.rcu_grace_period(SimpleNamespace(tid=0, sm=0), 150, 180,
                           domain=self.domain)
        c.mem_op(th(2), (ops.OP_STORE, NODE, 0), 250, None)
        assert rules(c) == ["rcu-use-after-unlink"]

    def test_grace_period_of_other_domain_does_not_lift(self):
        c = self.make()
        self.unlink(c, clock=100)
        c.rcu_grace_period(SimpleNamespace(tid=0, sm=0), 150, 180,
                           domain=SimpleNamespace())
        c.mem_op(th(2), (ops.OP_STORE, NODE, 0), 200, None)
        assert rules(c) == ["rcu-use-after-unlink"]

    def test_unwatched_list_ignored(self):
        c = self.make()
        c.list_removed(SimpleNamespace(tid=1), SimpleNamespace(), NODE)
        c.mem_op(th(2), (ops.OP_STORE, NODE, 0), 150, None)
        assert c.ok


class TestQuiesce:
    def test_leaked_locks_flagged_and_state_reset(self):
        c = make_checker()
        acquire_tree(c, 1)
        c.mem_op(th(2), (ops.OP_CAS, SPIN, 0, 1), 0, 0)
        c.quiesce()
        assert sorted(rules(c)) == ["bitlock-leak", "spinlock-leak"]
        # state was reset: a fresh clean cycle reports nothing new
        acquire_tree(c, 3)
        c.mem_op(th(3), (ops.OP_STORE, TREE, BUSY), 1, None)
        assert sorted(rules(c)) == ["bitlock-leak", "spinlock-leak"]

    def test_quiesce_voids_quarantines(self):
        c = make_checker()
        dlist, domain = SimpleNamespace(), SimpleNamespace()
        c.watch_rcu_list(dlist, domain, (0,), "x")
        c.list_removed(SimpleNamespace(tid=1), dlist, NODE)
        c.quiesce()
        c.mem_op(th(2), (ops.OP_STORE, NODE, 0), 10, None)
        assert c.ok

    def test_clean_quiesce_is_silent(self):
        c = make_checker()
        acquire_tree(c, 1)
        c.mem_op(th(1), (ops.OP_STORE, TREE, BUSY), 1, None)  # released
        c.quiesce()
        assert c.ok


class TestReporting:
    def test_findings_bounded(self):
        c = RaceChecker(max_findings=2)
        c.watch_tbuddy(SimpleNamespace(tree_addr=TREE, n_nodes=8))
        for i in range(5):
            c.mem_op(th(1), (ops.OP_STORE, TREE, BUSY), i, None)
        assert len(c.findings) == 2
        assert c.dropped_findings == 3
        assert not c.ok

    def test_summary_mentions_rule_and_addr(self):
        c = make_checker()
        c.mem_op(th(2), (ops.OP_STORE, TREE, BUSY), 7, None)
        s = c.summary()
        assert "tree-store-unlocked" in s and "tid=2" in s

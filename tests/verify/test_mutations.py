"""Mutation tests: prove the verification subsystem has teeth.

Each test re-introduces a *known-bad* variant of an allocator protocol
and asserts a case the explorer always runs — its round 0 is every
scenario at seeds 0 and 1, unperturbed — catches it deterministically:

* **Unlocked merge store** — TBuddy's free/merge path publishing BUSY
  with a plain store instead of the locked ``_transition``.  A stale
  DFS can transiently lock the node, so the store clobbers a held lock;
  the race checker flags it on the storm scenario's early seeds.

* **Skipped renege** — a thread whose batch promise fails must renege
  its expectation (``E -= k``); dropping that leaves waiters reserved
  against supply that will never arrive.  Under the OOM storm this
  manifests as a deadlock (threads spin past the event budget) or,
  on schedules that drain, as the ``E == 0`` checkpoint assertion.

* **Short chunk renege** — UAlloc's new-chunk failure arm reneging
  ``n_regular_bins - 2`` instead of the ``n_regular_bins - 1`` it
  promised leaves ``E == 1`` on the arena's bin semaphore.

The skipped and the short renege must also fail resil's single-fault
placement of their failure arm at the first firing.  Every mutant's
case also runs unmutated as a control, to show the failure signal comes
from the mutation, not the harness.
"""

import inspect
import textwrap

import pytest

from repro.core import tbuddy as tb_mod
from repro.core import ualloc as ualloc_mod
from repro.resil.runner import ResilSpec
from repro.resil.runner import run_case as resil_run_case
from repro.sim import ops
from repro.sync.bulk_semaphore import BulkSemaphore
from repro.verify import CaseSpec, run_case
from repro.verify import runner as runner_mod

#: the seeds of the explorer's round 0; empirically the mutations
#: below are caught at the very first ones.
MUTATION_A_SEEDS = (0, 1)


@pytest.fixture
def unlocked_merge_store(monkeypatch):
    """Mutation A: free's merge path marks the kept node BUSY with a
    plain store (no lock, no expect_state check)."""
    orig = tb_mod.TBuddy._transition

    def broken(self, ctx, node, new_word, expect_state=None):
        if new_word == tb_mod.BUSY and expect_state is None:
            yield ops.store(self._naddr(node), new_word)
            return True
        res = yield from orig(self, ctx, node, new_word, expect_state)
        return res

    monkeypatch.setattr(tb_mod.TBuddy, "_transition", broken)


@pytest.fixture
def skipped_renege(monkeypatch):
    """Mutation B: a failed batch promise never gives back its
    expectation."""

    def no_renege(self, ctx, k):
        return
        yield  # pragma: no cover - keeps this a generator

    monkeypatch.setattr(BulkSemaphore, "renege", no_renege)
    # A deadlocked case only fails once the event budget trips; shrink
    # the budget (5x headroom over any passing case) to keep this fast.
    monkeypatch.setattr(runner_mod, "EVENT_BUDGET", 2_000_000)


def test_unlocked_merge_store_is_caught(unlocked_merge_store):
    results = [run_case(CaseSpec("storm", seed))
               for seed in MUTATION_A_SEEDS]
    caught = [r for r in results if not r.ok]
    assert caught, (
        "race checker missed the unlocked merge store on seeds "
        f"{MUTATION_A_SEEDS}"
    )
    rules = {f.rule for r in caught for f in r.findings}
    assert rules & {"tree-store-unlocked", "tree-store-clobbers-lock"}, rules
    # every failure is replayable
    for r in caught:
        assert CaseSpec.parse(r.spec.replay) == r.spec


def test_storm_control_passes_without_mutation_a():
    for seed in MUTATION_A_SEEDS:
        res = run_case(CaseSpec("storm", seed))
        assert res.ok, res.describe()


def test_skipped_renege_is_caught(skipped_renege):
    res = run_case(CaseSpec("storm_oom", 0))
    assert not res.ok, "storm_oom:0 missed the skipped renege"
    assert res.error is not None
    # structural deadlock, the livelock guard (waiters spinning on the
    # phantom expectation past the event budget), or the quiescent
    # accounting check — which one depends on the schedule
    assert ("DeadlockError" in res.error
            or "EventBudgetExceeded" in res.error
            or "renege" in res.error
            or "E ==" in res.error), res.error
    # the outcome taxonomy must agree with the error: a budget trip with
    # no race findings is a "budget" outcome, anything else "protocol"
    if "EventBudgetExceeded" in res.error:
        assert res.budget_exhausted
        assert res.kind == ("protocol" if res.findings else "budget")
    else:
        assert not res.budget_exhausted
        assert res.kind == "protocol"


def test_storm_oom_control_passes_without_mutation_b(monkeypatch):
    monkeypatch.setattr(runner_mod, "EVENT_BUDGET", 2_000_000)
    res = run_case(CaseSpec("storm_oom", 0))
    assert res.ok, res.describe()


# ----------------------------------------------------------------------
# the same mutants against resil's single-fault placements
# ----------------------------------------------------------------------
#: the placements that catch each mutant at the first firing; churn's
#: placements catch them only once the event budget trips, so they are
#: not used here
SPLIT_PLACEMENT = "storm:1:site=tbuddy.split,every=1,max=1"
CHUNK_PLACEMENT = "storm:1:site=ualloc.new_chunk,every=1,max=1"


@pytest.fixture
def short_chunk_renege(monkeypatch):
    """Mutation C: UAlloc's new-chunk failure arm reneges one bin short
    of its batch promise (``n_regular_bins - 2``)."""
    src = textwrap.dedent(inspect.getsource(ualloc_mod.UAlloc._new_chunk))
    good = "renege(ctx, self.cfg.n_regular_bins - 1)"
    assert src.count(good) == 1, "the mutated line moved"
    namespace = dict(vars(ualloc_mod))
    exec(src.replace(good, "renege(ctx, self.cfg.n_regular_bins - 2)"),
         namespace)
    monkeypatch.setattr(ualloc_mod.UAlloc, "_new_chunk",
                        namespace["_new_chunk"])


def _placement(replay):
    return resil_run_case(ResilSpec.parse(replay), replay_check=False)


def test_skipped_renege_fails_its_placement(skipped_renege):
    res = _placement(SPLIT_PLACEMENT)
    assert not res.ok
    assert "order 1: E=1 R=0" in res.error, res.error


def test_short_chunk_renege_fails_its_placement(short_chunk_renege):
    res = _placement(CHUNK_PLACEMENT)
    assert not res.ok
    assert "arena 0 bin_sem: E=1 R=0" in res.error, res.error


@pytest.mark.parametrize("replay", [SPLIT_PLACEMENT, CHUNK_PLACEMENT])
def test_placement_controls_pass_without_mutation(replay):
    res = _placement(replay)
    assert res.ok, res.describe()
    assert res.n_injected == 1

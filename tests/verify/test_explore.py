"""Exploration engine: determinism, coverage, outcome taxonomy, teeth.

The teeth test seeds a *contention-gated* protocol bug: TBuddy's
transition path publishes with a plain store — but only when its entry
load observes the target node's lock bit already set.  Executing the bad
store therefore requires a schedule that contends that exact node at
that exact moment, which is precisely the kind of corner a fixed
perturbation grid visits only by luck and a coverage-guided explorer is
built to reach.  The target node was calibrated (see TREE_NODE below)
so a fixed reference grid (GRID_PERTURBATIONS x seeds 0-1) misses the
bug at an equal case budget while the explorer's steered schedules hit
it.
"""

import pytest

from repro.core import tbuddy as tb_mod
from repro.sim import ops
from repro.verify import CaseSpec, Perturbation, run_case, shrink_case
from repro.verify import runner as runner_mod
from repro.verify.cli import main as verify_main
from repro.verify.explore import (
    BATCH,
    Explorer,
    ScheduleCoverage,
    explore,
    run_probed,
)

#: the reference grid the explorer is measured against: a fixed deck of
#: perturbations chosen by hand to bend the timing relationships the
#: protocols depend on (atomic service pressure, load/store skew, cheap
#: yields, dispatch jitter), run at seeds 0 and 1
GRID_PERTURBATIONS = (
    "",
    "atomic_latency=4",
    "atomic_service=4",
    "load_latency=4,store_latency=0.25",
    "store_latency=8",
    "yield_cost=0.25",
    "jitter=256",
    "atomic_latency=4,jitter=512",
)
GRID_SEEDS = (0, 1)

#: equal-budget comparison point for the separation tests: 16 cases is
#: the reference grid over one scenario.
SEP_BUDGET = len(GRID_PERTURBATIONS) * len(GRID_SEEDS)


def grid_run(scenario):
    """Run the reference grid over one scenario, probed like the
    explorer; returns its schedule coverage and its failing results."""
    coverage = ScheduleCoverage()
    failures = []
    for seed in GRID_SEEDS:
        for pert in GRID_PERTURBATIONS:
            out = run_probed(
                CaseSpec(scenario, seed, Perturbation.parse(pert)))
            coverage.observe(out)
            if not out.result.ok:
                failures.append(out.result)
    return coverage, failures


#: the seeded bug's gated tree node.  Calibrated empirically (schedule-
#: neutral spy on ``_transition`` entry loads): at SEP_BUDGET over the
#: storm scenario, no reference-grid schedule ever observes this node's
#: lock bit set at transition entry, while explorer schedules (master
#: seed 0) do.  If a scheduler change shifts schedules, re-run the spy
#: (record nodes with LOCK_BIT set at the first ``_transition`` load,
#: per case) and pick a node in the explorer-only set.
TREE_NODE = 89


@pytest.fixture
def contended_publish(monkeypatch):
    """Seeded bug: when ``_transition``'s entry load sees TREE_NODE's
    lock bit set, publish with a plain store instead of locking.

    The wrapper forwards the original generator's ops verbatim until
    the gate fires, so every schedule is byte-identical to the clean
    run up to the moment the bug executes — the grid/explorer
    separation measured on clean runs carries over exactly.
    """
    orig = tb_mod.TBuddy._transition

    def broken(self, ctx, node, new_word, expect_state=None):
        gen = orig(self, ctx, node, new_word, expect_state)
        op = next(gen)  # _lock's entry load of the node word
        res = yield op
        if (node == TREE_NODE and op[0] == ops.OP_LOAD
                and (res & tb_mod.LOCK_BIT)):
            gen.close()
            yield ops.store(self._naddr(node), new_word)
            return True
        try:
            while True:
                op = gen.send(res)
                res = yield op
        except StopIteration as e:
            return e.value

    monkeypatch.setattr(tb_mod.TBuddy, "_transition", broken)


class TestScheduleIdentity:
    def test_same_spec_same_schedule_digest(self):
        """Replay determinism: the same explore spec produces a
        byte-identical digest chain (prefixes and schedule hash).

        The hashes are pinned too.  The chain seed folds the scenario,
        the backend and PROBE_EVERY; the values were recorded while the
        probe cadence was still an option, so dropping the fold (or
        moving a digest) fails here even when coverage counts hold."""
        spec = CaseSpec("churn", 0, Perturbation.parse("steer=2"))
        a, b = run_probed(spec), run_probed(spec)
        assert a.result.ok and b.result.ok
        assert a.prefixes, "probe never fired"
        assert a.prefixes == b.prefixes
        assert a.schedule == b.schedule
        assert a.peak_contention == b.peak_contention
        assert a.schedule == 0x7A83A036C2837FAE
        assert a.prefixes[0] == 0x40FC20BE49B71E9B
        assert len(a.prefixes) == 22

    def test_distinct_steer_salts_distinct_schedules(self):
        outs = [
            run_probed(CaseSpec("churn", 0, Perturbation.parse(f"steer={s}")))
            for s in (1, 2)
        ]
        assert outs[0].schedule != outs[1].schedule

    def test_explored_specs_replay_through_existing_machinery(self):
        """Every explored spec — steering suffix included — must round-
        trip through the replay string parser."""
        spec = CaseSpec("storm", 3,
                        Perturbation.parse("atomic_latency=4,steer=7"))
        assert CaseSpec.parse(spec.replay) == spec
        assert "steer=7" in spec.replay


class TestExplorerDeterminism:
    def test_identical_reports_at_any_worker_count(self):
        reports = [
            explore(scenarios=["churn"], budget=2 * BATCH, workers=w)
            for w in (1, 2)
        ]
        a, b = reports
        assert a.cases == b.cases == 2 * BATCH
        assert a.distinct_schedules == b.distinct_schedules
        assert a.distinct_prefixes == b.distinct_prefixes
        assert a.peak_contention == b.peak_contention
        assert ([f.spec.replay for f in a.failures]
                == [f.spec.replay for f in b.failures])

    def test_negative_workers_rejected_at_construction(self):
        # used to construct fine and fail only at the first pooled batch
        with pytest.raises(ValueError, match=r"workers must be >= 0 \(got -1\)"):
            Explorer(workers=-1)

    def test_master_seed_changes_the_walk(self):
        a = explore(scenarios=["churn"], budget=8, master_seed=0)
        b = explore(scenarios=["churn"], budget=8, master_seed=1)
        # round 0 is shared; the steered tail must diverge
        assert a.cases == b.cases == 8
        assert (a.distinct_schedules, a.distinct_prefixes) \
            != (b.distinct_schedules, b.distinct_prefixes)


#: ``explore(budget=40, master_seed=0)`` over every scenario, as CI's
#: explore smoke job runs it.  Exploration is deterministic, so these are
#: exact: a digest or steering change that collapses even one schedule
#: into another moves them.
PINNED_BUDGET = 40
PINNED_SCHEDULES = 40
PINNED_PREFIXES = 1720


class TestCoverage:
    @pytest.mark.parametrize("workers", [1, 2, 0])
    def test_pinned_coverage_at_the_ci_budget(self, workers):
        rep = explore(budget=PINNED_BUDGET, master_seed=0, workers=workers)
        assert rep.cases == PINNED_BUDGET
        assert rep.distinct_schedules == PINNED_SCHEDULES
        assert rep.distinct_prefixes == PINNED_PREFIXES

    def test_explorer_beats_the_deck_at_equal_budget(self):
        """The tentpole's reason to exist: at the same case budget the
        steered walk visits strictly more distinct schedules than the
        fixed grid (deterministic, so pinned with strict >)."""
        ex = explore(scenarios=["churn"], budget=SEP_BUDGET)
        grid, _ = grid_run("churn")
        assert ex.cases == SEP_BUDGET
        assert ex.distinct_schedules > len(grid.schedules)
        assert ex.distinct_prefixes > len(grid.prefixes)


#: the teeth test's failing replay strings, pinned so that every worker
#: count must report exactly the same failures (exploration is
#: deterministic; re-pin when TREE_NODE is re-calibrated)
TEETH_REPLAYS = ["storm:0:jitter=1024", "storm:1:steer=1"]


class TestTeeth:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_explorer_finds_seeded_bug_the_deck_misses(self, contended_publish,
                                                       workers):
        # At workers=2 the cases run in the session's forked pool, so a
        # pool forked before the monkeypatch (a process-global one) would
        # run clean TBuddy code and miss the bug.
        _, grid_failures = grid_run("storm")
        assert not grid_failures, (
            "calibration drifted: the reference grid now catches the "
            "gated bug — re-calibrate TREE_NODE (see module docstring)\n"
            + "\n".join(res.describe() for res in grid_failures)
        )
        ex = explore(scenarios=["storm"], budget=SEP_BUDGET, workers=workers)
        assert ex.failures, (
            "explorer lost its teeth: the seeded contention-gated bug "
            "went unnoticed at a budget where steered schedules reach "
            "it\n" + ex.describe()
        )
        rules = {f.rule for res in ex.failures for f in res.findings}
        assert rules & {"tree-store-unlocked", "tree-store-clobbers-lock"}, \
            rules
        assert [f.spec.replay for f in ex.failures] == TEETH_REPLAYS

    def test_explorer_failures_replay_and_shrink(self, contended_publish):
        ex = explore(scenarios=["storm"], budget=SEP_BUDGET)
        assert ex.failures
        first = ex.failures[0]
        # deterministic replay: the bare spec reproduces the failure
        again = run_case(first.spec)
        assert not again.ok
        assert again.kind == first.kind
        assert ({f.rule for f in again.findings}
                == {f.rule for f in first.findings})
        # and the existing shrinker minimizes it
        minimal = shrink_case(first.spec)
        assert not run_case(minimal).ok
        assert len(minimal.perturbation) <= len(first.spec.perturbation)


class TestBudgetTaxonomy:
    def test_budget_exhaustion_is_its_own_outcome(self, monkeypatch):
        monkeypatch.setattr(runner_mod, "EVENT_BUDGET", 2_000)
        res = run_case(CaseSpec("churn", 0))
        assert not res.ok
        assert res.budget_exhausted
        assert res.kind == "budget"
        assert "EventBudgetExceeded" in res.error
        assert "[budget-exhausted]" in res.describe()

    def test_explorer_segregates_budget_trips(self, monkeypatch):
        monkeypatch.setattr(runner_mod, "EVENT_BUDGET", 2_000)
        rep = explore(scenarios=["churn"], budget=4)
        assert not rep.failures          # no protocol violations...
        assert rep.budget_failures       # ...only budget artifacts
        assert rep.ok                    # which are non-fatal by default


class TestCli:
    def test_exploration_smoke(self, capsys):
        rc = verify_main(["--budget", "6", "--scenario",
                          "churn", "--quiet", "--min-coverage", "4"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "distinct schedule(s)" in out

    def test_coverage_floor_fails_the_run(self, capsys):
        rc = verify_main(["--budget", "4", "--scenario",
                          "churn", "--quiet", "--min-coverage", "999"])
        out = capsys.readouterr().out
        assert rc == 1, out
        assert "coverage floor missed" in out

    @pytest.mark.parametrize("argv, message", [
        (["--budget", "0"], "argument --budget: must be >= 1 (got 0)"),
        (["--budget", "-3"], "argument --budget: must be >= 1 (got -3)"),
        (["--min-coverage", "-1"],
         "argument --min-coverage: must be >= 0 (got -1)"),
        (["--backend", "nope"], "argument --backend: unknown backend 'nope'"),
    ])
    def test_hostile_options_are_usage_errors(self, argv, message, capsys):
        # these used to raise a ValueError traceback (exit 1) mid-run
        with pytest.raises(SystemExit) as exc:
            verify_main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_explore_subcommand_is_gone(self, capsys):
        # exploring is what `verify` does; the old subcommand word is
        # now an unrecognized argument, not a silent alias
        with pytest.raises(SystemExit) as exc:
            verify_main(["explore", "--budget", "4"])
        assert exc.value.code == 2
        assert "unrecognized arguments: explore" in capsys.readouterr().err

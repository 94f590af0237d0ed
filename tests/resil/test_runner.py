"""Resil runner: specs, placements, the deck, recovery assertions,
replay, bench."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import backends
from repro.resil import FaultPlan
from repro.resil import cli
from repro.resil.plan import SITES, FaultRule
from repro.resil import runner as resil_runner
from repro.resil.runner import (
    DECK,
    FAIL_SITES,
    ResilResult,
    ResilSpec,
    kinds_injected,
    placements,
    run_case,
    run_deck,
)
from repro.verify.runner import SCENARIOS

#: single-fault placements per scenario at the placement seed; each is
#: the K of that scenario's `resil run` certificate
PLACEMENT_COUNTS = {
    "storm": 200, "churn": 8, "producer_consumer": 6, "storm_oom": 65,
    "multi_tenant": 45, "trace_replay": 45, "serve_session": 477,
}

#: sampled fail-kind plans that the placements replaced in the deck;
#: replay strings printed before stay runnable
RATE_PLANS = [
    "storm:1:site=tbuddy.split,p=0.5,max=8",
    "storm:2:site=tbuddy.alloc,p=0.25,max=12",
    "storm:3:site=tbuddy.alloc,max=4,detail=6",
    "churn:1:site=ualloc.new_chunk,max=4",
    "multi_tenant:1:site=tbuddy.alloc,p=0.2,max=10",
    "serve_session:1:site=tbuddy.alloc,p=0.2,max=8",
    "storm:5:site=tbuddy.split,max=20",
    "storm:6:site=tbuddy.alloc,p=0.5,max=40",
    "churn:4:site=ualloc.new_chunk,every=2,max=8",
    "storm_oom:2:site=tbuddy.alloc,p=0.4,max=30",
    "multi_tenant:3:site=tbuddy.split,p=0.5,max=8",
    "trace_replay:1:site=tbuddy.alloc,p=0.3,max=12",
    "serve_session:3:site=tbuddy.split,p=0.4,max=6",
]


@pytest.fixture(scope="module")
def placed():
    """Every scenario's placements (seven clean counting runs)."""
    return {name: placements(name) for name in SCENARIOS}

fault_rules = st.builds(
    FaultRule,
    site=st.sampled_from(sorted(SITES)),
    p=st.floats(min_value=0, max_value=1, exclude_min=True),
    every=st.integers(min_value=0, max_value=10 ** 6),
    max=st.integers(min_value=0, max_value=10 ** 6),
    after=st.integers(min_value=0, max_value=10 ** 6),
    cycles=st.integers(min_value=1, max_value=10 ** 9),
    detail=st.none() | st.integers(min_value=-4, max_value=64),
)

resil_specs = st.builds(
    ResilSpec, st.sampled_from(sorted(SCENARIOS)), st.integers(),
    st.lists(fault_rules, max_size=3).map(lambda rs: FaultPlan(tuple(rs))),
    st.sampled_from(backends.names()),
)


class TestResilSpec:
    def test_replay_roundtrip(self):
        spec = ResilSpec("storm", 7, FaultPlan.parse("site=tbuddy.split,p=0.5"))
        assert spec.replay == "storm:7:site=tbuddy.split,p=0.5"
        assert ResilSpec.parse(spec.replay) == spec

    def test_parse_without_plan(self):
        spec = ResilSpec.parse("churn:3")
        assert spec == ResilSpec("churn", 3)
        assert not spec.plan

    def test_parse_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            ResilSpec.parse("just-a-scenario")
        with pytest.raises(ValueError):
            ResilSpec.parse("storm:notanint:site=tbuddy.split")

    @pytest.mark.parametrize("raw", ["@:1", "storm@:1", "@cuda:1"])
    def test_parse_rejects_empty_fragments(self, raw):
        with pytest.raises(ValueError, match="empty"):
            ResilSpec.parse(raw)

    def test_parse_rejects_engine_suffix(self):
        # there is one run loop and no engine to name: the two-engine
        # '/event' and '/batch' suffixes are malformed like any other
        for raw in ("storm/batch:7:site=tbuddy.split,p=0.5",
                    "storm/event:7", "storm@cuda/batch:7"):
            with pytest.raises(ValueError) as exc:
                ResilSpec.parse(raw)
            assert "want scenario[@backend]:seed[:plan]" in str(exc.value)

    def test_parse_rejects_unknown_engine(self):
        with pytest.raises(ValueError) as exc:
            ResilSpec.parse("storm/vector:7")
        assert "want scenario[@backend]:seed[:plan]" in str(exc.value)

    @settings(max_examples=200, deadline=None)
    @given(resil_specs)
    def test_print_parse_round_trip(self, spec):
        text = str(spec)
        assert ResilSpec.parse(text) == spec
        assert str(ResilSpec.parse(text)) == text

    def test_every_scenario_and_backend_round_trips(self):
        plan = FaultPlan.parse("site=tbuddy.split,p=0.5,max=8")
        for scenario in SCENARIOS:
            for backend in backends.names():
                spec = ResilSpec(scenario, 3, plan, backend)
                assert ResilSpec.parse(spec.replay) == spec
                assert ResilSpec.parse(spec.replay).replay == spec.replay

    def test_deck_replays_round_trip_byte_for_byte(self, placed):
        for spec in DECK + [p for specs in placed.values() for p in specs]:
            assert ResilSpec.parse(spec.replay) == spec
            assert ResilSpec.parse(spec.replay).replay == spec.replay

    @pytest.mark.parametrize("raw,why", [
        ("storm: 1:", "seed ' 1'"),
        ("storm:+1:", "seed '+1'"),
        ("storm:1_0:", "seed '1_0'"),
        ("storm:\u0663:", "seed '\u0663'"),
        ("storm:abc", "seed 'abc' is not an integer"),
        ("nosuch:1", "unknown scenario 'nosuch'"),
        ("storm@nosuch:1", "unknown backend 'nosuch'"),
        ("storm:1:site=nowhere", "unknown fault site 'nowhere'"),
    ])
    def test_malformed_fragment_names_the_spec(self, raw, why):
        with pytest.raises(ValueError) as exc:
            ResilSpec.parse(raw)
        msg = str(exc.value)
        assert f"bad resil replay spec {raw!r}" in msg
        assert why in msg
        assert "scenario[@backend]:seed[:plan]" in msg

    def test_min_injected_is_not_a_spec_field(self):
        # it never reached the replay string, so any value but the
        # module constant silently failed to round-trip
        names = [f.name for f in dataclasses.fields(ResilSpec)]
        assert names == ["scenario", "seed", "plan", "backend"]

    def test_deck_covers_workload_scenarios(self, placed):
        # the workload scenarios run under stalls in the deck, and every
        # scenario under single-fault placements
        assert {"multi_tenant", "serve_session"} <= \
            {s.scenario for s in DECK}
        assert all(placed[name] for name in SCENARIOS)


class TestPlacements:
    def test_counts_pin_each_certificate(self, placed):
        assert {name: len(specs) for name, specs in placed.items()} == \
            PLACEMENT_COUNTS
        assert sum(PLACEMENT_COUNTS.values()) == 846

    def test_each_placement_fails_one_occurrence(self, placed):
        for name, specs in placed.items():
            for spec in specs:
                (rule,) = spec.plan.rules
                assert (spec.scenario, spec.seed, spec.backend) == \
                    (name, 1, "ours")
                assert (rule.every, rule.max) == (1, 1)
                assert rule.site in FAIL_SITES
        # occurrences are numbered from 0 without gaps, per site
        afters = [s.plan.rules[0].after for s in placed["churn"]
                  if s.plan.rules[0].site == "tbuddy.alloc"]
        assert afters == list(range(len(afters)))
        assert {s.plan.rules[0].site for s in placed["storm_oom"]} == \
            {"ualloc.new_chunk"}

    def test_a_placement_injects_exactly_one_fault(self, placed):
        res = run_case(placed["churn"][-1], replay_check=True)
        assert res.ok, res.describe()
        assert res.n_injected == 1 and res.replay_ok


class TestDecks:
    def test_deck_and_placements_cover_all_kinds(self, placed):
        # every fault kind the plan model defines is injected somewhere
        kinds = {r.kind for spec in DECK for r in spec.plan.rules}
        kinds |= {r.kind for specs in placed.values()
                  for spec in specs for r in spec.plan.rules}
        assert kinds == {kind for kind, _ in SITES.values()}

    def test_deck_specs_are_unique(self, placed):
        replays = [spec.replay for spec in DECK]
        replays += [p.replay for specs in placed.values() for p in specs]
        assert len(replays) == len(set(replays))


class TestCli:
    @pytest.mark.parametrize("argv", [
        ["replay", "nosuch:1"],
        ["replay", "storm@nosuch:1"],
        ["run", "--case", "storm:+3"],
        ["run", "--case", "nosuch:1:site=tbuddy.split"],
    ])
    def test_bad_spec_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert f"bad resil replay spec {argv[-1]!r}" in capsys.readouterr().err

    def test_case_with_scenario_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--scenario", "storm",
                      "--case", "churn:1:site=ualloc.new_chunk,p=1,max=4"])
        assert exc.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()[-1]
        assert "--case" in err and "--scenario" in err

    def test_tier_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--tier", "quick"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tier" in capsys.readouterr().err

    def test_run_prints_one_certificate_per_scenario(self, capsys):
        assert cli.main(["run", "--scenario", "producer_consumer"]) == 0
        out = capsys.readouterr().out
        assert "producer_consumer: all 6 single-fault placements recover" \
            in out
        # the three producer_consumer deck cases ride along
        assert "all 9 cases recovered" in out

    def test_a_failing_placement_breaks_its_certificate(self, monkeypatch,
                                                         capsys):
        def fail_first(spec, replay_check=True):
            res = ResilResult(spec)
            if spec.plan.spec == "site=tbuddy.alloc,every=1,max=1":
                res.error = "AssertionError: boom"
            return res

        monkeypatch.setattr(resil_runner, "run_case", fail_first)
        assert cli.main(["run", "--scenario", "churn"]) == 1
        out = capsys.readouterr().out
        assert "churn: 7 of 8 single-fault placements recover" in out

    @pytest.mark.parametrize("replay", RATE_PLANS)
    def test_rate_plans_still_replay(self, replay, capsys):
        assert cli.main(["replay", replay]) == 0
        assert "fault trace:" in capsys.readouterr().out


class TestRunCase:
    def test_unknown_scenario_raises(self):
        with pytest.raises(ValueError):
            run_case(ResilSpec("nonexistent", 1), replay_check=False)

    def test_injected_case_recovers_and_replays(self):
        spec = ResilSpec.parse("storm:1:site=tbuddy.split,p=0.5,max=4")
        res = run_case(spec, replay_check=True)
        assert res.ok, res.describe()
        assert res.n_injected >= 1
        assert res.replay_ok is True
        assert res.trace  # the fault trace is recorded
        assert "renege" in res.counts_by_kind
        assert res.describe().startswith("PASS")

    def test_unreached_plan_fails_the_case(self):
        # A plan that never fires verifies nothing: MIN_INJECTED trips.
        spec = ResilSpec("storm", 1,
                         FaultPlan.parse("site=tbuddy.split,after=1000000"))
        res = run_case(spec, replay_check=False)
        assert not res.ok
        assert "faults injected" in res.error
        assert res.describe().startswith("FAIL")

    def test_run_deck_logs_and_collects(self):
        deck = [ResilSpec.parse("storm:1:site=tbuddy.split,p=0.5,max=4"),
                ResilSpec.parse("churn:1:site=ualloc.new_chunk,p=1,max=2")]
        lines = []
        results = run_deck(deck, replay_check=False, log=lines.append)
        assert len(results) == len(lines) == 2
        assert all(r.ok for r in results)
        agg = kinds_injected(results)
        assert agg.get("renege", 0) >= 2  # both cases inject reneges


class TestBench:
    def test_degradation_sweep_smoke(self):
        from repro.resil import bench

        res = bench.run(nthreads=32, iters=1, seed=17)
        levels = [p.level for p in res.points]
        assert levels == ["clean", "light", "heavy"]
        clean = res.point("clean")
        assert clean.faults == 0 and clean.plan == ""
        assert res.point("heavy").faults > 0
        assert res.retained("clean") == 1.0
        assert res.retained("heavy") > 0.0  # degraded, not dead
        assert res.table()  # renders

    def test_bench_case_registered_in_perf_suite(self):
        from repro.perf.suite import CASES

        from repro.resil import bench

        assert "resil" in CASES
        assert CASES["resil"].run is bench.run

"""Resil runner: specs, decks, recovery assertions, replay, bench."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import backends
from repro.resil import ALL_KINDS, FaultPlan
from repro.resil import cli
from repro.resil.plan import SITES, FaultRule
from repro.resil.runner import (
    FULL_DECK,
    QUICK_DECK,
    ResilSpec,
    deck_for,
    kinds_injected,
    run_case,
    run_deck,
)
from repro.verify.runner import SCENARIOS

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

    def test_parse_accepts_and_drops_engine_qualifier(self):
        plan = "site=tbuddy.split,p=0.5"
        spec = ResilSpec.parse(f"storm/batch:7:{plan}")
        assert spec == ResilSpec.parse(f"storm:7:{plan}")
        assert spec.replay == f"storm:7:{plan}"
        assert ResilSpec.parse("storm@cuda/batch:7") == \
            ResilSpec("storm", 7, backend="cuda")
        assert ResilSpec.parse("storm/event:7").replay == "storm:7:"

    def test_parse_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine suffix '/vector'"):
            ResilSpec.parse("storm/vector:7")

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

    def test_deck_replays_round_trip_byte_for_byte(self):
        for spec in FULL_DECK:
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

    def test_deck_covers_workload_scenarios(self):
        # the multi-tenant workload runs under faults in the smoke deck,
        # and the recorded-trace replay in the nightly deck
        assert any(s.scenario == "multi_tenant" for s in QUICK_DECK)
        assert any(s.scenario == "trace_replay" for s in FULL_DECK)


class TestDecks:
    def test_deck_for_tiers(self):
        assert deck_for("quick") == QUICK_DECK
        assert deck_for("full") == FULL_DECK
        with pytest.raises(ValueError):
            deck_for("nightly")

    def test_full_deck_extends_quick(self):
        assert FULL_DECK[:len(QUICK_DECK)] == QUICK_DECK
        assert len(FULL_DECK) > len(QUICK_DECK)

    def test_quick_deck_plans_cover_all_kinds(self):
        # The acceptance bar: the CI smoke deck must be able to inject
        # every distinct fault kind the plan model defines.
        kinds = {k for spec in QUICK_DECK for k in spec.plan.kinds}
        assert kinds == set(ALL_KINDS)

    def test_deck_specs_are_unique(self):
        replays = [spec.replay for spec in FULL_DECK]
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

        assert "resil" in CASES
        assert CASES["resil"].runner("quick") is CASES["resil"].quick

"""Fault-plan model: rule/plan spec round-trips, validation, events."""

import pytest

from repro.resil import (
    SITES,
    STALL_KINDS,
    FaultEvent,
    FaultPlan,
    FaultPlanError,
    FaultRule,
)


class TestFaultRule:
    @pytest.mark.parametrize("rule", [
        FaultRule("tbuddy.alloc"),
        FaultRule("tbuddy.split", p=0.5, max=8),
        FaultRule("ualloc.new_chunk", every=3, after=2),
        FaultRule("spinlock.hold", p=0.05, cycles=12345),
        FaultRule("tbuddy.lock", detail=4, max=2),
        FaultRule("rcu.grace", p=0.25, every=0, max=7, after=1, cycles=9999),
    ])
    def test_spec_roundtrip(self, rule):
        assert FaultRule.parse(rule.spec) == rule

    def test_spec_omits_defaults(self):
        assert FaultRule("tbuddy.alloc").spec == "site=tbuddy.alloc"
        assert FaultRule("tbuddy.alloc", p=0.5).spec == "site=tbuddy.alloc,p=0.5"

    def test_parse_tolerates_whitespace(self):
        rule = FaultRule.parse(" site=tbuddy.split , p=0.5 ,, max=3 ")
        assert rule == FaultRule("tbuddy.split", p=0.5, max=3)

    def test_kind_derives_from_site(self):
        assert FaultRule("tbuddy.alloc").kind == "null-alloc"
        assert FaultRule("tbuddy.split").kind == "renege"
        assert FaultRule("spinlock.hold").kind == "stall"
        assert FaultRule("rcu.grace").kind == "rcu-delay"

    @pytest.mark.parametrize("bad", [
        "site=nonexistent.site",
        "site=tbuddy.alloc,p=0",
        "site=tbuddy.alloc,p=1.5",
        "site=tbuddy.alloc,every=-1",
        "site=tbuddy.alloc,max=-2",
        "site=tbuddy.alloc,after=-1",
        "site=tbuddy.alloc,cycles=0",
        "p=0.5",                    # missing site=
        "site=tbuddy.alloc,bogus=1",
        "site=tbuddy.alloc,noequals",
    ])
    def test_bad_specs_raise(self, bad):
        with pytest.raises(FaultPlanError):
            FaultRule.parse(bad)

    def test_fault_plan_error_is_value_error(self):
        # CLI layers catch ValueError; the subtype must stay compatible.
        assert issubclass(FaultPlanError, ValueError)


class TestFaultPlan:
    def test_multi_rule_roundtrip(self):
        plan = FaultPlan.parse(
            "site=tbuddy.split,p=0.3,max=6;site=tbuddy.lock,p=0.02,cycles=1500"
        )
        assert len(plan) == 2
        assert FaultPlan.parse(plan.spec) == plan

    def test_empty_plan(self):
        plan = FaultPlan.parse("")
        assert plan == FaultPlan()
        assert not plan and len(plan) == 0
        assert plan.spec == ""
        assert str(plan) == "<no faults>"

    def test_kinds_sorted_distinct(self):
        plan = FaultPlan.parse(
            "site=spinlock.hold;site=tbuddy.lock;site=tbuddy.split"
        )
        assert sorted({r.kind for r in plan.rules}) == ["renege", "stall"]

    def test_replay_spec_has_no_colon(self):
        # ResilSpec's "scenario:seed:plan" triple relies on plan specs
        # never containing ":".
        for rule in [FaultRule(site, p=0.5, max=3, cycles=777)
                     for site in SITES]:
            assert ":" not in rule.spec


class TestSitesRegistry:
    def test_every_site_has_a_known_kind(self):
        for site, (kind, desc) in SITES.items():
            assert kind in STALL_KINDS | {"null-alloc", "renege"}
            assert desc

    def test_all_kinds_covers_stalls_and_failures(self):
        kinds = {kind for kind, _ in SITES.values()}
        assert STALL_KINDS < kinds
        assert kinds - STALL_KINDS  # fail kinds exist too


class TestFaultEvent:
    def test_line_format(self):
        ev = FaultEvent(index=3, t=1200, tid=17, site="tbuddy.split",
                        detail=2, kind="renege", arg=0)
        assert ev.line == "#3 t=1200 tid=17 tbuddy.split[2] -> renege(0)"

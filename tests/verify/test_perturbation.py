"""Perturbation: spec round-trips, canonical ordering, application."""

import pytest

from repro.sim.cost_model import DEFAULT_COST_MODEL
from repro.verify.perturbation import Perturbation


class TestSpec:
    def test_round_trip(self):
        p = Perturbation.parse("atomic_latency=4,jitter=256")
        assert p.spec == "atomic_latency=4,jitter=256"
        assert Perturbation.parse(p.spec) == p

    def test_empty_is_baseline(self):
        p = Perturbation.parse("")
        assert not p
        assert len(p) == 0
        assert p.spec == ""
        assert str(p) == "<baseline>"

    def test_canonical_order_is_sorted(self):
        a = Perturbation.parse("jitter=256,atomic_latency=4")
        b = Perturbation.parse("atomic_latency=4,jitter=256")
        assert a == b
        assert a.spec == "atomic_latency=4,jitter=256"

    def test_fractional_values_round_trip(self):
        p = Perturbation.parse("store_latency=0.25")
        assert Perturbation.parse(p.spec) == p

    def test_unknown_knob_rejected(self):
        with pytest.raises(ValueError, match="unknown.*warp_speed"):
            Perturbation.parse("warp_speed=9")

    def test_duplicate_knob_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Perturbation.parse("jitter=1,jitter=2")

    def test_non_positive_value_rejected(self):
        with pytest.raises(ValueError, match="> 0"):
            Perturbation.parse("jitter=0")

    def test_malformed_item_rejected(self):
        with pytest.raises(ValueError, match="knob=value"):
            Perturbation.parse("jitter")

    def test_nan_rejected(self):
        # nan slips through the `value <= 0` guard (every comparison
        # with nan is False) and used to construct a poisoned spec
        with pytest.raises(ValueError, match="finite"):
            Perturbation.parse("jitter=nan")
        with pytest.raises(ValueError, match="finite"):
            Perturbation((("atomic_latency", float("nan")),))

    def test_inf_rejected(self):
        # inf round-trips into a spec string no replay can execute
        with pytest.raises(ValueError, match="finite"):
            Perturbation.parse("atomic_latency=inf")
        with pytest.raises(ValueError, match="finite"):
            Perturbation.parse("store_latency=-inf")

    def test_sub_one_jitter_rejected_at_construction(self):
        # jitter=0.5 used to pass the > 0 guard, then truncate to a
        # 0-cycle jitter at apply time — a "perturbed" spec silently
        # identical to the baseline schedule
        with pytest.raises(ValueError, match=">= 1"):
            Perturbation.parse("jitter=0.5")

    def test_steer_round_trips(self):
        p = Perturbation.parse("atomic_latency=4,steer=7")
        assert p.spec == "atomic_latency=4,steer=7"
        assert Perturbation.parse(p.spec) == p
        assert p.steer == 7

    def test_steer_defaults_to_zero_when_absent(self):
        assert Perturbation.parse("jitter=256").steer == 0
        assert Perturbation().steer == 0

    def test_fractional_steer_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            Perturbation.parse("steer=1.5")

    def test_sub_one_steer_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            Perturbation.parse("steer=0.25")


class TestApply:
    def test_baseline_is_identity(self):
        cost, jitter = Perturbation().apply(DEFAULT_COST_MODEL)
        assert cost is DEFAULT_COST_MODEL
        assert jitter == 0

    def test_multiplier_scales_field(self):
        cost, _ = Perturbation.parse("atomic_latency=4").apply(DEFAULT_COST_MODEL)
        assert cost.atomic_latency == DEFAULT_COST_MODEL.atomic_latency * 4
        # untouched fields pass through
        assert cost.load_latency == DEFAULT_COST_MODEL.load_latency

    def test_jitter_is_absolute_not_multiplier(self):
        cost, jitter = Perturbation.parse("jitter=256").apply(DEFAULT_COST_MODEL)
        assert jitter == 256
        assert cost is DEFAULT_COST_MODEL

    def test_shrunk_cost_floors_at_one_cycle(self):
        # 0.0001 * anything rounds to 0; the floor keeps it at 1 cycle.
        cost, _ = Perturbation.parse("store_latency=0.0001").apply(
            DEFAULT_COST_MODEL
        )
        assert cost.store_latency == 1

    def test_fractional_jitter_rounds_instead_of_truncating(self):
        # int(value) used to floor 256.7 to 256 silently; rounding is
        # the documented contract now
        _, jitter = Perturbation.parse("jitter=256.7").apply(
            DEFAULT_COST_MODEL
        )
        assert jitter == 257

    def test_steer_is_not_a_timing_knob(self):
        cost, jitter = Perturbation.parse("steer=5").apply(
            DEFAULT_COST_MODEL
        )
        assert cost is DEFAULT_COST_MODEL
        assert jitter == 0


class TestShrinkSupport:
    def test_without_removes_one_knob(self):
        p = Perturbation.parse("atomic_latency=4,jitter=512")
        q = p.without("jitter")
        assert q.spec == "atomic_latency=4"
        assert p.spec == "atomic_latency=4,jitter=512"  # immutable

    def test_without_missing_knob_is_noop(self):
        p = Perturbation.parse("jitter=256")
        assert p.without("atomic_latency") == p

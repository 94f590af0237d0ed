"""Admission control: quota ledger exactness, the metered pressure gate."""

from __future__ import annotations

import pytest

from repro.serve.admission import (
    CAUSE_PRESSURE,
    CAUSE_QUOTA,
    AdmissionController,
)


class TestQuota:
    def test_unlimited_admits_everything(self):
        ac = AdmissionController()
        ac.begin_batch()
        assert ac.admit_malloc(0, 1 << 30) is None

    def test_over_quota_rejected_with_cause(self):
        ac = AdmissionController(quota_bytes=100)
        ac.begin_batch()
        assert ac.admit_malloc(0, 60) is None
        assert ac.admit_malloc(0, 60) == CAUSE_QUOTA
        assert ac.ledger(0).rejected == {CAUSE_QUOTA: 1}
        assert ac.rejections == {CAUSE_QUOTA: 1}

    def test_quota_is_per_tenant(self):
        ac = AdmissionController(quota_bytes=100)
        ac.begin_batch()
        assert ac.admit_malloc(0, 80) is None
        assert ac.admit_malloc(1, 80) is None  # separate ledger

    def test_free_releases_quota(self):
        ac = AdmissionController(quota_bytes=100)
        ac.begin_batch()
        assert ac.admit_malloc(0, 80) is None
        assert ac.admit_malloc(0, 80) == CAUSE_QUOTA
        ac.on_freed(0, 80)
        assert ac.admit_malloc(0, 80) is None

    def test_null_refund_releases_reservation(self):
        ac = AdmissionController(quota_bytes=100)
        ac.begin_batch()
        assert ac.admit_malloc(0, 80) is None
        ac.refund_malloc(0, 80)  # the backend returned NULL
        assert ac.admit_malloc(0, 80) is None
        assert ac.ledger(0).outstanding_bytes == 80

    def test_peak_tracks_high_water_mark(self):
        ac = AdmissionController()
        ac.begin_batch()
        ac.admit_malloc(0, 100)
        ac.on_freed(0, 100)
        ac.admit_malloc(0, 40)
        assert ac.ledger(0).peak_bytes == 100
        assert ac.ledger(0).outstanding_bytes == 40

    def test_determinism_same_stream_same_rejections(self):
        def run():
            ac = AdmissionController(quota_bytes=64)
            ac.begin_batch()
            return [ac.admit_malloc(0, s) for s in (32, 32, 32, 16)]

        assert run() == run() == [None, None, CAUSE_QUOTA, CAUSE_QUOTA]

    def test_bad_quota_rejected(self):
        with pytest.raises(ValueError, match="quota_bytes"):
            AdmissionController(quota_bytes=0)

    def test_negative_ledger_is_a_bug(self):
        ac = AdmissionController()
        ac.begin_batch()
        with pytest.raises(AssertionError, match="negative"):
            ac.on_freed(0, 10)


class TestPressureGate:
    def test_budget_sampled_once_per_batch(self):
        calls = []

        def probe():
            calls.append(1)
            return 1000

        ac = AdmissionController(pressure_probe=probe)
        ac.begin_batch()
        ac.admit_malloc(0, 10)
        ac.admit_malloc(1, 10)
        assert len(calls) == 1

    def test_gated_request_draws_down_batch_budget(self):
        ac = AdmissionController(pressure_probe=lambda: 100)
        ac.begin_batch()
        assert ac.admit_malloc(0, 60) is None
        assert ac.admit_malloc(1, 60) == CAUSE_PRESSURE
        ac.begin_batch()  # fresh budget next batch
        assert ac.admit_malloc(1, 60) is None

    def test_min_size_exempts_bin_served_requests(self):
        # The gauge meters page-level supply only: requests below the
        # routing threshold must pass even with a zero budget.
        ac = AdmissionController(pressure_probe=lambda: 0,
                                 pressure_min_size=2049)
        ac.begin_batch()
        assert ac.admit_malloc(0, 2048) is None
        assert ac.admit_malloc(0, 4096) == CAUSE_PRESSURE

    def test_exempt_requests_do_not_draw_budget(self):
        ac = AdmissionController(pressure_probe=lambda: 100,
                                 pressure_min_size=50)
        ac.begin_batch()
        assert ac.admit_malloc(0, 40) is None   # exempt
        assert ac.admit_malloc(0, 100) is None  # full budget still there

    def test_no_probe_means_no_gate(self):
        ac = AdmissionController()
        ac.begin_batch()
        assert ac.admit_malloc(0, 1 << 40) is None

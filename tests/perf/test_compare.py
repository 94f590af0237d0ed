"""The regression gate: exact equality on virtual metrics, row statuses."""

import math

import pytest

from repro.perf import compare
from repro.perf.artifact import SCHEMA


def _doc(metrics, tier="quick", case="fake"):
    return {
        "schema": SCHEMA,
        "label": "T",
        "tier": tier,
        "cost_model": {},
        "cases": {case: {"seed": 1, "metrics": dict(metrics)}},
    }


def _one(deltas, metric):
    (d,) = [d for d in deltas if d.metric == metric]
    return d


class TestDirections:
    """A move in either direction is a change, and every change fails."""

    def test_throughput_drop_is_regression(self):
        base = _doc({"virtual:ops_per_s": 100.0})
        cur = _doc({"virtual:ops_per_s": 91.0})
        deltas = compare.compare_docs(cur, base)
        d = _one(deltas, "virtual:ops_per_s")
        assert d.status == "changed"
        assert d.change == pytest.approx(-0.09)
        assert compare.has_regressions(deltas)

    def test_throughput_gain_also_fails(self):
        base = _doc({"virtual:ops_per_s": 100.0})
        cur = _doc({"virtual:ops_per_s": 150.0})
        deltas = compare.compare_docs(cur, base)
        d = _one(deltas, "virtual:ops_per_s")
        assert d.status == "changed"
        assert d.change == pytest.approx(0.5)
        assert compare.has_regressions(deltas)

    def test_one_ulp_change_fails(self):
        base = _doc({"virtual:mean_speedup": 3.25})
        cur = _doc({"virtual:mean_speedup": math.nextafter(3.25, 0.0)})
        deltas = compare.compare_docs(cur, base)
        assert _one(deltas, "virtual:mean_speedup").status == "changed"
        assert compare.has_regressions(deltas)
        # the table prints changed values exactly, so the ulp is visible
        assert repr(math.nextafter(3.25, 0.0)) in compare.render_deltas(deltas)

    def test_zero_baseline_appearing_failure_is_regression(self):
        base = _doc({"virtual:failure_rate_mean": 0.0})
        cur = _doc({"virtual:failure_rate_mean": 0.25})
        deltas = compare.compare_docs(cur, base)
        d = _one(deltas, "virtual:failure_rate_mean")
        assert d.status == "changed"
        assert d.change == math.inf
        assert compare.has_regressions(deltas)


class TestStructure:
    def test_tier_mismatch_raises(self):
        with pytest.raises(compare.CompareError, match="tier"):
            compare.compare_docs(_doc({}, tier="quick"), _doc({}, tier="full"))

    def test_gone_metric_fails_new_metric_does_not(self):
        base = _doc({"virtual:old": 1.0, "virtual:kept": 2.0})
        cur = _doc({"virtual:new": 1.0, "virtual:kept": 2.0})
        deltas = compare.compare_docs(cur, base)
        assert _one(deltas, "virtual:new").status == "new"
        assert _one(deltas, "virtual:old").status == "gone"
        assert compare.has_regressions(deltas)
        only_new = compare.compare_docs(cur, _doc({"virtual:kept": 2.0}))
        assert not compare.has_regressions(only_new)

    def test_new_case_appears_as_new_metrics(self):
        base = _doc({"virtual:x": 1.0}, case="a")
        cur = _doc({"virtual:x": 1.0}, case="b")
        statuses = {(d.case, d.status)
                    for d in compare.compare_docs(cur, base)}
        assert statuses == {("a", "gone"), ("b", "new")}

    def test_wall_metrics_are_ignored(self):
        # artifacts up to BENCH_PR10.json carry wall:seconds; it is
        # neither compared nor reported as gone when the current run
        # lacks it
        base = _doc({"virtual:a": 3.5, "wall:seconds": 0.2})
        cur = _doc({"virtual:a": 3.5})
        deltas = compare.compare_docs(cur, base)
        assert [(d.metric, d.status) for d in deltas] == [("virtual:a", "ok")]
        slower = _doc({"virtual:a": 3.5, "wall:seconds": 20.0})
        assert not compare.has_regressions(compare.compare_docs(slower, base))

    def test_render_and_summary(self):
        base = _doc({"virtual:ops_per_s": 100.0, "virtual:flat": 1.0})
        cur = _doc({"virtual:ops_per_s": 50.0, "virtual:flat": 1.0})
        deltas = compare.compare_docs(cur, base)
        table = compare.render_deltas(deltas)
        assert "virtual:ops_per_s" in table and "changed" in table
        assert "-50.0%" in table
        brief = compare.render_deltas(deltas, only_interesting=True)
        assert "virtual:flat" not in brief
        assert compare.summarize(deltas) == "1 changed, 1 ok"

    def test_identical_docs_all_ok(self):
        doc = _doc({"virtual:a": 3.5, "virtual:b": 0.0})
        deltas = compare.compare_docs(doc, doc)
        assert all(d.status == "ok" and d.change == 0.0 for d in deltas)
        assert not compare.has_regressions(deltas)


class TestInfinityRows:
    """Metrics moving off zero produce ±inf changes; the verdict, the
    renderer and the summary line must all digest them."""

    def _inf_deltas(self):
        base = _doc({"virtual:failure_rate_mean": 0.0})
        cur = _doc({"virtual:failure_rate_mean": 0.1})
        return compare.compare_docs(cur, base)

    def _neg_inf_deltas(self):
        base = _doc({"virtual:ops_per_s": 0.0})
        cur = _doc({"virtual:ops_per_s": -50.0})
        return compare.compare_docs(cur, base)

    def test_inf_worsening_gates_as_regression(self):
        deltas = self._inf_deltas()
        d = _one(deltas, "virtual:failure_rate_mean")
        assert d.change == math.inf
        assert d.status == "changed"
        assert compare.has_regressions(deltas)

    def test_neg_inf_change_also_fails(self):
        deltas = self._neg_inf_deltas()
        d = _one(deltas, "virtual:ops_per_s")
        assert d.change == -math.inf
        assert d.status == "changed"
        assert compare.has_regressions(deltas)

    def test_render_deltas_survives_inf_rows(self):
        for deltas in (self._inf_deltas(), self._neg_inf_deltas()):
            table = compare.render_deltas(deltas)
            assert "inf%" in table          # the delta column
            assert "infG" not in table      # si() must not scale inf
            table = compare.render_deltas(deltas, only_interesting=True)
            assert "inf%" in table

    def test_fmt_value_renders_infinities_as_themselves(self):
        assert compare._fmt_value(math.inf) == "inf"
        assert compare._fmt_value(-math.inf) == "-inf"
        assert compare._fmt_value(math.nan) == "-"
        assert compare._fmt_value(1500.0) == "1.50K"

    def test_summarize_counts_inf_rows(self):
        assert compare.summarize(self._inf_deltas()) == "1 changed"
        assert compare.summarize(self._neg_inf_deltas()) == "1 changed"

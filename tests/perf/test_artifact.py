"""Artifact schema: round-trip, determinism, validation, trajectory order."""

import json

import pytest

from repro.perf import artifact
from repro.perf.compare import compare_docs, has_regressions
from repro.perf.suite import CaseRun, SuiteResult


def _tiny_suite() -> SuiteResult:
    return SuiteResult(tier="quick", cases=[
        CaseRun(case="fake", tier="quick", seed=42, repeats=2,
                wall_seconds=[0.5, 0.4],
                metrics={"virtual:ops_per_s": 123.0, "wall:seconds": 0.45},
                params={"n": 7}),
    ])


class TestRoundTrip:
    def test_write_load_compare_zero_delta(self, tmp_path):
        doc = artifact.suite_to_doc(_tiny_suite(), "PR3")
        path = artifact.write_artifact(tmp_path / "BENCH_PR3.json", doc)
        loaded = artifact.load_artifact(path)
        deltas = compare_docs(loaded, doc)
        assert deltas, "round trip produced no comparable metrics"
        assert all(d.worsening == 0.0 and d.status == "ok" for d in deltas)
        assert not has_regressions(deltas)

    def test_serialization_is_deterministic(self, tmp_path):
        doc = artifact.suite_to_doc(_tiny_suite(), "PR3")
        a = artifact.dumps(doc)
        b = artifact.dumps(json.loads(a))
        assert a == b
        # canonical form: sorted keys, trailing newline, no timestamps
        assert a.endswith("\n")
        keys = list(json.loads(a))
        assert keys == sorted(keys)

    def test_doc_records_seed_and_config(self):
        doc = artifact.suite_to_doc(_tiny_suite(), "PR3")
        assert doc["schema"] == artifact.SCHEMA
        assert doc["cases"]["fake"]["seed"] == 42
        assert doc["cases"]["fake"]["params"] == {"n": 7}
        assert "clock_hz" in doc["cost_model"]

    def test_historical_engine_field_still_loads(self, tmp_path):
        # artifacts up to BENCH_PR10.json name the run loop per case;
        # new ones do not, and old ones must still load and gate
        doc = artifact.suite_to_doc(_tiny_suite(), "PR3")
        assert "engine" not in doc["cases"]["fake"]
        doc["cases"]["fake"]["engine"] = "event"
        path = artifact.write_artifact(tmp_path / "BENCH_PR3.json", doc)
        loaded = artifact.load_artifact(path)
        assert loaded["cases"]["fake"]["engine"] == "event"
        assert not has_regressions(compare_docs(doc, loaded))

    def test_twins_one_file_per_case(self, tmp_path):
        doc = artifact.suite_to_doc(_tiny_suite(), "PR3")
        twins = artifact.write_twins(doc, tmp_path / "results")
        assert [t.name for t in twins] == ["fake.json"]
        twin = json.loads(twins[0].read_text())
        assert twin["schema"] == artifact.SCHEMA
        assert twin["case"] == "fake"
        assert twin["metrics"] == doc["cases"]["fake"]["metrics"]


class TestValidation:
    def _good(self):
        return artifact.suite_to_doc(_tiny_suite(), "PR3")

    def test_rejects_wrong_schema(self):
        doc = self._good()
        doc["schema"] = "repro.perf/999"
        with pytest.raises(artifact.ArtifactError, match="schema"):
            artifact.validate(doc)

    def test_rejects_missing_keys(self):
        doc = self._good()
        del doc["cases"]
        with pytest.raises(artifact.ArtifactError, match="cases"):
            artifact.validate(doc)

    def test_rejects_non_numeric_metric(self):
        doc = self._good()
        doc["cases"]["fake"]["metrics"]["virtual:ops_per_s"] = "fast"
        with pytest.raises(artifact.ArtifactError, match="not a number"):
            artifact.validate(doc)

    def test_rejects_bool_metric(self):
        doc = self._good()
        doc["cases"]["fake"]["metrics"]["virtual:ok"] = True
        with pytest.raises(artifact.ArtifactError, match="not a number"):
            artifact.validate(doc)

    def test_rejects_bad_tier_and_empty_cases(self):
        doc = self._good()
        doc["tier"] = "warp-speed"
        with pytest.raises(artifact.ArtifactError, match="tier"):
            artifact.validate(doc)
        doc = self._good()
        doc["cases"] = {}
        with pytest.raises(artifact.ArtifactError, match="no cases"):
            artifact.validate(doc)

    def test_load_rejects_garbage_file(self, tmp_path):
        p = tmp_path / "BENCH_PRX.json"
        p.write_text("{not json")
        with pytest.raises(artifact.ArtifactError, match="JSON"):
            artifact.load_artifact(p)


class TestTrajectory:
    def test_pr_numeric_ordering(self, tmp_path):
        for name in ("BENCH_PR10.json", "BENCH_PR3.json", "BENCH_PR4.json",
                     "BENCH_adhoc.json"):
            (tmp_path / name).write_text("{}")
        found = [p.name for p in artifact.find_artifacts(tmp_path)]
        assert found == ["BENCH_PR3.json", "BENCH_PR4.json",
                         "BENCH_PR10.json", "BENCH_adhoc.json"]

    def test_label_of(self):
        assert artifact.label_of("BENCH_PR3.json") == "PR3"
        assert artifact.label_of("/x/y/BENCH_CI.json") == "CI"

    def test_next_label(self, tmp_path):
        assert artifact.next_label(tmp_path) == "PR3"
        (tmp_path / "BENCH_PR3.json").write_text("{}")
        assert artifact.next_label(tmp_path) == "PR4"
        (tmp_path / "BENCH_PR11.json").write_text("{}")
        assert artifact.next_label(tmp_path) == "PR12"

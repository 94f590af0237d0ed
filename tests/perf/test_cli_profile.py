"""End-to-end CLI flows (run -> compare gate) and the profiler."""

import json

import pytest

from repro.bench import fig6
from repro.perf import artifact
from repro.perf.cli import main as perf_main
from repro.perf.profile import profile_case, trace_report
from repro.perf.suite import CASES
from repro.sim.trace import Tracer, tracing

#: the cheapest registered case — keeps tier-1 fast
FAST = "ablation_collective"


class TestCliRunCompare:
    def test_run_writes_valid_artifact(self, tmp_path, capsys):
        rc = perf_main(["run", "--quick", "--case", FAST,
                        "--root", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "artifact:" in out and FAST in out
        # default label on an empty trajectory is PR3
        doc = artifact.load_artifact(tmp_path / "BENCH_PR3.json")
        assert doc["label"] == "PR3" and doc["tier"] == "quick"
        (case,) = doc["cases"].values()
        assert sorted(case) == ["metrics", "params", "seed"]
        assert all(k.startswith("virtual:") for k in case["metrics"])
        # the artifact is the run's only output
        assert [p.name for p in tmp_path.iterdir()] == ["BENCH_PR3.json"]

    def test_compare_gate_passes_then_fails_on_regression(self, tmp_path, capsys):
        rc = perf_main(["run", "--quick", "--case", FAST,
                        "--root", str(tmp_path)])
        assert rc == 0
        # self-compare of a one-artifact trajectory: zero deltas, pass
        assert perf_main(["compare", "--root", str(tmp_path)]) == 0
        assert "PERF GATE: ok" in capsys.readouterr().out

        # synthetically regress every virtual throughput/speedup metric
        base_path = tmp_path / "BENCH_PR3.json"
        doc = artifact.load_artifact(base_path)
        bad = json.loads(json.dumps(doc))
        bad["label"] = "PR4"
        for case in bad["cases"].values():
            for k in case["metrics"]:
                if k.startswith("virtual:"):
                    case["metrics"][k] *= 0.5
        bad_path = tmp_path / "BENCH_PR4.json"
        artifact.write_artifact(bad_path, bad)
        rc = perf_main(["compare", "--root", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "PERF GATE: FAIL" in captured.err
        assert "changed" in captured.out

    def test_compare_without_artifacts_errors_cleanly(self, tmp_path, capsys):
        assert perf_main(["compare", "--root", str(tmp_path)]) == 2
        assert "no BENCH_" in capsys.readouterr().err

    def test_profile_unknown_case_errors_cleanly(self, capsys):
        assert perf_main(["profile", "--case", "nope"]) == 2
        assert "unknown case" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--case", "nope"], "unknown case 'nope'"),
        (["--case", "shootout@nope"], "case 'shootout@nope': "),
        (["--backends", ","], "case 'shootout@' names no backends"),
        (["--backends", "ours,nope"], "case 'shootout@ours+nope': "),
    ])
    def test_run_bad_case_exits_2_with_resolver_message(
            self, tmp_path, capsys, argv, message):
        rc = perf_main(["run", "--root", str(tmp_path)] + argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("perf run: ") and message in err
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())  # nothing ran, nothing written

    @pytest.mark.parametrize("top", ["0", "-1", "x"])
    def test_profile_top_must_be_positive(self, capsys, top):
        with pytest.raises(SystemExit) as exc:
            perf_main(["profile", "--top", top])
        assert exc.value.code == 2
        assert "argument --top" in capsys.readouterr().err


class TestProfiler:
    def test_hotspots_for_fast_case(self):
        report = profile_case(CASES[FAST], tier="quick", top=10)
        assert report.case == FAST
        assert 1 <= len(report.hotspots) <= 10
        # own-time descending, and the table renders
        tots = [h.tottime for h in report.hotspots]
        assert tots == sorted(tots, reverse=True)
        table = report.table()
        assert "tottime" in table and report.hotspots[0].where in table

    def test_trace_report_traces_the_profiled_run(self):
        """The traced re-run is the profiled tier's own run: fig6 quick
        traces every configuration its runner measures, not a subset."""
        case = CASES["fig6"]
        _, params = case.reduce(case.result("quick"), case.quick)
        with tracing(Tracer()) as expected:
            fig6.run(ratios=params["ratios"],
                     thread_targets=params["thread_targets"], seed=case.seed)
        # a classical and a delegated run per measured point
        assert len(expected.runs) == 2 * params["points"]
        summary = trace_report(case, tier="quick")
        assert f"runs: {len(expected.runs)} (" in summary
        assert summary == expected.summary()

    def test_trace_report_traces_any_case(self):
        summary = trace_report(CASES[FAST])
        assert "trace summary" in summary and "runs: 4 (" in summary

    @pytest.mark.parametrize("name", ["fig5"])
    def test_profile_cli_lists_hotspots(self, name, capsys):
        assert perf_main(["profile", "--case", name, "--top", "5",
                          "--no-trace"]) == 0
        out = capsys.readouterr().out
        assert "host hotspots" in out and "tottime" in out

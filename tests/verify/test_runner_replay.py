"""Runner, replay specs, sweep and the ``verify`` CLI surface."""

import pytest

import repro.__main__ as repro_main
from repro.verify import CaseSpec, Perturbation, run_case, sweep
from repro.verify import cli
from repro.verify.perturbation import deck
from repro.verify.runner import SCENARIOS, CaseResult


class TestCaseSpec:
    def test_replay_round_trip(self):
        spec = CaseSpec("storm", 3, Perturbation.parse("atomic_latency=4,jitter=512"))
        assert spec.replay == "storm:3:atomic_latency=4,jitter=512"
        assert CaseSpec.parse(spec.replay) == spec

    def test_parse_without_perturbation(self):
        spec = CaseSpec.parse("churn:2")
        assert spec == CaseSpec("churn", 2)
        # a trailing colon (baseline spec, as printed) also parses
        assert CaseSpec.parse("churn:2:") == spec

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="replay spec"):
            CaseSpec.parse("storm")
        with pytest.raises(ValueError):
            CaseSpec.parse("storm:notanint")

    def test_parse_round_trips_backend_qualifier(self):
        spec = CaseSpec.parse("storm@cuda:3")
        assert (spec.scenario, spec.backend, spec.seed) == ("storm", "cuda", 3)
        assert CaseSpec.parse(spec.replay) == spec

    @pytest.mark.parametrize("raw", ["@:3", "scen@:3", "@cuda:3", "@:0:"])
    def test_parse_rejects_empty_fragments(self, raw):
        # `scen@:3` used to build a spec with backend="" that only blew
        # up later as an opaque registry KeyError; reject it at parse.
        with pytest.raises(ValueError, match="empty"):
            CaseSpec.parse(raw)

    def test_str_is_replay(self):
        assert str(CaseSpec("churn", 0)) == "churn:0:"

    def test_parse_accepts_and_drops_engine_qualifier(self):
        # replay strings recorded under the retired batch engine still
        # parse; the one run loop replays their schedule exactly
        spec = CaseSpec.parse("storm/batch:3")
        assert spec == CaseSpec("storm", 3)
        assert spec.replay == "storm:3:"
        # the suffix composes with a backend qualifier
        both = CaseSpec.parse("storm@cuda/batch:3")
        assert both == CaseSpec("storm", 3, backend="cuda")
        assert both.replay == "storm@cuda:3:"

    def test_event_engine_is_elided_from_replay(self):
        # historic replay strings stay valid and stay canonical: the
        # engine suffix never appears in the printed spec
        spec = CaseSpec.parse("storm/event:3")
        assert spec == CaseSpec("storm", 3)
        assert spec.replay == "storm:3:"

    def test_parse_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine suffix '/vector'"):
            CaseSpec.parse("storm/vector:3")


class TestRunCase:
    def test_batch_replay_reproduces_the_plain_schedule(self, capsys):
        from repro.verify.explore import DigestTrace

        runs = []
        for raw in ("storm/batch:3:jitter=512", "storm:3:jitter=512"):
            trace = DigestTrace()
            res = run_case(CaseSpec.parse(raw), probe=trace, probe_every=64)
            runs.append((res.kind, res.describe(), tuple(trace.digests)))
            assert cli.main(["--replay", raw]) == (0 if res.ok else 1)
        assert runs[0] == runs[1]
        assert runs[0][2], "the probe never fired"
        out = capsys.readouterr().out
        assert out.count(f"{runs[0][1]}\n") == 2
        assert "/batch" not in out

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            run_case(CaseSpec("warp_storm", 0))

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_every_scenario_passes_clean_at_seed0(self, scenario):
        """The teeth prerequisite: zero findings / failures on the
        unmutated allocator."""
        res = run_case(CaseSpec(scenario, 0))
        assert res.ok, res.describe()
        assert res.findings == []

    def test_deterministic_outcome(self):
        spec = CaseSpec("producer_consumer", 1,
                        Perturbation.parse("jitter=256"))
        a, b = run_case(spec), run_case(spec)
        assert a.ok == b.ok
        assert a.describe() == b.describe()

    def test_allocator_hook_runs_after_setup(self):
        seen = {}

        def hook(harness):
            seen["alloc"] = harness.alloc
            seen["checker"] = harness.checker

        res = run_case(CaseSpec("churn", 0), allocator_hook=hook)
        assert res.ok
        assert seen["alloc"] is not None and seen["checker"] is not None

    def test_hook_failure_becomes_case_failure(self):
        def hook(harness):
            raise AssertionError("sabotage marker")

        res = run_case(CaseSpec("churn", 0), allocator_hook=hook)
        assert not res.ok
        assert "sabotage marker" in res.error
        assert "FAIL churn:0:" in res.describe()

    def test_check_races_false_skips_checker(self):
        seen = {}
        res = run_case(CaseSpec("churn", 0), check_races=False,
                       allocator_hook=lambda h: seen.update(c=h.checker))
        assert res.ok and seen["c"] is None


class TestSweep:
    def test_grid_shape_and_all_pass(self):
        results = sweep([0, 1], deck=deck(["", "jitter=256"]),
                        scenarios=["churn"])
        assert len(results) == 4
        assert all(r.ok for r in results)

    def test_log_callback_sees_every_case(self):
        lines = []
        sweep([0], deck=deck([""]), scenarios=["churn"],
              log=lines.append)
        assert lines == ["PASS churn:0:"]

    def test_fail_fast_stops_at_first_failure(self, monkeypatch):
        calls = []

        def fake_run(spec, **kw):
            calls.append(spec)
            return CaseResult(spec, error="boom")

        import repro.verify.runner as runner_mod
        monkeypatch.setattr(runner_mod, "run_case", fake_run)
        results = runner_mod.sweep([0, 1], deck=deck(["", "jitter=256"]),
                                   scenarios=["churn"], fail_fast=True)
        assert len(results) == len(calls) == 1


class TestCli:
    def test_replay_passing_case_exits_zero(self, capsys):
        assert cli.main(["--replay", "churn:0"]) == 0
        out = capsys.readouterr().out
        assert "PASS churn:0:" in out

    def test_replay_bad_spec_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--replay", "nope"])
        assert exc.value.code == 2

    def test_small_sweep_exits_zero(self, capsys):
        rc = cli.main(["--scenario", "churn", "--seeds", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "all 8 cases passed" in out  # 1 seed x default deck (8)

    def test_smoke_flag_reduces_grid(self, capsys):
        rc = cli.main(["--smoke", "--scenario", "churn"])
        assert rc == 0
        out = capsys.readouterr().out
        # 2 seeds x smoke deck (4) x 1 scenario
        assert "= 8 cases" in out

    def test_failing_sweep_prints_replay_line(self, monkeypatch, capsys):
        bad = CaseResult(CaseSpec("churn", 0,
                                  Perturbation.parse("jitter=256")),
                         error="AssertionError: leak")

        monkeypatch.setattr(cli, "sweep", lambda *a, **kw: [bad])
        rc = cli.main(["--seeds", "1"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "1 failing case(s)" in out
        assert "replay: python -m repro verify --replay 'churn:0:jitter=256'" in out

    def test_failing_sweep_with_shrink_reports_minimal(self, monkeypatch, capsys):
        spec = CaseSpec("churn", 0, Perturbation.parse("jitter=256"))
        bad = CaseResult(spec, error="AssertionError: leak")
        monkeypatch.setattr(cli, "sweep", lambda *a, **kw: [bad])
        monkeypatch.setattr(cli, "shrink_case",
                            lambda s, log=None: s)
        rc = cli.main(["--seeds", "1", "--shrink"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "minimal reproducer" in out

    def test_main_module_dispatches_verify(self, capsys):
        assert repro_main.main(["verify", "--replay", "churn:0"]) == 0
        assert "PASS churn:0:" in capsys.readouterr().out

    def test_main_module_experiment_surface_unchanged(self):
        # the verify dispatch must not eat the experiment parser's errors
        with pytest.raises(SystemExit):
            repro_main.main(["not-a-target"])

"""Runner, replay specs and the ``verify`` CLI surface."""

import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.__main__ as repro_main
from repro import backends
from repro.resil import cli as resil_cli
from repro.resil.runner import ResilSpec
from repro.verify import CaseSpec, ExploreReport, Perturbation, run_case
from repro.verify import cli
from repro.verify.perturbation import COST_KNOBS, JITTER_KNOB, STEER_KNOB
from repro.verify.runner import SCENARIOS, CaseResult

ROOT = Path(__file__).resolve().parents[2]

#: knob -> strategy for values the knob accepts (cost knobs scale, so
#: any positive finite float; jitter is >= 1; steer salts are integers)
_KNOB_VALUES = {
    **{k: st.floats(min_value=1e-6, max_value=1e6) for k in COST_KNOBS},
    JITTER_KNOB: st.floats(min_value=1, max_value=1e9),
    STEER_KNOB: st.integers(min_value=1, max_value=2 ** 53).map(float),
}

perturbations = st.lists(
    st.sampled_from(sorted(_KNOB_VALUES)), unique=True, max_size=4,
).flatmap(lambda names: st.tuples(
    *(st.tuples(st.just(n), _KNOB_VALUES[n]) for n in names)
)).map(Perturbation)

case_specs = st.builds(
    CaseSpec, st.sampled_from(sorted(SCENARIOS)), st.integers(),
    perturbations, st.sampled_from(backends.names()),
)

#: (malformed replay string, fragment of the expected error)
MALFORMED = [
    ("storm", "missing ':seed'"),
    ("storm: 3:", "seed ' 3'"),
    ("storm:+3:", "seed '+3'"),
    ("storm:1_0:", "seed '1_0'"),
    ("storm:\u0663:", "seed '\u0663'"),
    ("storm:03:", "seed '03'"),
    ("storm:abc", "seed 'abc' is not an integer"),
    ("storm::", "seed '' is not an integer"),
    ("nosuch:1", "unknown scenario 'nosuch'"),
    ("storm@nosuch:1", "unknown backend 'nosuch'"),
    ("@cuda:1", "empty scenario"),
    ("storm@:1", "empty backend"),
    ("storm/vector:1", "unknown scenario 'storm/vector'"),
]


def _documented_replays():
    """Every full ``scenario:seed:payload`` string quoted in the docs and
    the verify/resil CLI docstrings, paired with its spec class."""
    texts = [(ROOT / name).read_text(encoding="utf-8")
             for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
    texts += [cli.__doc__, resil_cli.__doc__]
    found = re.findall(r"[`']([a-z_]+(?:@[a-z-]+)?:\d+:[^'`\s]*)[`']",
                       "\n".join(texts))
    return sorted({(raw, ResilSpec if "site=" in raw else CaseSpec)
                   for raw in found})


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

    @staticmethod
    def _assert_rejected(raw):
        # there is one run loop and no engine to name: a '/engine'
        # suffix is part of an unknown scenario or backend fragment
        with pytest.raises(ValueError) as exc:
            CaseSpec.parse(raw)
        msg = str(exc.value)
        assert f"bad replay spec {raw!r}" in msg
        assert "want scenario[@backend]:seed[:perturbation]" in msg

    def test_parse_rejects_batch_suffix(self):
        self._assert_rejected("storm/batch:3")
        # also after a backend qualifier
        self._assert_rejected("storm@cuda/batch:3")

    def test_parse_rejects_event_suffix(self):
        self._assert_rejected("storm/event:3")

    def test_parse_rejects_unknown_engine(self):
        self._assert_rejected("storm/vector:3")


class TestReplayGrammar:
    @settings(max_examples=200, deadline=None)
    @given(case_specs)
    def test_print_parse_round_trip(self, spec):
        text = str(spec)
        assert CaseSpec.parse(text) == spec
        assert str(CaseSpec.parse(text)) == text

    def test_every_scenario_and_backend_round_trips(self):
        pert = Perturbation.parse("atomic_latency=4,jitter=512")
        for scenario in SCENARIOS:
            for backend in backends.names():
                spec = CaseSpec(scenario, 7, pert, backend)
                assert CaseSpec.parse(spec.replay) == spec
                assert CaseSpec.parse(spec.replay).replay == spec.replay

    def test_lossy_payload_values_round_trip(self):
        # %g keeps six digits: these used to print a different case
        for value in (1234567.0, 1 / 3, 0.1 + 0.2):
            spec = CaseSpec("storm", 1, Perturbation((("atomic_latency", value),)))
            assert CaseSpec.parse(spec.replay) == spec

    @pytest.mark.parametrize("raw,why", MALFORMED)
    def test_malformed_fragment_names_the_spec(self, raw, why):
        with pytest.raises(ValueError) as exc:
            CaseSpec.parse(raw)
        msg = str(exc.value)
        assert f"bad replay spec {raw!r}" in msg
        assert why in msg
        assert "scenario[@backend]:seed[:perturbation]" in msg

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.integers().map(str),
                     st.text(max_size=6).filter(lambda t: ":" not in t)))
    def test_seed_fragment_must_print_back_unchanged(self, fragment):
        raw = f"storm:{fragment}:"
        try:
            canonical = str(int(fragment)) == fragment
        except ValueError:
            canonical = False
        if canonical:
            assert CaseSpec.parse(raw).replay == raw
        else:
            with pytest.raises(ValueError, match=re.escape(repr(raw))):
                CaseSpec.parse(raw)

    def test_bad_payload_names_the_spec(self):
        with pytest.raises(ValueError, match="bad replay spec 'storm:1:warp=9'"):
            CaseSpec.parse("storm:1:warp=9")

    def test_documented_replay_strings_round_trip(self):
        documented = _documented_replays()
        assert {cls for _, cls in documented} == {CaseSpec, ResilSpec}
        for raw, cls in documented:
            assert cls.parse(raw).replay == raw

    def test_unknown_backend_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown backend 'nosuch'"):
            CaseSpec("storm", 0, backend="nosuch")


class TestRunCase:
    def test_cli_rejects_an_engine_suffix(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--replay", "storm/batch:3:jitter=512"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "bad replay spec 'storm/batch:3:jitter=512'" in err
        assert "want scenario[@backend]:seed[:perturbation]" in err

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


class TestCli:
    def test_replay_passing_case_exits_zero(self, capsys):
        assert cli.main(["--replay", "churn:0"]) == 0
        out = capsys.readouterr().out
        assert "PASS churn:0:" in out

    def test_replay_bad_spec_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--replay", "nope"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("raw", ["nosuch:1", "storm@nosuch:1", "storm:+3"])
    def test_replay_unrunnable_spec_is_usage_error(self, raw, capsys):
        # these used to parse, then end in a traceback (or replay a
        # different seed string than the one given)
        with pytest.raises(SystemExit) as exc:
            cli.main(["--replay", raw])
        assert exc.value.code == 2
        assert f"bad replay spec {raw!r}" in capsys.readouterr().err

    def test_failing_replay_with_shrink_reports_minimal(self, monkeypatch,
                                                        capsys):
        spec = CaseSpec("churn", 0, Perturbation.parse("jitter=256"))
        monkeypatch.setattr(cli, "run_case",
                            lambda s: CaseResult(s, error="AssertionError"))
        monkeypatch.setattr(cli, "shrink_case",
                            lambda s, log=None: CaseSpec("churn", 0))
        rc = cli.main(["--replay", spec.replay, "--shrink"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "FAIL churn:0:jitter=256" in out
        assert "minimal reproducer: python -m repro verify --replay " \
               "'churn:0:'" in out

    def test_small_exploration_exits_zero(self, capsys):
        rc = cli.main(["--scenario", "churn", "--budget", "4", "--quiet"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "explore: 4 case(s) over 1 scenario(s)" in out
        assert "failures: 0 protocol, 0 budget-exhausted" in out

    @staticmethod
    def _failing_explore(monkeypatch):
        spec = CaseSpec("churn", 0, Perturbation.parse("jitter=256"))
        bad = CaseResult(spec, error="AssertionError: leak")
        report = ExploreReport(cases=1, distinct_schedules=1,
                               distinct_prefixes=1, peak_contention=0,
                               failures=[bad], scenarios=["churn"])
        monkeypatch.setattr(cli, "explore", lambda **kw: report)

    def test_failing_exploration_prints_replay_line(self, monkeypatch,
                                                    capsys):
        self._failing_explore(monkeypatch)
        rc = cli.main(["--budget", "1"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "failures: 1 protocol, 0 budget-exhausted" in out
        assert "replay: python -m repro verify --replay 'churn:0:jitter=256'" in out

    def test_failing_exploration_with_shrink_reports_minimal(self, monkeypatch,
                                                            capsys):
        self._failing_explore(monkeypatch)
        monkeypatch.setattr(cli, "shrink_case",
                            lambda s, log=None: CaseSpec("churn", 0))
        rc = cli.main(["--budget", "1", "--shrink"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "shrinking churn:0:jitter=256 ..." in out
        assert "minimal reproducer: python -m repro verify --replay " \
               "'churn:0:'" in out

    def test_main_module_dispatches_verify(self, capsys):
        assert repro_main.main(["verify", "--replay", "churn:0"]) == 0
        assert "PASS churn:0:" in capsys.readouterr().out

    def test_main_module_experiment_surface_unchanged(self):
        # the verify dispatch must not eat the experiment parser's errors
        with pytest.raises(SystemExit):
            repro_main.main(["not-a-target"])

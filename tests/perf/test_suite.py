"""Registry sanity and the tiered runner contract.

Full-suite runs live in CI (`perf-smoke`), not here; these tests
exercise the machinery through the *fastest* registered cases so tier-1
stays quick.
"""

import inspect
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.perf.suite import (
    CASES,
    TIERS,
    BenchCase,
    UnknownCase,
    resolve_case,
    run_case,
    run_suite,
)
from repro.sim.trace import Tracer, tracing

ROOT = Path(__file__).resolve().parents[2]


class TestRegistry:
    def test_expected_cases_registered(self):
        assert {"fig5", "fig6", "fig7", "shootout", "fragmentation",
                "ablation_buddy", "ablation_collective"} <= set(CASES)

    def test_cases_have_both_tiers_and_metadata(self):
        for name, case in CASES.items():
            assert case.name == name
            assert case.description
            assert callable(case.run) and callable(case.reduce)
            # every tier's arguments fit the entry point's signature
            for tier in TIERS:
                inspect.signature(case.run).bind(seed=case.seed,
                                                 **case.kwargs(tier))

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError, match="tier"):
            CASES["fig5"].kwargs("medium")
        with pytest.raises(ValueError, match="tier"):
            CASES["fig5"].result("medium")

    @pytest.mark.parametrize("name", sorted(CASES) + ["shootout@ours+cuda"])
    def test_every_case_traces_to_its_untraced_metrics(self, name):
        # a tracing() block reaches every scheduler a case builds, and a
        # tracer only observes: the traced run reduces to the same data
        case = resolve_case(name)
        untraced = case.reduce(case.result("quick"), case.quick)
        with tracing(Tracer(timeline=False)) as tracer:
            traced = case.reduce(case.result("quick"), case.quick)
        assert traced == untraced
        assert tracer.runs


class TestRunCase:
    def test_metrics_shape(self):
        run = run_case(CASES["ablation_collective"], "quick")
        assert run.case == "ablation_collective"
        assert run.seed == CASES["ablation_collective"].seed
        assert run.metrics, "no metrics recorded"
        assert all(k.startswith("virtual:") for k in run.metrics)
        assert all(isinstance(v, float) for v in run.metrics.values())

    def test_virtual_metrics_deterministic_across_runs(self):
        a = run_case(CASES["ablation_collective"], "quick")
        b = run_case(CASES["ablation_collective"], "quick")
        assert a.metrics == b.metrics

    def test_nondeterministic_case_detected(self):
        ticks = iter(range(100))

        case = BenchCase(name="drift", seed=0, description="drifts",
                         run=lambda seed: next(ticks), quick={}, full={},
                         reduce=lambda res, kw: ({"x": float(res)}, {}))
        for tier in TIERS:
            with pytest.raises(RuntimeError, match="nondeterministic"):
                run_case(case, tier)

    def test_every_tier_runs_twice_with_the_case_seed(self):
        seeds = []

        case = BenchCase(name="pinned", seed=41, description="records seeds",
                         run=lambda seed: seeds.append(seed),
                         quick={}, full={},
                         reduce=lambda res, kw: ({"x": 1.0}, {}))
        for tier in TIERS:
            seeds.clear()
            assert run_case(case, tier).metrics == {"virtual:x": 1.0}
            assert seeds == [41, 41]

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_registered_runners_honour_the_case_seed(self, name):
        # the seed recorded in the artifact is the one the bench uses:
        # the entry point has no seed default of its own, and every
        # tier calls it with the case's seed and the tier's arguments
        case = CASES[name]
        seed = inspect.signature(case.run).parameters["seed"]
        assert seed.default is inspect.Parameter.empty

        seen = []

        def spy(**kwargs):
            seen.append(kwargs)
            raise _Stop

        for tier in TIERS:
            with pytest.raises(_Stop):
                replace(case, run=spy).result(tier)
        assert seen == [{"seed": case.seed, **case.quick},
                        {"seed": case.seed, **case.full}]


class _Stop(Exception):
    """Raised by the entry-point spy once it has seen its arguments."""


class TestRunSuite:
    def test_subset_run_and_progress(self):
        lines = []
        res = run_suite("quick", names=["ablation_collective"],
                        progress=lines.append)
        assert [c.case for c in res.cases] == ["ablation_collective"]
        assert res.case("ablation_collective").metrics
        assert any("ablation_collective" in ln for ln in lines)

    def test_unknown_case_rejected(self):
        with pytest.raises(KeyError, match="nope"):
            run_suite("quick", names=["nope"])

    @pytest.mark.parametrize("name", ["nope", "shootout@", "shootout@nope",
                                      "shootout@ours+nope"])
    def test_resolver_raises_unknown_case(self, name):
        with pytest.raises(UnknownCase, match="case"):
            resolve_case(name)


class TestFrontDoor:
    """``python -m repro <case>`` runs a registered case's full tier once
    and prints the bench's own table."""

    @pytest.fixture
    def tiny_fig5(self, monkeypatch):
        case = replace(CASES["fig5"], full={"thread_counts": (64,),
                                            "block": 32})
        monkeypatch.setitem(CASES, "fig5", case)
        return case

    def test_case_prints_the_bench_table(self, tiny_fig5, capsys):
        import repro.__main__ as cli

        assert cli.main(["fig5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("=== fig5 ")
        assert tiny_fig5.result("full").table() in out

    def test_shootout_roster_resolves_through_the_registry(self, monkeypatch,
                                                           capsys):
        import repro.__main__ as cli

        monkeypatch.setitem(CASES, "shootout", replace(
            CASES["shootout"], full={"nthreads": 64, "iters": 1}))
        assert cli.main(["shootout@ours+cuda"]) == 0
        out = capsys.readouterr().out
        want = resolve_case("shootout@ours+cuda").result("full").table()
        assert want in out and want.count("\n") == 3  # header, rule, 2 rows

    def test_all_runs_every_registered_case(self, monkeypatch, capsys):
        import repro.__main__ as cli
        from repro.perf import suite

        class Table:
            def __init__(self, seed):
                self.seed = seed

            def table(self):
                return f"table of seed {self.seed}"

        fake = {n: BenchCase(name=n, seed=i, description=n, run=Table,
                             quick={}, full={}, reduce=None)
                for i, n in enumerate(("one", "two"))}
        monkeypatch.setattr(suite, "CASES", fake)
        assert cli.main(["all"]) == 0
        out = capsys.readouterr().out
        assert "=== one " in out and "table of seed 0" in out
        assert "=== two " in out and "table of seed 1" in out

    def test_resil_alone_runs_the_case(self, monkeypatch, capsys):
        # `resil` names both a subsystem and a case; alone it is the case
        import repro.__main__ as cli

        case = replace(CASES["resil"], full={"nthreads": 64, "iters": 1})
        monkeypatch.setitem(CASES, "resil", case)
        assert cli.main(["resil"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("=== resil ")
        assert case.result("full").table() in out

    def test_resil_trace_prints_the_saved_table(self, tmp_path, capsys):
        # followed only by `--trace PATH`, `resil` is the case too: its
        # traced full tier prints exactly results/resil.txt, the untraced
        # run's saved output, before its telemetry summary
        import repro.__main__ as cli

        def table(text):
            return [line for line in text.splitlines()
                    if not line.endswith("s wall)")]

        path = tmp_path / "resil.json"
        assert cli.main(["resil", "--trace", str(path)]) == 0
        out = capsys.readouterr().out
        saved = table((ROOT / "results" / "resil.txt").read_text())
        assert table(out)[:len(saved)] == saved
        assert "== trace summary ==" in out
        assert json.loads(path.read_text())["traceEvents"]

    @pytest.mark.parametrize("argv, code", [
        (["resil", "--help"], 0),
        (["resil", "list"], 0),
        (["resil", "nope"], 2),
        (["resil", "--trace"], 2),
    ])
    def test_resil_with_more_tokens_is_the_subsystem(self, argv, code,
                                                     capsys):
        import repro.__main__ as cli

        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        assert rc == code
        out = capsys.readouterr()
        assert "===" not in out.out
        if argv[1] == "--help":
            assert "python -m repro resil" in out.out

    def test_unknown_case_is_a_usage_error(self, capsys):
        import repro.__main__ as cli

        with pytest.raises(SystemExit) as exc:
            cli.main(["nope"])
        assert exc.value.code == 2
        assert "unknown case 'nope'" in capsys.readouterr().err

"""Registry sanity and the tiered runner contract.

Full-suite runs live in CI (`perf-smoke`), not here; these tests
exercise the machinery through the *fastest* registered cases so tier-1
stays quick.
"""

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


class TestRegistry:
    def test_expected_cases_registered(self):
        assert {"fig5", "fig6", "fig7", "shootout", "fragmentation",
                "ablation_buddy", "ablation_collective"} <= set(CASES)

    def test_cases_have_both_tiers_and_metadata(self):
        for name, case in CASES.items():
            assert case.name == name
            assert case.description
            assert callable(case.runner("quick"))
            assert callable(case.runner("full"))

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError, match="tier"):
            CASES["fig5"].runner("medium")

    def test_traced_runners_cover_the_figures(self):
        for name in ("fig5", "fig6", "fig7"):
            assert CASES[name].traced_quick is not None


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

        def runner(seed):
            return {"x": float(next(ticks))}, {}

        case = BenchCase(name="drift", seed=0, description="drifts",
                         quick=runner, full=runner)
        for tier in TIERS:
            with pytest.raises(RuntimeError, match="nondeterministic"):
                run_case(case, tier)

    def test_every_tier_runs_twice_with_the_case_seed(self):
        seeds = []

        def runner(seed):
            seeds.append(seed)
            return {"x": 1.0}, {}

        case = BenchCase(name="pinned", seed=41, description="records seeds",
                         quick=runner, full=runner)
        for tier in TIERS:
            seeds.clear()
            assert run_case(case, tier).metrics == {"virtual:x": 1.0}
            assert seeds == [41, 41]

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_registered_runners_honour_the_case_seed(self, name,
                                                     monkeypatch):
        # the seed recorded in the artifact is the one the runner uses:
        # every builder below the registry receives the case's seed
        from repro.perf import suite

        seen = []

        def spy(seed, *args, **kwargs):
            seen.append(seed)
            raise _Stop

        for builder in ("_fig5", "_fig6", "_fig7", "_shootout", "_lockstep",
                        "_fragmentation", "_resil", "_ablation_buddy",
                        "_ablation_collective", "_workload", "_serve_replay"):
            monkeypatch.setattr(suite, builder, spy)
        case = CASES[name]
        for tier in TIERS:
            with pytest.raises(_Stop):
                case.runner(tier)(case.seed)
        assert seen == [case.seed, case.seed]


class _Stop(Exception):
    """Raised by the builder spy once it has seen the seed."""


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

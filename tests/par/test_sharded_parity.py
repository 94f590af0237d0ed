"""Sharded runs must be indistinguishable from serial runs.

The whole point of :mod:`repro.par` is that ``--workers N`` is a pure
wall-clock knob: the merged results of a sharded deck — order included —
are identical to the serial runner's, for every subsystem that shards.
"""

from __future__ import annotations

from repro.perf.suite import run_suite
from repro.resil.runner import QUICK_DECK, run_deck
from repro.verify.perturbation import SMOKE_DECK, Perturbation
from repro.verify.runner import CaseResult, sweep


def _fake_failing_run_case(spec):
    """Picklable stand-in: fails exactly the seed-1 cases."""
    res = CaseResult(spec)
    if spec.seed == 1:
        res.error = "InjectedFailure: boom"
    return res


class TestVerifyShardedParity:
    def test_sweep_matches_serial(self):
        kwargs = dict(seeds=range(2), deck=SMOKE_DECK[:2],
                      scenarios=["churn"])
        serial = sweep(**kwargs)
        sharded = sweep(workers=2, **kwargs)
        assert [r.describe() for r in sharded] == \
               [r.describe() for r in serial]
        assert [r.spec for r in sharded] == [r.spec for r in serial]

    def test_fail_fast_truncates_at_first_failure(self, monkeypatch):
        from repro.verify import runner

        monkeypatch.setattr(runner, "run_case", _fake_failing_run_case)
        kwargs = dict(seeds=[0, 1, 2], deck=[Perturbation()],
                      scenarios=["churn"], fail_fast=True)
        serial = runner.sweep(**kwargs)
        sharded = runner.sweep(workers=2, **kwargs)
        assert [r.spec for r in serial] == [r.spec for r in sharded]
        assert len(sharded) == 2 and not sharded[-1].ok

    def test_workers_0_reaches_the_pool(self, monkeypatch):
        # `--workers 0` (one per CPU) used to run serially: the sweep
        # only sharded on workers > 1.  Pin two CPUs so the auto count
        # shards on any host.
        from repro.par import pool

        pools = []

        class SpyPool(pool.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs["max_workers"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(pool.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(pool, "ProcessPoolExecutor", SpyPool)
        results = sweep(seeds=[0], deck=SMOKE_DECK[:2], scenarios=["churn"],
                        workers=0)
        assert pools == [2]
        assert all(r.ok for r in results)


class TestResilShardedParity:
    def test_deck_matches_serial(self):
        deck = QUICK_DECK[3:5]  # the two cheap churn cases
        serial = run_deck(deck, replay_check=False)
        sharded = run_deck(deck, replay_check=False, workers=2)
        assert [r.describe() for r in sharded] == \
               [r.describe() for r in serial]
        assert [r.trace for r in sharded] == [r.trace for r in serial]


class TestPerfShardedParity:
    def test_suite_matches_serial(self):
        names = ["fig5", "fig6"]
        serial = run_suite("quick", names=names)
        sharded = run_suite("quick", names=names, workers=2)
        assert [c.case for c in sharded.cases] == names
        # byte-identical metrics, seeds and params, order included
        assert sharded.cases == serial.cases

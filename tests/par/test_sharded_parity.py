"""Sharded runs must be indistinguishable from serial runs.

The whole point of :mod:`repro.par` is that ``--workers N`` is a pure
wall-clock knob: the merged results of a sharded deck — order included —
are identical to the serial runner's, for every subsystem that shards.
"""

from __future__ import annotations

from repro.perf.suite import run_suite
from repro.resil import runner as resil_runner
from repro.resil.runner import (
    DECK,
    ResilResult,
    ResilSpec,
    placements,
    run_deck,
)


def _churn_pair():
    """Two cheap churn cases: a chunk-failure placement and a stall."""
    return [placements("churn")[-1], DECK[0]]


def _fake_failing_run_case(spec, replay_check=True):
    """Picklable stand-in: fails exactly the seed-1 cases."""
    res = ResilResult(spec)
    if spec.seed == 1:
        res.error = "InjectedFailure: boom"
    return res


class TestResilShardedParity:
    def test_deck_matches_serial(self):
        deck = _churn_pair()
        serial = run_deck(deck, replay_check=False)
        sharded = run_deck(deck, replay_check=False, workers=2)
        assert [r.describe() for r in sharded] == \
               [r.describe() for r in serial]
        assert [r.trace for r in sharded] == [r.trace for r in serial]

    def test_fail_fast_truncates_at_first_failure(self, monkeypatch):
        monkeypatch.setattr(resil_runner, "run_case", _fake_failing_run_case)
        deck = [ResilSpec("churn", seed) for seed in (0, 1, 2)]
        serial = run_deck(deck, fail_fast=True)
        sharded = run_deck(deck, fail_fast=True, workers=2)
        assert [r.spec for r in serial] == [r.spec for r in sharded]
        assert len(sharded) == 2 and not sharded[-1].ok

    def test_workers_0_reaches_the_pool(self, monkeypatch):
        # `--workers 0` (one per CPU) used to run serially: decks only
        # sharded on workers > 1.  Pin two CPUs so the auto count
        # shards on any host.
        from repro.par import pool

        pools = []

        class SpyPool(pool.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs["max_workers"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(pool.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(pool, "ProcessPoolExecutor", SpyPool)
        results = run_deck(_churn_pair(), replay_check=False, workers=0)
        assert pools == [2]
        assert all(r.ok for r in results)


class TestPerfShardedParity:
    def test_suite_matches_serial(self):
        names = ["fig5", "fig6"]
        serial = run_suite("quick", names=names)
        sharded = run_suite("quick", names=names, workers=2)
        assert [c.case for c in sharded.cases] == names
        # byte-identical metrics, seeds and params, order included
        assert sharded.cases == serial.cases

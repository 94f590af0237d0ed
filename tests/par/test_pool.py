"""The sharding engine: order preservation, fallbacks, failure modes."""

from __future__ import annotations

import argparse
import os
import time

import pytest

import repro.__main__ as repro_main
from repro.cliargs import workers_arg
from repro.par.pool import (
    map_sharded,
    preferred_start_method,
    resolve_workers,
    shard_pool,
)


def _square(x: int) -> int:
    return x * x


def _sleepy_square(x: int) -> int:
    time.sleep(0.4)
    return x * x


def _explode_on_three(x: int) -> int:
    if x == 3:
        raise ValueError("shard went bad")
    return x


def _square_and_pid(x: int) -> tuple:
    return x * x, os.getpid()


def _auto_workers(x: int) -> tuple:
    return resolve_workers(0), resolve_workers(3)


def _boom_or_sleep(x: int) -> int:
    if x == 0:
        raise ValueError("fast shard went bad")
    time.sleep(5.0)
    return x


class TestResolveWorkers:
    def test_auto_is_at_least_one(self):
        assert resolve_workers(0) >= 1

    def test_auto_is_capped(self):
        assert resolve_workers(0) <= 8

    def test_explicit_is_literal(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(5) == 5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(-1)

    def test_auto_is_inline_inside_a_pool_worker(self, monkeypatch):
        # a bench sweep inside a sharded deck case must not fork a
        # second level of pools; an explicit count is still literal
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert resolve_workers(0) == 2
        assert map_sharded(_auto_workers, [0, 1, 2], workers=2) == [
            (1, 3)] * 3


class TestWorkersArg:
    def test_non_negative_is_literal(self):
        assert workers_arg("0") == 0
        assert workers_arg("3") == 3

    @pytest.mark.parametrize("raw", ["-1", "x", ""])
    def test_bad_value_is_argument_error(self, raw):
        with pytest.raises(argparse.ArgumentTypeError):
            workers_arg(raw)

    @pytest.mark.parametrize("argv", [
        ["verify"],
        ["verify", "explore"],
        ["resil", "run"],
        ["perf", "run"],
        ["workloads", "replay", "unused.jsonl"],
    ])
    def test_negative_workers_exit_2_on_every_command(self, argv, capsys):
        # negative counts used to run serially (or, in `verify explore`,
        # raise a traceback from deep inside the pool)
        with pytest.raises(SystemExit) as exc:
            repro_main.main(argv + ["--workers", "-1"])
        assert exc.value.code == 2
        assert "argument --workers: must be >= 0" in capsys.readouterr().err

    def test_par_is_not_a_command(self):
        # every deck command takes --workers itself
        with pytest.raises(SystemExit) as exc:
            repro_main.main(["par", "probe"])
        assert exc.value.code == 2


class TestMapSharded:
    def test_inline_matches_comprehension(self):
        items = list(range(7))
        assert map_sharded(_square, items, workers=1) == [x * x for x in items]

    def test_sharded_matches_inline(self):
        items = list(range(11))
        serial = map_sharded(_square, items, workers=1)
        sharded = map_sharded(_square, items, workers=3)
        assert sharded == serial

    def test_order_is_submission_order(self):
        # Regardless of which worker finishes first, index i holds f(items[i]).
        items = [9, 2, 5, 0, 7]
        assert map_sharded(_square, items, workers=2) == [81, 4, 25, 0, 49]

    def test_empty_items(self):
        assert map_sharded(_square, [], workers=4) == []

    def test_single_item_runs_inline(self):
        assert map_sharded(_square, [6], workers=4) == [36]

    def test_worker_exception_propagates(self):
        with pytest.raises(ValueError, match="shard went bad"):
            map_sharded(_explode_on_three, [1, 2, 3, 4], workers=2)

    def test_inline_exception_propagates(self):
        with pytest.raises(ValueError, match="shard went bad"):
            map_sharded(_explode_on_three, [3], workers=1)

    def test_failure_does_not_wait_for_slow_shards(self):
        # Regression: a worker exception used to re-raise only after the
        # executor's context exit drained every in-flight shard, so a
        # failing deck with one slow case reported its failure seconds
        # (or, on real decks, minutes) late.  The raise must beat the
        # slow sibling's 5-second runtime by a wide margin.
        t0 = time.monotonic()
        with pytest.raises(ValueError, match="fast shard went bad"):
            map_sharded(_boom_or_sleep, [1, 0], workers=2)
        assert time.monotonic() - t0 < 3.0

    def test_empty_items_still_log_a_deck_line(self):
        # The inline path used to skip logging entirely for an empty
        # deck, so `verify --scenario x --seeds ''`-style runs looked
        # hung rather than trivially complete.
        lines: list = []
        assert map_sharded(_square, [], workers=1, log=lines.append) == []
        assert lines == ["  [0/0] empty deck — nothing to run"]

    def test_log_sees_every_item(self):
        lines: list = []
        map_sharded(_square, [1, 2, 3], workers=2, log=lines.append)
        assert len(lines) == 3
        # progress lines carry completion counters over the full deck size
        assert all("/3]" in line for line in lines)

    def test_inline_stop_returns_at_first_hit(self):
        seen = []

        def record(x):
            seen.append(x)
            return x

        out = map_sharded(record, [1, 2, 3, 4], workers=1,
                          stop=lambda r: r == 2)
        assert out == [1, 2] and seen == [1, 2]

    def test_pooled_stop_truncates_the_merge(self):
        out = map_sharded(_square, [1, 2, 3, 4], workers=2,
                          stop=lambda r: r == 4)
        assert out == map_sharded(_square, [1, 2, 3, 4], workers=1,
                                  stop=lambda r: r == 4) == [1, 4]

    def test_describe_reports_results_in_deck_order(self):
        inline: list = []
        pooled: list = []
        map_sharded(_square, [3, 1, 2], workers=1, log=inline.append,
                    describe=lambda r: f"= {r}")
        map_sharded(_square, [3, 1, 2], workers=2, log=pooled.append,
                    describe=lambda r: f"= {r}", stop=lambda r: r == 1)
        assert inline == ["= 9", "= 1", "= 4"]
        # pooled: [k/n] completion lines first, then the truncated deck
        assert [ln for ln in pooled if ln.startswith("=")] == ["= 9", "= 1"]
        assert sum("/3]" in ln for ln in pooled) == 3

    def test_preferred_start_method_is_known(self):
        assert preferred_start_method() in ("fork", "spawn")


class TestShardPool:
    def test_one_fork_per_session(self):
        # Two calls on one session pool match the inline results and,
        # between them, run on at most the pool's 2 worker processes.
        items = list(range(6))
        with shard_pool(2) as pool:
            first = map_sharded(_square_and_pid, items, pool=pool)
            second = map_sharded(_square_and_pid, items[::-1], pool=pool)
        assert [sq for sq, _ in first] == map_sharded(_square, items,
                                                      workers=1)
        assert [sq for sq, _ in second] == map_sharded(_square, items[::-1],
                                                       workers=1)
        pids = {pid for _, pid in first + second}
        assert os.getpid() not in pids
        assert 1 <= len(pids) <= 2

    def test_single_worker_yields_none_and_runs_inline(self):
        with shard_pool(1) as pool:
            assert pool is None
            out = map_sharded(_square_and_pid, [1, 2, 3], workers=1,
                              pool=pool)
        assert out == [(1, os.getpid()), (4, os.getpid()), (9, os.getpid())]

    def test_failure_in_a_session_does_not_wait_for_slow_shards(self):
        # As test_failure_does_not_wait_for_slow_shards, but on a session
        # pool: the clock covers the context exit too, which must not
        # join the slow sibling.
        t0 = time.monotonic()
        with pytest.raises(ValueError, match="fast shard went bad"):
            with shard_pool(2) as pool:
                map_sharded(_boom_or_sleep, [1, 0], pool=pool)
        assert time.monotonic() - t0 < 3.0

    def test_pool_is_shut_down_after_the_session(self):
        with shard_pool(2) as pool:
            assert map_sharded(_square, [2, 3], pool=pool) == [4, 9]
        with pytest.raises(RuntimeError):
            pool.submit(_square, 4)


class TestHeartbeat:
    def test_slow_shards_emit_liveness_lines(self):
        # With a heartbeat shorter than the shard runtime, at least one
        # "still running" line must appear, naming an in-flight shard —
        # long decks must never be indistinguishable from a hang.
        lines: list = []
        out = map_sharded(_sleepy_square, [2, 3], workers=2,
                          log=lines.append, heartbeat_s=0.1)
        assert out == [4, 9]
        beats = [ln for ln in lines if "still running" in ln]
        assert beats, f"no heartbeat line in {lines!r}"
        assert any("2" in b or "3" in b for b in beats)
        # completion lines still arrive, one per shard, after the beats
        assert sum("/2]" in ln and "still running" not in ln
                   for ln in lines) == 2

    def test_heartbeat_counter_reflects_completions(self):
        lines: list = []
        map_sharded(_sleepy_square, [1], workers=1,
                    log=lines.append, heartbeat_s=0.05)
        # inline path (single item): no heartbeats, just the progress line
        assert lines == ["  [1/1] 1"]

"""Process-pool sharding with a deterministic, order-preserving merge.

Design constraints (why this is not just ``Pool.map``):

* **Canonical merge order.**  Results are returned in *submission*
  order, never completion order — the caller's deck order is the
  canonical order, and a sharded run must be indistinguishable from the
  serial run.  Completion order is surfaced only through the ``log``
  progress callback, which is explicitly ephemeral.
* **Inline fallback.**  ``workers <= 1`` (or a single-item deck) runs in
  the calling process with no executor, no pickling and no forked
  children — the serial path stays the reference implementation, and
  environments without working multiprocessing lose nothing.
* **One deck loop.**  Every deck runner (verify sweep, resil deck, perf
  suite, workloads replay) and every bench sweep (the points of
  ``repro.bench``, through :func:`repro.bench.sweep.map_points`) is a
  single :func:`map_sharded` call, so ``--workers`` changes where a case
  runs, never which code runs it.  Fail-fast (``stop``) and per-case
  report lines (``describe``) are the only caller hooks, and both
  behave identically on either path.
* **No nested pools.**  ``workers=0`` resolves to one worker per CPU in
  the main process and to ``1`` (inline) inside a pool worker, so a
  bench sweep inside a sharded deck case never forks a second level of
  pools.  An explicit positive count is still taken literally.
* **Fork preferred.**  The fork start method inherits the registry
  modules (benchmark lambdas and scenario closures need never pickle);
  ``spawn`` is the fallback where fork is unavailable.  Only the worker
  *function and items* must pickle, so callers shard by name/spec, not
  by closure.
* **Fail loudly, fail fast.**  A worker exception cancels the queued
  shards and re-raises in the parent immediately — without waiting for
  in-flight shards to drain; a sharded run never silently drops a case
  and never parks a failure behind its slowest sibling.
* **Warm sessions, never a global pool.**  A session that makes many
  calls (explore runs one per 4-case batch) opens :func:`shard_pool`
  once and passes it as ``pool=``, so it forks once instead of once per
  call.  The session opens it at run time, never at import or
  construction: a pool forked before a test monkeypatches the code
  under test would run the unpatched code.  Size the pool to the
  largest call (``min(workers, batch)``) — the fork start method starts
  every ``max_workers`` child at the first submit.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Iterator, List, Optional, Sequence

__all__ = ["map_sharded", "resolve_workers", "shard_pool",
           "preferred_start_method"]


def preferred_start_method() -> str:
    """``fork`` where the platform offers it, else ``spawn``."""
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


def resolve_workers(workers: int = 0) -> int:
    """Normalize a ``--workers`` value to a concrete worker count.

    ``0`` means *auto*: one worker per CPU, capped at 8 — decks are
    short, and past that the fork/import overhead beats the parallelism.
    Inside a pool worker *auto* is ``1``: the outer deck already has one
    process per CPU, so a bench sweep in a ``perf run --workers N`` case
    runs inline instead of forking a pool per worker.  Negative values
    are an error; any positive value is taken literally (``1`` = serial
    inline execution).
    """
    if workers < 0:
        raise ValueError(f"workers must be >= 0 (got {workers})")
    if workers == 0:
        if multiprocessing.parent_process() is not None:
            return 1
        return min(os.cpu_count() or 1, 8)
    return workers


#: seconds between liveness heartbeats while shards are in flight
HEARTBEAT_S = 30.0


@contextmanager
def shard_pool(workers: int = 0) -> Iterator[Optional[ProcessPoolExecutor]]:
    """One fork-preferred process pool for the ``with`` block, or ``None``
    when ``workers`` resolves to 1 (every call then runs inline).

    Pass it to each :func:`map_sharded` call as ``pool=``.  On a clean
    exit the pool joins its idle workers; on an exception it shuts down
    without waiting, cancelling queued shards, so a failure never waits
    for an in-flight sibling.
    """
    workers = resolve_workers(workers)
    if workers <= 1:
        yield None
        return
    ctx = multiprocessing.get_context(preferred_start_method())
    pool = ProcessPoolExecutor(max_workers=workers, mp_context=ctx)
    try:
        yield pool
    except BaseException:
        # Fail fast: ``shutdown(wait=True)`` would park the raise behind
        # the slowest in-flight shard.  In-flight workers finish their
        # current item and exit on their own.
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    pool.shutdown(wait=True)


def map_sharded(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    workers: int = 0,
    log: Optional[Callable[[str], None]] = None,
    label: Callable[[Any], str] = str,
    heartbeat_s: float = HEARTBEAT_S,
    stop: Optional[Callable[[Any], bool]] = None,
    describe: Optional[Callable[[Any], str]] = None,
    pool: Optional[ProcessPoolExecutor] = None,
) -> List[Any]:
    """Apply ``fn`` to every item, sharded across worker processes.

    Returns ``[fn(item) for item in items]`` — same values, same order —
    regardless of ``workers``.  With ``workers > 1`` the items fan out
    over a process pool and the results are merged back by submission
    index, so worker scheduling can never reorder (or drop) a result.

    ``fn`` and each item must be picklable when ``workers > 1`` (use a
    module-level function or :func:`functools.partial` over one; shard
    by case *name* or *spec*, not by closure).  ``log``, when given,
    receives one progress line per completed item in completion order —
    and exactly one ``[0/0]`` summary line for an empty deck, so a
    logging caller always sees a final ``[done/total]`` line no matter
    which execution path ran.  When no shard completes for
    ``heartbeat_s`` seconds, ``log`` also receives a liveness line
    naming the still-running shards — long decks (full-tier perf,
    nightly resil) otherwise sit silent for minutes and are
    indistinguishable from a hang.

    ``stop(result)`` makes the run fail-fast: the returned list ends at
    the first result it accepts.  The inline path returns right there;
    the pooled path cannot see one shard's failure from another, so it
    runs every item and truncates the merged list at the same index.
    ``describe(result)``, with ``log``, reports each returned result in
    deck order — inline as each one finishes (in place of the
    ``[i/n]`` progress line), pooled after the merge.

    ``pool``, a :func:`shard_pool` executor, runs the items there
    instead of in a pool of this call's own (``workers`` is then only
    validated).  A single-item deck runs inline either way.
    """
    n = len(items)
    workers = resolve_workers(workers)
    if n <= 1 or (pool is None and workers <= 1):
        results = []
        for i, item in enumerate(items):
            result = fn(item)
            results.append(result)
            if log is not None:
                log(describe(result) if describe is not None
                    else f"  [{i + 1}/{n}] {label(item)}")
            if stop is not None and stop(result):
                break
        if n == 0 and log is not None:
            log("  [0/0] empty deck — nothing to run")
        return results

    results: List[Any] = [None] * n
    done_count = 0
    with (nullcontext(pool) if pool is not None
          else shard_pool(min(workers, n))) as pool:
        futures = {pool.submit(fn, item): i for i, item in enumerate(items)}
        try:
            pending = set(futures)
            while pending:
                finished, pending = wait(pending, timeout=heartbeat_s,
                                         return_when=FIRST_EXCEPTION)
                if not finished and log is not None:
                    # Heartbeat: nothing completed within the window.
                    running = sorted(futures[f] for f in pending)
                    shown = ", ".join(label(items[i])
                                      for i in running[:4])
                    more = len(running) - 4
                    if more > 0:
                        shown += f", +{more} more"
                    log(f"  [{done_count}/{n}] {len(running)} shard(s) "
                        f"still running: {shown}")
                    continue
                for fut in finished:
                    i = futures[fut]
                    results[i] = fut.result()  # re-raises worker exceptions
                    done_count += 1
                    if log is not None:
                        log(f"  [{done_count}/{n}] {label(items[i])}")
        except BaseException:
            # Fail fast: drop this call's queued shards and re-raise
            # *now*; shard_pool's exit shuts the pool down without
            # waiting for in-flight shards.
            for fut in futures:
                fut.cancel()
            raise
    if stop is not None:
        for i, result in enumerate(results):
            if stop(result):
                results = results[:i + 1]
                break
    if describe is not None and log is not None:
        for result in results:
            log(describe(result))
    return results

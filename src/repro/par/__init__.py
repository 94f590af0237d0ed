"""Parallel deck execution: multiprocess sharding with deterministic merge.

The simulator is single-threaded Python, so a deck of independent cases
(benchmark cases, explore batches, resilience plans) is embarrassingly
parallel across *processes*.  Each case constructs its own simulator
from a seed, so sharding cannot perturb results — the contract, enforced
by tests, is that a sharded run's merged output is byte-identical to the
serial run's, independent of worker count and completion order.

:mod:`repro.par.pool` holds the sharding engine (:func:`map_sharded`),
the one deck loop behind ``perf run``, ``verify``, ``resil run``,
``workloads replay`` and every bench sweep.  Each deck takes
``--workers N`` (``0`` = one worker per CPU, capped at 8, and
``1`` inside a pool worker; ``1`` = inline, serial); a bench sweep
always asks for ``0``.
A deck is one call with a pool of its own; a session of many calls
(``verify``, one per explore batch) opens :func:`shard_pool` once at
run time and passes it to every call, so it forks once per session.
"""

from .pool import map_sharded, resolve_workers, shard_pool

__all__ = ["map_sharded", "resolve_workers", "shard_pool"]

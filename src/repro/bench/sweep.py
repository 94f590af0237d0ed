"""One sweep loop for the benches: independent points on every CPU.

A bench sweep is a list of points, and each point builds its own
``Scheduler(seed)``, so where a point runs cannot change its result.
:func:`map_points` hands the points to :func:`repro.par.pool.map_sharded`
with one worker per CPU and gets the results back in submission order,
so a sharded sweep returns exactly the serial sweep's result objects.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, List, Sequence

from ..sim.trace import active


def _profiled() -> bool:
    """Whether a profiler watches this process: ``cProfile`` hooks
    ``sys.setprofile`` up to Python 3.11 and ``sys.monitoring`` after."""
    monitoring = getattr(sys, "monitoring", None)
    return sys.getprofile() is not None or (
        monitoring is not None
        and monitoring.get_tool(monitoring.PROFILER_ID) is not None)


def map_points(point: Callable[[tuple], Any],
               specs: Sequence[tuple]) -> List[Any]:
    """``[point(spec) for spec in specs]``, one worker process per CPU.

    ``point`` is a module-level function and every spec a plain tuple,
    so both pickle.  Traced (inside a :func:`~repro.sim.trace.tracing`
    block), each point's run is labelled ``<bench module>:<spec>``.
    Traced or under a profiler (``perf profile``) the points run inline:
    both see only this process.  Inside a pool worker (``perf run
    --workers N``, a verify or resil deck) they run inline too, because
    :func:`~repro.par.pool.resolve_workers` never nests pools.
    """
    # looked up per call, never bound at import: the benchmark's layer
    # recorder replaces ``pool.map_sharded`` to time each point
    from ..par import pool

    tracer = active()
    if tracer is None:
        return pool.map_sharded(point, specs, workers=1 if _profiled() else 0)
    bench = point.__module__.rpartition(".")[2]

    def labelled(spec: tuple) -> Any:
        tracer.begin_run(f"{bench}:{spec}")
        return point(spec)

    return pool.map_sharded(labelled, specs, workers=1)

"""One sweep loop for the benches: independent points on every CPU.

A bench sweep is a list of points, and each point builds its own
``Scheduler(seed)``, so where a point runs cannot change its result.
:func:`map_points` hands the points to :func:`repro.par.pool.map_sharded`
with one worker per CPU and gets the results back in submission order,
so a sharded sweep returns exactly the serial sweep's result objects.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, List, Optional, Sequence

from ..sim.trace import Tracer


def _profiled() -> bool:
    """Whether a profiler watches this process: ``cProfile`` hooks
    ``sys.setprofile`` up to Python 3.11 and ``sys.monitoring`` after."""
    monitoring = getattr(sys, "monitoring", None)
    return sys.getprofile() is not None or (
        monitoring is not None
        and monitoring.get_tool(monitoring.PROFILER_ID) is not None)


def map_points(point: Callable[[tuple], Any], specs: Sequence[tuple],
               tracer: Optional[Tracer] = None) -> List[Any]:
    """``[point(spec) for spec in specs]``, one worker process per CPU.

    ``point`` is a module-level function and every spec a plain tuple,
    so both pickle.  With a ``tracer``, or under a profiler (``perf
    profile``), the points run inline: both see only this process.
    Inside a pool worker (``perf run --workers N``, a verify or resil
    deck) they run inline too, because
    :func:`~repro.par.pool.resolve_workers` never nests pools.
    """
    # looked up per call, never bound at import: the benchmark's layer
    # recorder replaces ``pool.map_sharded`` to time each point
    from ..par import pool

    inline = tracer is not None or _profiled()
    return pool.map_sharded(point, specs, workers=1 if inline else 0)

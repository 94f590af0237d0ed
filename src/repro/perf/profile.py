"""Hotspot attribution: where does the *host* time of a bench go?

The simulator is pure Python, so host wall-clock — not virtual cycles —
bounds every sweep in this repo.  This module answers "what should a
perf PR optimize?" two ways:

* :func:`profile_case` runs one quick-tier case under :mod:`cProfile`
  and reduces the stats to a top-N table by own-time (``tottime``), the
  direct "this function burns the CPU" view, with cumulative time kept
  alongside for call-tree context.
* :func:`trace_report` re-runs the same tier of the case traced and
  renders the simulator-level telemetry — op mix, hottest atomic
  serialization words, event-queue volume — so a host hotspot can be
  tied back to the simulated behavior generating it.
"""

from __future__ import annotations

import cProfile
import pstats
from dataclasses import dataclass
from pathlib import Path
from typing import List

from ..bench.reporting import format_table
from ..sim.trace import Tracer, tracing
from .suite import BenchCase


@dataclass
class Hotspot:
    """One row of the top-N profile table."""

    ncalls: int
    tottime: float     # seconds spent in the function itself
    cumtime: float     # seconds including callees
    where: str         # 'file.py:123(function)'


@dataclass
class ProfileReport:
    case: str
    tier: str
    wall_seconds: float      # total profiled run (includes cProfile overhead)
    hotspots: List[Hotspot]

    def table(self) -> str:
        rows = [
            [h.ncalls, f"{h.tottime:.3f}", f"{h.cumtime:.3f}", h.where]
            for h in self.hotspots
        ]
        return format_table(["calls", "tottime s", "cumtime s", "where"], rows)


def _where(func) -> str:
    """pstats (file, line, name) -> a short clickable-ish location."""
    filename, line, name = func
    if filename.startswith("~") or filename == "<built-in>":
        return f"<builtin>({name})"
    short = "/".join(Path(filename).parts[-2:])
    return f"{short}:{line}({name})"


def profile_case(case: BenchCase, tier: str = "quick",
                 top: int = 10) -> ProfileReport:
    """Run ``case`` once under cProfile; return the top-N own-time rows."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        case.result(tier)
    finally:
        prof.disable()
    stats = pstats.Stats(prof)
    total = getattr(stats, "total_tt", 0.0)
    rows = sorted(
        stats.stats.items(),          # {(file, line, name): (cc, nc, tt, ct, callers)}
        key=lambda kv: kv[1][2],
        reverse=True,
    )
    hotspots = [
        Hotspot(ncalls=nc, tottime=tt, cumtime=ct, where=_where(func))
        for func, (cc, nc, tt, ct, callers) in rows[:top]
    ]
    return ProfileReport(case=case.name, tier=tier, wall_seconds=total,
                         hotspots=hotspots)


def trace_report(case: BenchCase, tier: str = "quick",
                 top: int = 10) -> str:
    """Simulator telemetry for ``case``'s ``tier`` run, re-run traced
    (the path ``python -m repro <case> --trace`` takes)."""
    with tracing(Tracer()) as tracer:
        case.result(tier)
    return tracer.summary(top=top)

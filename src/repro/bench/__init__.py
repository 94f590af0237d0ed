"""Benchmark harnesses regenerating every figure in the paper's
evaluation (§5), plus the ablations DESIGN.md calls out.

* :mod:`repro.bench.fig5` — bulk vs counting semaphore throughput.
* :mod:`repro.bench.fig6` — RCU delegation speedup.
* :mod:`repro.bench.fig7` — allocator throughput/failures by size.
* :mod:`repro.bench.ablations` — TBuddy vs lock buddy; collective vs
  plain mutex.
* :mod:`repro.bench.shootout` — cross-allocator comparison including
  the §2.2 related-work designs.
* :mod:`repro.bench.fragmentation` — fragmentation-over-time study.
* :mod:`repro.bench.sweep` — the sweep loop: a bench's independent
  points on one process per CPU.
* :mod:`repro.bench.workloads` — shared workload builders.
* :mod:`repro.bench.reporting` — series containers and tables.
"""

from . import ablations, fig5, fig6, fig7, fragmentation, reporting, shootout, workloads
from .reporting import Series, format_table, geometric_mean, si, size_label

__all__ = [
    "fig5",
    "fig6",
    "fig7",
    "ablations",
    "shootout",
    "fragmentation",
    "workloads",
    "reporting",
    "Series",
    "format_table",
    "geometric_mean",
    "si",
    "size_label",
]

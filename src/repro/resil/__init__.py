"""repro.resil — deterministic fault injection and graceful degradation.

Forces the allocator's failure-recovery paths (renege arms, NULL
returns, lock-holder stalls, delayed RCU grace periods) to fire on a
replayable schedule, then checks that the system degrades gracefully
and recovers to a clean quiescent state.

Layout:

- :mod:`repro.resil.plan` — :class:`FaultPlan` / :class:`FaultRule`
  specs, the :data:`~repro.resil.plan.SITES` registry, and the
  :class:`FaultInjector` the scheduler consults at each
  :func:`~repro.sim.ops.fault_point`.
- :mod:`repro.resil.runner` — resilience cases (verify scenario x seed
  x plan), post-fault recovery assertions, byte-for-byte replay check.
- :mod:`repro.resil.bench` — throughput-degradation benchmark under
  injected fault rates (registered as the ``resil`` perf case).
- :mod:`repro.resil.cli` — ``python -m repro resil``.
"""

from .plan import (
    SITES,
    STALL_KINDS,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    FaultRule,
)

__all__ = [
    "SITES",
    "STALL_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultPlanError",
    "FaultRule",
]

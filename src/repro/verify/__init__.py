"""Deterministic concurrency verification for the simulator.

The simulator executes device code in virtual-time order, so every run
is a *schedule* fully determined by ``(seed, perturbation)`` — the
scheduler seed plus a small set of cost-model/dispatch knobs that bend
which interleavings the seed explores.  This package turns that
determinism into a verification workflow:

* **Torture cases** (:mod:`.runner`): allocator scenarios run under one
  ``(seed, perturbation)`` pair, validating structural and
  semaphore-accounting invariants plus leak accounting at quiescent
  phase checkpoints.
* **Race detection** (:mod:`.race`): a :class:`~repro.sim.trace.Tracer`
  subclass that watches every memory op for protocol violations —
  plain stores clobbering held node locks, lock words released by
  non-owners, RCU-unlinked nodes written before their grace period.
* **Coverage-guided exploration** (:mod:`.explore`): scheduler
  state-digest feedback steers the case budget toward unvisited
  interleavings; coverage is reported as distinct schedules visited,
  and every explored case is an ordinary replay triple (the steering
  decision rides in the ``steer`` knob).
* **Replay + shrink** (:mod:`.cli`, :mod:`.shrink`): every failure
  reports a ``scenario:seed:perturbation`` triple replayable with
  ``python -m repro verify --replay``, and the perturbation set can be
  bisected to a minimal reproducer.

Entry point: ``python -m repro verify`` (see ``--help``).
"""

from .explore import ExploreReport, Explorer, ScheduleCoverage, explore
from .perturbation import Perturbation
from .race import RaceChecker, RaceFinding
from .runner import CaseResult, CaseSpec, SCENARIOS, run_case
from .shrink import shrink_case

__all__ = [
    "Perturbation",
    "RaceChecker",
    "RaceFinding",
    "CaseResult",
    "CaseSpec",
    "SCENARIOS",
    "run_case",
    "shrink_case",
    "Explorer",
    "ExploreReport",
    "ScheduleCoverage",
    "explore",
]

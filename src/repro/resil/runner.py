"""Resilience cases: verify scenarios run under a fault plan.

A resilience *case* is one :mod:`repro.verify` scenario executed with a
:class:`~repro.resil.plan.FaultInjector` attached to the scheduler.
The scenario's own quiescent checkpoints run as usual — so a fault
whose failure arm leaks a promise (``E != 0``), strands a waiter
(``R != 0``), corrupts the tree, or loses bytes fails the case exactly
like an organic bug would — and the runner layers post-fault recovery
assertions on top:

* the final ``host_checkpoint`` must pass *after* the injected faults
  (every injected renege left ``E == R == 0`` at quiescence, no leaked
  promises);
* the host pressure gauge must agree with the quiescent tree — the
  semaphore ledgers and the tree shape reconcile byte-for-byte, and a
  leak-free scenario ends with the whole pool free;
* the case must actually inject (:data:`MIN_INJECTED`) — a plan whose site
  is never reached verifies nothing and is reported as a failure, not
  silently passed;
* replaying the same ``(scenario, seed, plan)`` must reproduce the
  identical fault trace byte-for-byte.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..par import pool
from ..sim.errors import SimError
from ..verify.perturbation import Perturbation
from ..verify.runner import SCENARIOS, ReplaySpec, _Harness
from .plan import SITES, STALL_KINDS, FaultInjector, FaultPlan, FaultRule

#: a case fails unless at least this many faults were injected
MIN_INJECTED = 1


@dataclass(frozen=True)
class ResilSpec(ReplaySpec):
    """One replayable resilience case (``scenario[@backend]:seed:plan``;
    plan specs never contain ``:``, so the string splits cleanly)."""

    scenario: str
    seed: int
    plan: FaultPlan = FaultPlan()
    #: registry name of the allocator under test (fault sites that live
    #: in shared machinery — ``spinlock.hold`` — fire for any backend
    #: built on it; ours-specific sites only fire for ours)
    backend: str = "ours"

    _payload_field = "plan"
    _payload_type = FaultPlan
    _what = "resil replay spec"


@dataclass
class ResilResult:
    """Outcome of one executed resilience case."""

    spec: ResilSpec
    error: Optional[str] = None
    n_injected: int = 0
    counts_by_kind: Dict[str, int] = field(default_factory=dict)
    trace: str = ""
    #: None = replay check not run; True/False = trace reproduced or not
    replay_ok: Optional[bool] = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.replay_ok is not False

    def describe(self) -> str:
        kinds = ",".join(f"{k}={v}" for k, v in self.counts_by_kind.items())
        tag = f"[{self.n_injected} faults: {kinds}]" if kinds else "[0 faults]"
        if self.ok:
            return f"PASS {self.spec} {tag}"
        lines = [f"FAIL {self.spec} {tag}"]
        if self.error:
            lines.append(f"  error: {self.error}")
        if self.replay_ok is False:
            lines.append("  error: fault trace not reproduced on replay")
        return "\n".join(lines)


def _play(spec: ResilSpec, inj: FaultInjector) -> _Harness:
    """Run ``spec``'s scenario with ``inj`` attached; returns the harness."""
    harness_kwargs, scenario = SCENARIOS[spec.scenario]
    h = _Harness(spec.seed, Perturbation(), checker=None,
                 fault_injector=inj, backend=spec.backend, **harness_kwargs)
    scenario(h)
    return h


def _run_once(spec: ResilSpec) -> ResilResult:
    """Execute the case once and apply the recovery assertions."""
    inj = FaultInjector(spec.plan, seed=spec.seed)
    result = ResilResult(spec)
    try:
        h = _play(spec, inj)
        # Post-fault recovery assertions.  The scenario's final
        # checkpoint already validated every structural and accounting
        # invariant after the faults; re-assert the parts the paper's
        # failure protocol owes us, explicitly and in resilience terms.
        # The checkpoint itself is backend-uniform; the gauge/tree
        # reconciliation below is the paper allocator's own ledger and
        # only exists there.
        h.handle.host_checkpoint(expect_leak_free=True)
        if hasattr(h.alloc, "host_pressure"):
            gauge = h.alloc.host_pressure()
            tree_free = h.alloc.tbuddy.host_free_bytes()
            assert gauge.free_bytes == tree_free, (
                f"pressure gauge reads {gauge.free_bytes} free bytes but "
                f"the quiescent tree holds {tree_free}: semaphore ledgers "
                "and tree shape disagree after fault recovery"
            )
            assert gauge.free_bytes == h.cfg.pool_size, (
                f"only {gauge.free_bytes}/{h.cfg.pool_size} bytes free "
                "after a leak-free scenario: fault recovery lost supply"
            )
        assert inj.n_injected >= MIN_INJECTED, (
            f"only {inj.n_injected} faults injected "
            f"(expected >= {MIN_INJECTED}): the plan's sites were "
            "not reached and the case verified nothing"
        )
    except (SimError, AssertionError) as exc:
        result.error = f"{type(exc).__name__}: {exc}"
    result.n_injected = inj.n_injected
    result.counts_by_kind = inj.counts_by_kind
    result.trace = inj.trace_text()
    return result


def run_case(spec: ResilSpec, replay_check: bool = True) -> ResilResult:
    """Execute one resilience case; never raises for case failures.

    With ``replay_check`` (the default) the case runs twice and the two
    fault traces are compared byte-for-byte — determinism of the whole
    (workload, scheduler, injector) stack is part of the contract.
    """
    result = _run_once(spec)
    if replay_check:
        second = _run_once(spec)
        result.replay_ok = (second.trace == result.trace
                            and second.error == result.error)
    return result


# ----------------------------------------------------------------------
# placements and the deck
# ----------------------------------------------------------------------
#: the seed every placement's clean counting run and faulted runs use
PLACEMENT_SEED = 1

#: sites whose fault is a failure arm (stalls need a rate: see DECK)
FAIL_SITES = tuple(site for site, (kind, _) in SITES.items()
                   if kind not in STALL_KINDS)

#: storm_oom places only chunk failures: organically 1,856 of its 1,859
#: TBuddy.alloc calls already return NULL, which takes the same NULL and
#: split-renege arms, while its 2,983 TBuddy placements would add about
#: seven minutes to every run
STORM_OOM_SITES = ("ualloc.new_chunk",)


def placements(scenario: str) -> List[ResilSpec]:
    """Every single-fault placement of ``scenario``: a clean run counts
    each fail-kind site's probes, and occurrence ``k`` of site ``S``
    becomes ``site=S,every=1,max=1,after=k``.  The faulted run matches
    the clean one up to the fault, so every placement fires once."""
    inj = FaultInjector(FaultPlan(), seed=PLACEMENT_SEED)
    _play(ResilSpec(scenario, PLACEMENT_SEED), inj)
    sites = STORM_OOM_SITES if scenario == "storm_oom" else FAIL_SITES
    return [ResilSpec(scenario, PLACEMENT_SEED,
                      FaultPlan((FaultRule(site, every=1, max=1, after=k),)))
            for site in sites for k in range(inj.occurrences.get(site, 0))]


def _spec(scenario: str, seed: int, planspec: str,
          backend: str = "ours") -> ResilSpec:
    return ResilSpec(scenario, seed, FaultPlan.parse(planspec), backend)


#: what a single placement cannot express: lock-holder stalls, stretched
#: RCU grace periods, the baselines' global locks, and mixed plans.
DECK: List[ResilSpec] = [
    # stall: lock holders hold SpinLocks for extra cycles
    _spec("churn", 2, "site=spinlock.hold,p=0.05,cycles=3000"),
    _spec("churn", 5, "site=spinlock.hold,p=0.15,cycles=8000"),
    _spec("producer_consumer", 1, "site=spinlock.hold,every=3,cycles=4000"),
    # stall: TBuddy node locks held mid-transition
    _spec("storm", 4, "site=tbuddy.lock,p=0.05,cycles=2000,max=50"),
    # rcu-delay: grace periods stretched while holding the writer mutex
    _spec("churn", 3, "site=rcu.grace,p=1,cycles=5000,max=8"),
    _spec("producer_consumer", 2, "site=rcu.grace,p=1,cycles=10000,max=4"),
    # mixed plans: reneges under oom pressure plus lock-holder stalls
    _spec("storm_oom", 1,
          "site=tbuddy.split,p=0.3,max=6;"
          "site=tbuddy.lock,p=0.02,cycles=1500,max=20"),
    _spec("storm_oom", 3,
          "site=tbuddy.split,p=0.5,max=10;"
          "site=ualloc.new_chunk,p=0.5,max=6;"
          "site=spinlock.hold,p=0.05,cycles=2000"),
    # stall the *baselines'* global locks: spinlock.hold lives in the
    # shared SpinLock, so the same scenarios exercise any backend built
    # on it through the registry
    _spec("churn", 1, "site=spinlock.hold,p=0.05,cycles=3000",
          backend="cuda"),
    _spec("churn", 2, "site=spinlock.hold,p=0.05,cycles=2000",
          backend="lock-buddy"),
    _spec("storm", 7, "site=spinlock.hold,p=0.1,cycles=4000",
          backend="cuda"),
    _spec("producer_consumer", 3,
          "site=spinlock.hold,every=4,cycles=3000", backend="lock-buddy"),
    # the workload scenarios under stalls: tenant and admission ledgers
    # must still reconcile and end leak-free
    _spec("multi_tenant", 2, "site=spinlock.hold,p=0.05,cycles=2000"),
    _spec("multi_tenant", 1, "site=spinlock.hold,p=0.05,cycles=2000",
          backend="cuda"),
    _spec("serve_session", 2, "site=spinlock.hold,p=0.05,cycles=2000"),
]


def run_deck(deck: Sequence[ResilSpec], replay_check: bool = True,
             fail_fast: bool = False,
             log: Optional[Callable[[str], None]] = None,
             workers: int = 1) -> List[ResilResult]:
    """Run every case in ``deck``; returns all results in deck order.

    The deck goes through :func:`repro.par.pool.map_sharded` (``workers``
    as there: ``1`` inline, ``0`` one per CPU).  Every case is
    self-contained (seeded simulator + deterministic fault plan), so
    results are identical at any worker count; ``fail_fast`` ends the
    returned list at the first failure either way.
    """
    return pool.map_sharded(
        functools.partial(run_case, replay_check=replay_check),
        list(deck), workers=workers, log=log,
        stop=(lambda res: not res.ok) if fail_fast else None,
        describe=ResilResult.describe,
    )


def kinds_injected(results: Sequence[ResilResult]) -> Dict[str, int]:
    """Aggregate injected fault counts by kind across results."""
    out: Dict[str, int] = {}
    for res in results:
        for kind, n in res.counts_by_kind.items():
            out[kind] = out.get(kind, 0) + n
    return dict(sorted(out.items()))

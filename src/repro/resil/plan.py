"""Deterministic fault plans: what to break, where, and when.

The allocator's failure-recovery machinery — ``renege`` after a failed
batch allocation (paper §3.3), NULL returns under pool exhaustion,
reserved waiters re-triaging when the expectation collapses — only
fires incidentally under organic pressure.  A :class:`FaultPlan` forces
those paths deterministically: device code yields
:func:`~repro.sim.ops.fault_point` probes at designated *sites*, and a
:class:`FaultInjector` (attached to the scheduler) decides, per
occurrence, whether the site fires.

Sites and their fault kinds
---------------------------

==================  ===========  ==============================================
site                kind         effect when fired
==================  ===========  ==============================================
``tbuddy.alloc``    null-alloc   ``TBuddy.alloc`` returns NULL before triage
                                 (``detail`` = requested order, so a rule can
                                 target one controlled depth)
``tbuddy.split``    renege       the split ascent fails *after* the order
                                 semaphore promised a batch — the failure arm
                                 must ``renege(1)`` (``detail`` = order)
``ualloc.new_chunk``  renege     the chunk allocation fails after the bin
                                 semaphore promised a batch — the failure arm
                                 must ``renege(n_regular_bins - 1)``
``tbuddy.lock``     stall        hold a TBuddy node lock for ``cycles`` extra
                                 cycles (``detail`` = node index)
``spinlock.hold``   stall        hold a :class:`~repro.sync.spinlock.SpinLock`
                                 for ``cycles`` extra cycles
``rcu.grace``       rcu-delay    stretch an RCU grace period by ``cycles``
                                 after the epoch flip (the barrier holder
                                 sleeps while holding the writer mutex)
==================  ===========  ==============================================

Fail-kind sites resume with ``"fail"``; stall-kind sites resume with
``None`` after the scheduler has charged the delay — the site code does
not branch on them.

Determinism and replay
----------------------

Decisions are pure functions of ``(plan, seed, occurrence order)``:
each rule owns a dedicated ``random.Random`` derived from the injector
seed, consumed once per considered occurrence, and occurrence order is
itself deterministic because the simulator is.  Re-running the same
``(scenario, seed, plan)`` therefore reproduces the identical fault
trace byte-for-byte — :meth:`FaultInjector.trace_text` is compared
verbatim by the resil runner's replay check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..verify.perturbation import format_float

#: site name -> (fault kind, human description)
SITES: Dict[str, Tuple[str, str]] = {
    "tbuddy.alloc": (
        "null-alloc",
        "TBuddy alloc returns NULL before triage (detail = order)",
    ),
    "tbuddy.split": (
        "renege",
        "split ascent fails after the batch promise -> renege(1) "
        "(detail = order)",
    ),
    "ualloc.new_chunk": (
        "renege",
        "chunk allocation fails after the bin-sem batch promise -> "
        "renege(n_regular_bins - 1)",
    ),
    "tbuddy.lock": (
        "stall",
        "hold a TBuddy node lock for extra cycles (detail = node)",
    ),
    "spinlock.hold": (
        "stall",
        "hold a SpinLock for extra cycles",
    ),
    "rcu.grace": (
        "rcu-delay",
        "stretch an RCU grace period after the epoch flip",
    ),
}

#: kinds whose effect is a scheduler-applied delay (not a failure arm)
STALL_KINDS = frozenset({"stall", "rcu-delay"})

#: every distinct fault kind a plan can inject
ALL_KINDS = tuple(sorted({kind for kind, _ in SITES.values()}))

_RULE_DEFAULTS = {"p": 1.0, "every": 0, "max": 0, "after": 0,
                  "cycles": 2000, "detail": None}


class FaultPlanError(ValueError):
    """A fault plan or rule spec is malformed."""


@dataclass(frozen=True)
class FaultRule:
    """One injection rule: a site plus a firing schedule.

    Parameters
    ----------
    site:
        One of :data:`SITES`.
    p:
        Firing probability per matching occurrence (ignored when
        ``every`` is set).
    every:
        Fire deterministically on every ``every``-th matching
        occurrence instead of sampling (0 = use ``p``).
    max:
        Cap on total fires (0 = unlimited).
    after:
        Skip the first ``after`` occurrences of the site.
    cycles:
        Stall duration for stall-kind sites (ignored by fail kinds).
    detail:
        If set, only occurrences whose ``detail`` equals this fire —
        e.g. NULL-allocs at one controlled TBuddy order.
    """

    site: str
    p: float = 1.0
    every: int = 0
    max: int = 0
    after: int = 0
    cycles: int = 2000
    detail: Optional[int] = None

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise FaultPlanError(
                f"unknown fault site {self.site!r}; "
                f"choose from {', '.join(sorted(SITES))}"
            )
        if not (0.0 < self.p <= 1.0):
            raise FaultPlanError(f"{self.site}: p must be in (0, 1] (got {self.p})")
        for name in ("every", "max", "after"):
            if getattr(self, name) < 0:
                raise FaultPlanError(f"{self.site}: {name} must be >= 0")
        if self.cycles <= 0:
            raise FaultPlanError(f"{self.site}: cycles must be > 0")

    @property
    def kind(self) -> str:
        """The fault kind this rule injects (derived from the site)."""
        return SITES[self.site][0]

    @property
    def spec(self) -> str:
        """Canonical ``key=value`` spec (defaults omitted)."""
        parts = [f"site={self.site}"]
        for key in ("p", "every", "max", "after", "cycles", "detail"):
            value = getattr(self, key)
            if value != _RULE_DEFAULTS[key]:
                parts.append(f"p={format_float(value)}" if key == "p"
                             else f"{key}={value}")
        return ",".join(parts)

    @classmethod
    def parse(cls, spec: str) -> "FaultRule":
        """Inverse of :attr:`spec`."""
        kwargs: Dict[str, object] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, value = part.partition("=")
            key = key.strip()
            if not sep:
                raise FaultPlanError(f"bad rule item {part!r} (want key=value)")
            if key == "site":
                kwargs["site"] = value.strip()
            elif key == "p":
                kwargs["p"] = float(value)
            elif key in ("every", "max", "after", "cycles", "detail"):
                kwargs[key] = int(value)
            else:
                raise FaultPlanError(f"unknown rule key {key!r}")
        if "site" not in kwargs:
            raise FaultPlanError(f"rule {spec!r} is missing site=")
        return cls(**kwargs)  # type: ignore[arg-type]


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, replayable set of :class:`FaultRule`\\ s."""

    rules: Tuple[FaultRule, ...] = ()

    @property
    def spec(self) -> str:
        """Canonical ``rule;rule;...`` wire format (empty = no faults)."""
        return ";".join(r.spec for r in self.rules)

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Inverse of :attr:`spec`; accepts the empty string."""
        spec = spec.strip()
        if not spec:
            return cls()
        return cls(tuple(FaultRule.parse(part)
                         for part in spec.split(";") if part.strip()))

    @property
    def kinds(self) -> Tuple[str, ...]:
        """Distinct fault kinds this plan can inject, sorted."""
        return tuple(sorted({r.kind for r in self.rules}))

    def __len__(self) -> int:
        return len(self.rules)

    def __bool__(self) -> bool:
        return bool(self.rules)

    def __str__(self) -> str:
        return self.spec or "<no faults>"


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, as recorded in the trace."""

    index: int
    t: int
    tid: int
    site: str
    detail: int
    kind: str
    arg: int  # stall cycles for stall kinds, 0 otherwise

    @property
    def line(self) -> str:
        """Canonical one-line rendering (the replay-compared format)."""
        return (f"#{self.index} t={self.t} tid={self.tid} "
                f"{self.site}[{self.detail}] -> {self.kind}({self.arg})")


class FaultInjector:
    """Binds a :class:`FaultPlan` to a seed; attached to a Scheduler.

    The scheduler calls :meth:`decide` once per executed
    :func:`~repro.sim.ops.fault_point`; every fired fault is appended
    to :attr:`events` with its exact virtual time, forming the
    deterministic fault trace.

    One injector may observe several consecutive ``run()`` phases of
    the same scheduler (occurrence counters persist), but must not be
    shared between schedulers of different cases.
    """

    __slots__ = ("plan", "seed", "events", "_by_site", "_occurrences",
                 "_fired", "_rngs")

    def __init__(self, plan: FaultPlan, seed: int = 0):
        self.plan = plan
        self.seed = seed
        self.events: List[FaultEvent] = []
        self._by_site: Dict[str, List[Tuple[int, FaultRule]]] = {}
        for idx, rule in enumerate(plan.rules):
            self._by_site.setdefault(rule.site, []).append((idx, rule))
        self._occurrences: Dict[str, int] = {}
        self._fired: Dict[int, int] = {}
        self._rngs: Dict[int, random.Random] = {
            idx: random.Random((seed * 0x9E3779B9) ^ (idx + 1))
            for idx in range(len(plan.rules))
        }

    # -- scheduler side -------------------------------------------------
    def decide(self, tid: int, site: str, detail: int,
               t: int) -> Tuple[Optional[str], int]:
        """Decide one fault-point occurrence.

        Returns ``(outcome, delay)``: ``outcome`` is ``"fail"`` or
        ``None`` (sent back to the device code), ``delay`` the stall in
        cycles the scheduler charges before resuming the thread.
        """
        occ = self._occurrences.get(site, 0)
        self._occurrences[site] = occ + 1
        for idx, rule in self._by_site.get(site, ()):
            if rule.detail is not None and detail != rule.detail:
                continue
            if occ < rule.after:
                continue
            if rule.max and self._fired.get(idx, 0) >= rule.max:
                continue
            if rule.every:
                if (occ - rule.after) % rule.every != 0:
                    continue
            elif self._rngs[idx].random() >= rule.p:
                continue
            kind = rule.kind
            stall = kind in STALL_KINDS
            arg = rule.cycles if stall else 0
            self._fired[idx] = self._fired.get(idx, 0) + 1
            self.events.append(FaultEvent(
                index=len(self.events), t=t, tid=tid, site=site,
                detail=detail, kind=kind, arg=arg,
            ))
            return (None, arg) if stall else ("fail", 0)
        return (None, 0)

    # -- host side ------------------------------------------------------
    @property
    def n_injected(self) -> int:
        return len(self.events)

    @property
    def counts_by_kind(self) -> Dict[str, int]:
        """Injected fault counts keyed by kind, sorted by kind."""
        out: Dict[str, int] = {}
        for ev in self.events:
            out[ev.kind] = out.get(ev.kind, 0) + 1
        return dict(sorted(out.items()))

    @property
    def occurrences(self) -> Dict[str, int]:
        """Probe occurrences keyed by site, fired or not, sorted by site."""
        return dict(sorted(self._occurrences.items()))

    def trace_lines(self) -> List[str]:
        return [ev.line for ev in self.events]

    def trace_text(self) -> str:
        """The canonical fault trace; byte-for-byte reproducible for a
        fixed ``(workload, seed, plan)``."""
        return "\n".join(self.trace_lines())

"""Schedule-fuzzing runner: scenarios and cases.

A *scenario* is an allocator torture workload with quiescent phase
checkpoints; a *case* is one scenario executed under one
``(seed, perturbation)`` pair with a :class:`~repro.verify.race.RaceChecker`
attached.  A case fails when

* a simulator or allocator exception escapes (deadlock, heap
  corruption, double free, ...),
* a checkpoint invariant fails (TBuddy tree shape, bulk-semaphore
  accounting ``E == R == 0`` / supply ledgers, list symmetry, leak
  accounting ``host_used_bytes() == 0`` after a full-free phase), or
* the race checker reports any finding.

Every failure carries its replay triple ``scenario:seed:perturbation``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import (Callable, ClassVar, Dict, List, Optional, Sequence, Type,
                    TypeVar)

from .. import backends as backend_registry
from ..bench import workloads
from ..sim.cost_model import DEFAULT_COST_MODEL
from ..sim.device import GPUDevice
from ..sim.errors import EventBudgetExceeded, SimError
from ..sim.memory import DeviceMemory
from ..sim.scheduler import Scheduler
from .perturbation import Perturbation
from .race import RaceChecker, RaceFinding

_NULL = DeviceMemory.NULL

#: livelock guard per case (scheduler events)
EVENT_BUDGET = 30_000_000
#: launch geometry of every kernel-launching scenario
GRID, BLOCK = 2, 32


_Spec = TypeVar("_Spec", bound="ReplaySpec")


class ReplaySpec:
    """The replay grammar ``scenario[@backend]:seed[:payload]``.

    One core for :class:`CaseSpec` and
    :class:`~repro.resil.runner.ResilSpec`: both are frozen dataclasses
    with fields ``(scenario, seed, <payload>, backend)`` and differ only
    in the payload class (anything with a ``.spec`` string and a
    ``.parse`` inverse that maps ``""`` to the empty payload).  Construction validates the scenario and the
    backend; :meth:`parse` also rejects any seed fragment that would
    not print back unchanged, so ``str(parse(s)) == s`` for every
    string this class prints.  The ``@backend`` qualifier is omitted
    for the default (``ours``) so historic replay strings stay valid.
    """

    #: dataclass field holding the payload, and the payload's class
    _payload_field: ClassVar[str]
    _payload_type: ClassVar[type]
    #: what error messages call the spec
    _what: ClassVar[str]

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {self.scenario!r}; "
                f"choose from {', '.join(sorted(SCENARIOS))}"
            )
        try:
            backend_registry.get(self.backend)
        except backend_registry.UnknownBackend as exc:
            raise ValueError(exc.args[0]) from None

    @property
    def replay(self) -> str:
        """``scenario[@backend]:seed:payload`` — the replay argument."""
        scen = self.scenario
        if self.backend != "ours":
            scen = f"{scen}@{self.backend}"
        payload = getattr(self, self._payload_field)
        return f"{scen}:{self.seed}:{payload.spec}"

    def __str__(self) -> str:
        return self.replay

    @classmethod
    def parse(cls: Type[_Spec], replay: str) -> _Spec:
        """Inverse of :attr:`replay`.  Every malformed string raises a
        ``ValueError`` naming it and the grammar."""
        grammar = f"(want scenario[@backend]:seed[:{cls._payload_field}])"

        def bad(why: str) -> ValueError:
            return ValueError(f"bad {cls._what} {replay!r}: {why} {grammar}")

        parts = replay.split(":", 2)
        if len(parts) < 2:
            raise bad("missing ':seed'")
        scenario, seed_text = parts[0], parts[1]
        try:
            seed = int(seed_text)
        except ValueError:
            raise bad(f"seed {seed_text!r} is not an integer") from None
        if seed_text != str(seed):
            # ` 3`, `+3`, `1_0`, `٣` all parse as ints but would print
            # back as a different string than the one replayed.
            raise bad(f"seed {seed_text!r} is not written as {str(seed)!r}")
        backend = "ours"
        if "@" in scenario:
            scenario, backend = scenario.split("@", 1)
        if not scenario or not backend:
            raise bad(f"empty {'scenario' if not scenario else 'backend'} "
                      "fragment")
        try:
            payload = cls._payload_type.parse(parts[2] if len(parts) == 3
                                              else "")
            return cls(scenario, seed, payload, backend)
        except ValueError as exc:
            raise bad(str(exc)) from None


@dataclass(frozen=True)
class CaseSpec(ReplaySpec):
    """One replayable verification case."""

    scenario: str
    seed: int
    perturbation: Perturbation = Perturbation()
    #: registry name of the allocator under test (scenarios drive the
    #: uniform BackendHandle, so any registered backend fits)
    backend: str = "ours"

    _payload_field = "perturbation"
    _payload_type = Perturbation
    _what = "replay spec"


@dataclass
class CaseResult:
    """Outcome of one executed case."""

    spec: CaseSpec
    error: Optional[str] = None
    findings: List[RaceFinding] = field(default_factory=list)
    #: True when the failure is the EVENT_BUDGET livelock guard tripping,
    #: not a protocol violation — a budget artifact must not be chased
    #: by the explorer or accepted by the shrinker as "the same bug".
    budget_exhausted: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None and not self.findings

    @property
    def kind(self) -> str:
        """``"pass"``, ``"budget"`` (event-budget exhaustion) or
        ``"protocol"`` (invariant / race / simulator failure)."""
        if self.ok:
            return "pass"
        # Race findings are protocol violations even if the run *also*
        # tripped the budget; only a bare budget trip classifies as one.
        return "budget" if (self.budget_exhausted and not self.findings) \
            else "protocol"

    def describe(self) -> str:
        if self.ok:
            return f"PASS {self.spec}"
        tag = " [budget-exhausted]" if self.budget_exhausted else ""
        lines = [f"FAIL{tag} {self.spec}"]
        if self.error:
            lines.append(f"  error: {self.error}")
        lines += [f"  {f}" for f in self.findings]
        return "\n".join(lines)


# ----------------------------------------------------------------------
# scenario harness
# ----------------------------------------------------------------------
class _Harness:
    """Allocator + scheduler wired to one case's knobs and checker.

    The allocator is resolved by backend name through
    :mod:`repro.backends`; scenarios speak to ``self.handle`` (the
    uniform :class:`~repro.backends.BackendHandle`), so the same torture
    deck runs against any registered design.  ``self.alloc`` remains
    the raw allocator object for backend-specific hooks (mutation
    tests, the resil runner's tree asserts).
    """

    def __init__(self, seed: int, perturbation: Perturbation,
                 checker: Optional[RaceChecker], pool_order: int,
                 fault_injector: object = None, backend: str = "ours",
                 probe: Optional[Callable[[tuple], None]] = None):
        cost, jitter = perturbation.apply(DEFAULT_COST_MODEL)
        self.mem = DeviceMemory(16 << 20)
        self.device = GPUDevice(num_sms=4, max_resident_blocks=2)
        self.backend = backend_registry.get(backend)
        self.handle = self.backend.build(
            self.mem, self.device, 4096 << pool_order
        )
        self.alloc = self.handle.allocator
        self.cfg = getattr(self.alloc, "cfg", None)
        self.sched = Scheduler(
            self.mem, self.device, cost, seed=seed,
            tracer=checker, dispatch_jitter=jitter,
            fault_injector=fault_injector,
            steer=perturbation.steer,
            schedule_probe=probe,
        )
        self.checker = checker
        if checker is not None and self.handle.caps.race_checkable:
            checker.watch_allocator(self.alloc)

    def run(self) -> None:
        self.sched.run(max_events=EVENT_BUDGET)

    def checkpoint(self, expect_leak_free: bool = False) -> None:
        """Quiescent phase checkpoint: full invariant validation plus
        (optionally) leak accounting, then checker reset."""
        self.handle.host_checkpoint(expect_leak_free=expect_leak_free)
        if self.checker is not None:
            self.checker.quiesce()


def _free_by_tid(alloc, ptr_lists, base: int):
    """Kernel: thread ``tid`` frees every pointer in
    ``ptr_lists[tid - base]`` (tids are global across the scheduler's
    launches, so the follow-up launch starts at ``base``)."""

    def kernel(ctx):
        for p in ptr_lists[ctx.tid - base]:
            if p != _NULL:
                yield from alloc.free(ctx, p)

    return kernel


# ----------------------------------------------------------------------
# scenarios
# ----------------------------------------------------------------------
def _storm(h: _Harness, sizes: Sequence[int], must_exhaust: bool) -> None:
    """Malloc storm -> checkpoint -> free storm -> leak-free checkpoint.

    NULL results (pool pressure) are recorded and skipped by the free
    phase.  ``must_exhaust`` asserts that some malloc did fail, so the
    storm reached the pool's failure paths.
    """
    kernel, _ = workloads.malloc_storm(h.handle, *sizes)
    launched = h.sched.launch(kernel, grid=GRID, block=BLOCK)
    h.run()
    h.checkpoint()
    ptrs = launched.results
    if must_exhaust:
        assert any(p == _NULL for got in ptrs for p in got), (
            "storm_oom did not exhaust the pool; shrink pool_order or grow "
            "the request mix so the renege paths are actually exercised"
        )
    h.sched.launch(_free_by_tid(h.handle, ptrs, GRID * BLOCK),
                   grid=GRID, block=BLOCK)
    h.run()
    h.checkpoint(expect_leak_free=True)


def _churn(h: _Harness) -> None:
    """Steady-state malloc/hold/free churn (bin fill/drain, retirement,
    merge traffic), ending leak-free by construction."""
    kernel, _ = workloads.churn(h.handle.malloc, h.handle.free,
                                sizes=(8, 32, 128, 512), iters=4, hold=400)
    h.sched.launch(kernel, grid=GRID, block=BLOCK)
    h.run()
    h.checkpoint(expect_leak_free=True)


def _producer_consumer(h: _Harness) -> None:
    """Cross-arena free traffic: producers on some SMs allocate and
    publish, consumers on others free (the paper's free-anywhere path)."""
    kernel, mailbox = workloads.producer_consumer(
        h.handle, size=48, slots=8, mem=h.mem, iters=3
    )
    h.sched.launch(kernel, grid=GRID, block=BLOCK)
    h.run()
    for i in range(8):
        slot = h.mem.load_word(mailbox + 8 * i)
        assert slot == 0, f"mailbox slot {i} still holds {slot:#x} after the run"
    h.checkpoint(expect_leak_free=True)


def _check_replay_accounting(trace, stats, totals) -> None:
    """Per-tenant stats must reconcile exactly with the replayed trace:
    every recorded event is accounted to its tenant, failures and
    completions partition the stream, and nothing is double-counted."""
    from ..workloads.trace import validate as validate_trace

    summary = validate_trace(trace)
    assert totals.n_malloc == summary["mallocs"], (
        f"{totals.n_malloc} mallocs accounted vs {summary['mallocs']} "
        "recorded: per-tenant accounting lost calls"
    )
    assert totals.n_free + totals.n_free_skipped == summary["frees"], (
        f"{totals.n_free} frees + {totals.n_free_skipped} skipped vs "
        f"{summary['frees']} recorded"
    )
    assert totals.n_free_skipped == totals.n_malloc_failed, (
        "a balanced trace must skip exactly one free per failed malloc "
        f"(skipped {totals.n_free_skipped}, failed {totals.n_malloc_failed})"
    )
    for t, st in stats.items():
        assert st.n_malloc == summary["mallocs_per_tenant"][t], (
            f"tenant {t}: {st.n_malloc} mallocs accounted vs "
            f"{summary['mallocs_per_tenant'][t]} recorded"
        )
        assert st.bytes_served <= st.bytes_requested, (
            f"tenant {t}: served {st.bytes_served} > requested "
            f"{st.bytes_requested}"
        )


def _replay_trace_scenario(h: _Harness, trace, lanes: int) -> None:
    """Shared tail of the workload scenarios: replay, reconcile the
    per-tenant accounting, cross-check the allocator's own AllocStats
    (paper backend only), and end with a leak-free checkpoint."""
    from ..workloads.replay import TenantStats, replay_on_scheduler

    stats, _ = replay_on_scheduler(h.sched, h.handle, trace,
                                   lanes_per_tenant=lanes,
                                   max_events=EVENT_BUDGET)
    totals = TenantStats.total(stats.values())
    _check_replay_accounting(trace, stats, totals)
    alloc_stats = getattr(h.alloc, "stats", None)
    if alloc_stats is not None:
        # The allocator's own counters and the tenant ledgers describe
        # the same call stream from two vantage points; they must agree.
        assert alloc_stats.n_malloc == totals.n_malloc, (
            f"AllocStats saw {alloc_stats.n_malloc} mallocs, tenant "
            f"ledgers {totals.n_malloc}"
        )
        assert alloc_stats.n_malloc_failed == totals.n_malloc_failed, (
            f"AllocStats saw {alloc_stats.n_malloc_failed} failures, "
            f"tenant ledgers {totals.n_malloc_failed}"
        )
        assert alloc_stats.n_free == totals.n_free, (
            f"AllocStats saw {alloc_stats.n_free} frees, tenant ledgers "
            f"{totals.n_free}"
        )
    h.checkpoint(expect_leak_free=True)


def _multi_tenant(h: _Harness) -> None:
    """Multi-tenant Zipfian contention: skewed per-tenant rates and size
    mixes over one pool, replayed across two lanes per tenant (frees can
    cross lanes), with exact per-tenant accounting and a leak-free end."""
    from ..workloads import families as workload_families

    trace = workload_families.generate(
        "multi_tenant_zipf", h.sched.seed,
        events=160, tenants=4, mean_gap=60,
    )
    _replay_trace_scenario(h, trace, lanes=2)


def _trace_replay(h: _Harness) -> None:
    """Recorded-trace replay: the bundled recorded request stream drives
    the backend under schedule fuzzing (the trace is fixed data; the
    seed/perturbation vary the interleaving around it)."""
    from ..workloads.trace import load_bundled

    _replay_trace_scenario(h, load_bundled("mt_small"), lanes=1)


def _serve_session(h: _Harness) -> None:
    """Served session: the allocator-as-a-service engine drives the
    backend over the harness scheduler — admission control, episode
    batching and the skipped-free protocol all under schedule fuzzing,
    ending with the same exact-accounting and leak-free contract as the
    replay scenarios (AllocStats cross-check deliberately omitted:
    admission rejects never reach the allocator)."""
    from ..serve.bench import feed_trace
    from ..serve.engine import ServeEngine
    from ..workloads import families as workload_families

    trace = workload_families.generate(
        "multi_tenant_zipf", h.sched.seed,
        events=120, tenants=3, mean_gap=60,
    )
    engine = ServeEngine(sched=h.sched, handle=h.handle)
    feed_trace(engine, trace, batch_max=16)
    _check_replay_accounting(trace, engine.stats, engine.totals())
    assert engine.live_allocations == 0, (
        f"balanced trace left {engine.live_allocations} served "
        "allocation(s) live"
    )
    h.checkpoint(expect_leak_free=True)


#: scenario name -> (builder kwargs for _Harness, scenario function)
SCENARIOS: Dict[str, tuple] = {
    # UAlloc classes plus one TBuddy-routed coarse size, so both
    # allocators and the chunk path are live at once
    "storm": ({"pool_order": 9},
              partial(_storm, sizes=(16, 64, 256, 1024, 8192),
                      must_exhaust=False)),
    "churn": ({"pool_order": 8}, _churn),
    "producer_consumer": ({"pool_order": 8}, _producer_consumer),
    # a deliberately undersized pool drives the batch-promise failure
    # paths (``renege``) in UAlloc's chunk/bin stages and TBuddy's split
    # ascent; the final checkpoint's ``E == R == 0`` proves every failed
    # promise was undone
    "storm_oom": ({"pool_order": 7},
                  partial(_storm, sizes=(1024, 1024, 8192),
                          must_exhaust=True)),
    "multi_tenant": ({"pool_order": 8}, _multi_tenant),
    "trace_replay": ({"pool_order": 8}, _trace_replay),
    "serve_session": ({"pool_order": 8}, _serve_session),
}


# ----------------------------------------------------------------------
# case execution
# ----------------------------------------------------------------------
def run_case(spec: CaseSpec, check_races: bool = True,
             allocator_hook: Optional[Callable] = None,
             probe: Optional[Callable[[tuple], None]] = None) -> CaseResult:
    """Execute one case; never raises for verification failures.

    ``allocator_hook(harness)`` runs after setup — mutation tests use it
    to sabotage the allocator under an otherwise identical case.
    ``probe`` attaches a scheduler state-digest hook (see
    :meth:`~repro.sim.scheduler.Scheduler.state_digest`); the
    exploration engine records schedule coverage through it.

    An :class:`~repro.sim.errors.EventBudgetExceeded` trip is classified
    as a *budget* outcome (``result.budget_exhausted``), distinct from
    protocol failures: the livelock guard firing says nothing about the
    allocator's invariants, and downstream consumers (explorer,
    shrinker) must not chase it as one.
    """
    harness_kwargs, scenario = SCENARIOS[spec.scenario]
    checker = RaceChecker() if check_races else None
    result = CaseResult(spec)
    try:
        h = _Harness(spec.seed, spec.perturbation, checker,
                     backend=spec.backend, probe=probe, **harness_kwargs)
        if allocator_hook is not None:
            allocator_hook(h)
        scenario(h)
    except EventBudgetExceeded as exc:
        result.error = f"{type(exc).__name__}: {exc}"
        result.budget_exhausted = True
    except (SimError, AssertionError) as exc:
        result.error = f"{type(exc).__name__}: {exc}"
    if checker is not None:
        result.findings = list(checker.findings)
    return result

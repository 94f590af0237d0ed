"""Coverage-guided schedule-space exploration.

A fixed grid of seeds x perturbations has no notion of which
*schedules* it actually visited: two grid cells frequently collapse onto
the same interleaving, and the interesting corners of the schedule space
(renege storms on a contended bulk semaphore, TBuddy lock convoys, RCU
grace windows) are reached only by luck.  This module replaces luck with
feedback, simsched-style:

1. Every explored case runs with the scheduler's
   :meth:`~repro.sim.scheduler.Scheduler.state_digest` probe attached,
   producing a digest trace — an abstraction of the schedule the run
   took (pending-event multiset, parked set, contended sync words).
2. The trace is hash-chained into *schedule-prefix* hashes.  The full
   chain identifies the (abstract) schedule; each link identifies a
   schedule-tree node.  Coverage is reported as **distinct schedules
   visited**, not raw case count.
3. A LoopController-style loop keeps a corpus of specs scored by how
   much new coverage they found and how *interesting* their states were
   (peak same-word convoy depth, the digest's contention signal), and
   mutates high-energy parents: minting a fresh ``steer`` salt (a new
   deterministic dispatch phasing — the cheapest new-interleaving
   lever), bending a timing knob, dropping one, or re-seeding.

Every explored case is an ordinary :class:`~repro.verify.runner.CaseSpec`
— the steering decision rides in the perturbation's ``steer`` knob — so
failures replay with ``python -m repro verify --replay`` and shrink with
:func:`~repro.verify.shrink.shrink_case`, unchanged.

Budget-exhausted cases (:attr:`CaseResult.budget_exhausted`) are
reported separately and never enter the corpus: a livelock-guard trip
is an artifact of the budget, not a protocol violation to chase.

Entry point: ``python -m repro verify`` (see ``--help``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional, Sequence,
                    Set, Tuple)

from ..sim.scheduler import PROBE_EVERY
from .perturbation import STEER_KNOB, Perturbation
from .runner import SCENARIOS, CaseResult, CaseSpec, run_case

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1

#: cap on perturbation size the mutator will grow a spec to (shrinkable,
#: replayable reproducers; unbounded stacks of knobs explain nothing)
MAX_KNOBS = 4

#: candidates generated (and run) per steering round.  A constant —
#: independent of ``--workers`` — so the explored sequence, coverage and
#: failures are identical no matter how the batch is sharded.
BATCH = 4

#: timing-knob mutation catalog: knob -> candidate values.  Values stay
#: within 8x so mutated cases cannot blow the event budget by
#: construction.
MUTATION_KNOBS: Dict[str, Tuple[float, ...]] = {
    "atomic_latency": (0.25, 2.0, 4.0, 8.0),
    "atomic_service": (0.25, 2.0, 4.0, 8.0),
    "load_latency": (0.25, 2.0, 4.0),
    "store_latency": (0.25, 4.0, 8.0),
    "yield_cost": (0.25, 0.5, 4.0),
    "step_cost": (0.25, 4.0),
    "block_dispatch": (0.25, 4.0),
    "jitter": (64.0, 256.0, 512.0, 1024.0),
}
_MUTATION_KNOB_NAMES = tuple(sorted(MUTATION_KNOBS))


def _fold(h: int, v: int) -> int:
    return ((h ^ (v & _MASK64)) * _FNV_PRIME) & _MASK64


def _fold_str(h: int, s: str) -> int:
    for b in s.encode():
        h = _fold(h, b)
    return h


class DigestTrace:
    """Schedule-probe collector: digest sequence + peak contention."""

    __slots__ = ("digests", "peak_contention")

    def __init__(self) -> None:
        self.digests: List[int] = []
        self.peak_contention = 0

    def __call__(self, state: tuple) -> None:
        digest, contended = state
        self.digests.append(digest)
        if contended > self.peak_contention:
            self.peak_contention = contended


@dataclass
class ExploreOutcome:
    """A probed case execution: result + schedule identity."""

    spec: CaseSpec
    result: CaseResult
    #: hash chain over the digest trace; element k identifies the
    #: schedule prefix up to probe k (a schedule-tree node)
    prefixes: Tuple[int, ...]
    #: identity of the full (abstract) schedule this run took
    schedule: int
    peak_contention: int


def run_probed(spec: CaseSpec) -> ExploreOutcome:
    """Execute one case with the digest probe attached.

    Module-level so ``--workers`` sharding can pickle it; the probe is
    created here, inside the worker.  A failing case's trace is simply
    truncated at the failure point — the prefix chain still credits the
    schedule walked up to it.
    """
    trace = DigestTrace()
    result = run_case(spec, probe=trace)
    # Seed the chain with the case identity axes that change what a
    # digest *means* (scenario workload, backend layout, probe cadence)
    # so prefix/schedule hashes never collide across them.  The cadence
    # is the constant PROBE_EVERY; folding it keeps recorded hashes valid.
    h = _fold_str(_FNV_OFFSET, spec.scenario)
    h = _fold_str(h, spec.backend)
    h = _fold(h, PROBE_EVERY)
    prefixes = []
    for d in trace.digests:
        h = _fold(h, d)
        prefixes.append(h)
    schedule = _fold(h, len(prefixes))
    return ExploreOutcome(
        spec=spec,
        result=result,
        prefixes=tuple(prefixes),
        schedule=schedule,
        peak_contention=trace.peak_contention,
    )


class ScheduleCoverage:
    """The visited schedule-tree: prefix nodes and complete schedules."""

    def __init__(self) -> None:
        self.prefixes: Set[int] = set()
        self.schedules: Set[int] = set()

    def observe(self, out: ExploreOutcome) -> Tuple[int, bool]:
        """Fold one outcome in; returns ``(new_prefixes, new_schedule)``."""
        fresh = set(out.prefixes) - self.prefixes
        self.prefixes.update(fresh)
        new_schedule = out.schedule not in self.schedules
        self.schedules.add(out.schedule)
        return len(fresh), new_schedule


@dataclass
class ExploreReport:
    """Outcome of one exploration session."""

    cases: int
    distinct_schedules: int
    distinct_prefixes: int
    peak_contention: int
    failures: List[CaseResult] = field(default_factory=list)
    budget_failures: List[CaseResult] = field(default_factory=list)
    scenarios: Sequence[str] = ()
    backend: str = "ours"

    @property
    def coverage_per_case(self) -> float:
        return self.distinct_schedules / self.cases if self.cases else 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def observe(self, out: ExploreOutcome,
                coverage: ScheduleCoverage) -> Tuple[int, bool]:
        """Count one outcome: coverage, peak convoy depth and the
        protocol/budget failure split.  Returns ``(new_prefixes,
        new_schedule)``."""
        self.cases += 1
        novel, new_schedule = coverage.observe(out)
        if out.peak_contention > self.peak_contention:
            self.peak_contention = out.peak_contention
        res = out.result
        if not res.ok:
            if res.kind == "budget":
                self.budget_failures.append(res)
            else:
                self.failures.append(res)
        return novel, new_schedule

    def describe(self) -> str:
        lines = [
            f"explore: {self.cases} case(s) over "
            f"{len(self.scenarios)} scenario(s) on backend "
            f"'{self.backend}'",
            f"  coverage: {self.distinct_schedules} distinct schedule(s) "
            f"({self.coverage_per_case:.2f}/case), "
            f"{self.distinct_prefixes} distinct prefix state(s)",
            f"  peak same-word convoy depth: {self.peak_contention}",
            f"  failures: {len(self.failures)} protocol, "
            f"{len(self.budget_failures)} budget-exhausted",
        ]
        for res in self.failures + self.budget_failures:
            lines.append(res.describe())
            lines.append(
                f"  replay: python -m repro verify --replay "
                f"'{res.spec.replay}'"
            )
        return "\n".join(lines)


@dataclass
class _CorpusEntry:
    spec: CaseSpec
    energy: float
    picks: int = 0


class Explorer:
    """LoopController-style coverage-guided exploration session.

    Fully deterministic in ``(scenarios, budget, backend,
    master_seed)``: steering draws come from an owned
    :class:`random.Random`, fresh ``steer`` salts from a counter, and
    rounds are a fixed :data:`BATCH` wide regardless of ``workers`` —
    sharding parallelizes a round, never reshapes it, so coverage and
    failures are identical at any ``--workers``.
    """

    #: corpus size cap: beyond this, the lowest-energy entry is evicted
    CORPUS_CAP = 64

    def __init__(
        self,
        scenarios: Optional[Sequence[str]] = None,
        budget: int = 64,
        backend: str = "ours",
        master_seed: int = 0,
        workers: int = 1,
    ) -> None:
        names = list(scenarios) if scenarios else sorted(SCENARIOS)
        for name in names:
            if name not in SCENARIOS:
                raise ValueError(
                    f"unknown scenario {name!r}; "
                    f"choose from {', '.join(sorted(SCENARIOS))}"
                )
        if budget < 1:
            raise ValueError(f"budget must be >= 1 (got {budget})")
        if workers < 0:
            raise ValueError(f"workers must be >= 0 (got {workers})")
        self.scenarios = names
        self.budget = budget
        self.backend = backend
        self.workers = workers
        self._rng = random.Random(0x5EED ^ (master_seed * 0x9E3779B1))
        self._salt = 0
        self._seen: Set[str] = set()
        self._corpus: List[_CorpusEntry] = []

    # ------------------------------------------------------------------
    # steering decisions
    # ------------------------------------------------------------------
    def _fresh_salt(self) -> float:
        self._salt += 1
        return float(self._salt)

    def _with_knob(self, pert: Perturbation, name: str,
                   value: float) -> Perturbation:
        items = tuple((n, v) for n, v in pert.items if n != name)
        if len(items) >= MAX_KNOBS:
            # evict a deterministic victim so specs stay shrinkable
            victim = self._rng.choice([n for n, _ in items])
            items = tuple((n, v) for n, v in items if n != victim)
        return Perturbation(items + ((name, value),))

    def _mutate(self, spec: CaseSpec) -> CaseSpec:
        """One steering decision: derive a new candidate from a parent."""
        rng = self._rng
        pert = spec.perturbation
        r = rng.random()
        if r < 0.50:
            # fresh steer salt: a new dispatch phasing of the same case
            pert = self._with_knob(pert, STEER_KNOB, self._fresh_salt())
            return replace(spec, perturbation=pert)
        if r < 0.75:
            name = rng.choice(_MUTATION_KNOB_NAMES)
            value = rng.choice(MUTATION_KNOBS[name])
            return replace(spec,
                           perturbation=self._with_knob(pert, name, value))
        if r < 0.85 and len(pert):
            name = rng.choice([n for n, _ in pert.items])
            return replace(spec, perturbation=pert.without(name))
        return replace(spec, seed=rng.randrange(1 << 16))

    def _pick_parent(self) -> _CorpusEntry:
        entries = self._corpus
        weights = [e.energy / (1.0 + e.picks) for e in entries]
        total = sum(weights)
        x = self._rng.random() * total
        for entry, w in zip(entries, weights):
            x -= w
            if x <= 0:
                return entry
        return entries[-1]

    def _next_spec(self) -> Tuple[CaseSpec, _CorpusEntry]:
        parent = self._pick_parent()
        parent.picks += 1
        for _ in range(8):
            cand = self._mutate(parent.spec)
            if cand.replay not in self._seen:
                self._seen.add(cand.replay)
                return cand, parent
        # mutation kept landing on visited specs: force a fresh salt,
        # which is unvisited by construction
        cand = replace(
            parent.spec,
            perturbation=self._with_knob(parent.spec.perturbation,
                                         STEER_KNOB, self._fresh_salt()),
        )
        self._seen.add(cand.replay)
        return cand, parent

    # ------------------------------------------------------------------
    # the exploration loop
    # ------------------------------------------------------------------
    def _observe(self, out: ExploreOutcome, parent: Optional[_CorpusEntry],
                 coverage: ScheduleCoverage,
                 report: ExploreReport) -> Tuple[int, bool]:
        novel, new_schedule = report.observe(out, coverage)
        if not out.result.ok:
            return novel, new_schedule
        # weighted steering: novelty (schedule-tree growth) plus the
        # "interesting state" bonus for contended sync words.  Round-0
        # specs (parent is None) were pre-seeded into the corpus.
        if new_schedule and parent is not None:
            energy = (
                1.0
                + 4.0 * (novel / max(1, len(out.prefixes)))
                + 0.25 * out.peak_contention
            )
            self._corpus.append(_CorpusEntry(out.spec, energy))
            if len(self._corpus) > self.CORPUS_CAP:
                victim = min(range(len(self._corpus)),
                             key=lambda i: self._corpus[i].energy)
                del self._corpus[victim]
        if parent is not None:
            if novel:
                parent.energy += 0.5
            else:
                parent.energy *= 0.7  # decay dead-end parents
        return novel, new_schedule

    def run(self, log: Optional[Callable[[str], None]] = None) -> ExploreReport:
        from ..par.pool import resolve_workers, shard_pool

        # One pool per session, forked here rather than in __init__, so
        # its workers run the code the parent has when the session
        # starts; past BATCH workers, the extra children would sit idle.
        with shard_pool(min(resolve_workers(self.workers), BATCH)) as pool:
            return self._run(pool, log)

    def _run(self, pool: Optional[ProcessPoolExecutor],
             log: Optional[Callable[[str], None]]) -> ExploreReport:
        from ..par.pool import map_sharded

        coverage = ScheduleCoverage()
        report = ExploreReport(
            cases=0, distinct_schedules=0, distinct_prefixes=0,
            peak_contention=0, scenarios=self.scenarios,
            backend=self.backend,
        )
        # round 0: the baseline corpus — every scenario at its first
        # seeds, unperturbed (these anchor the schedule tree's trunk)
        initial = [
            CaseSpec(name, seed, Perturbation(), self.backend)
            for seed in (0, 1) for name in self.scenarios
        ][: self.budget]
        for spec in initial:
            self._seen.add(spec.replay)
            self._corpus.append(_CorpusEntry(spec, 1.0))
        queue: List[Tuple[CaseSpec, Optional[_CorpusEntry]]] = [
            (spec, None) for spec in initial
        ]
        while report.cases < self.budget:
            if not queue:
                remaining = self.budget - report.cases
                for _ in range(min(BATCH, remaining)):
                    queue.append(self._next_spec())
            batch = queue[:BATCH]
            queue = queue[BATCH:]
            outcomes = map_sharded(run_probed, [spec for spec, _ in batch],
                                   workers=self.workers, pool=pool)
            for (spec, parent), out in zip(batch, outcomes):
                novel, new_schedule = self._observe(
                    out, parent, coverage, report)
                if log is not None:
                    mark = "+" if new_schedule else "="
                    log(f"  [{report.cases}/{self.budget}] {mark} "
                        f"{out.result.describe().splitlines()[0]}"
                        f" (prefixes +{novel}, convoy {out.peak_contention})")
        report.distinct_schedules = len(coverage.schedules)
        report.distinct_prefixes = len(coverage.prefixes)
        return report


def explore(
    scenarios: Optional[Sequence[str]] = None,
    budget: int = 64,
    backend: str = "ours",
    master_seed: int = 0,
    workers: int = 1,
    log: Optional[Callable[[str], None]] = None,
) -> ExploreReport:
    """Run one coverage-guided exploration session (see :class:`Explorer`)."""
    return Explorer(
        scenarios=scenarios, budget=budget, backend=backend,
        master_seed=master_seed, workers=workers,
    ).run(log=log)

"""Pass-based workloads: the two bench decks and schedule exploration.

A pass is a fixed amount of work, identical on every commit: a list of
parts (calls into ``repro.bench``) or one ``explore`` session per verify
scenario.  Each pass returns its part walls, the reference kernel's
times around each part (``reference.py``), shape checks and virtual
metrics; the virtual metrics are deterministic in the seed, so two
passes with one seed must agree exactly, traced or not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple


@dataclass
class PassResult:
    #: host seconds, the sum of ``parts``
    wall_s: float
    #: part name -> host seconds
    parts: Dict[str, float]
    #: check name -> passed
    checks: Dict[str, bool]
    #: deterministic metrics; None when a part raised
    virtual: Optional[Dict[str, float]]
    #: attempted operations and how many failed (explore: cases)
    attempted: int = 0
    failed: int = 0
    #: :meth:`layers.Recorder.export` of the pass
    spans: dict = field(default_factory=dict)
    #: :func:`reference.seconds` before the first part and after each
    refs: List[float] = field(default_factory=list)

    @property
    def scaled_s(self) -> float:
        """The pass's host seconds at nominal host speed."""
        import reference

        return reference.scaled(list(self.parts.values()), self.refs)


def _geomean(values: List[float]) -> float:
    from repro.bench.reporting import geometric_mean

    return geometric_mean(values)


# ----------------------------------------------------------------------
# alloc_churn: allocator core, baselines, singleton events
# ----------------------------------------------------------------------
def alloc_churn_parts(seed: int, smoke: bool) -> List[Tuple[str, Callable]]:
    from repro.backends import names
    from repro.bench import ablations, fig7, shootout

    sizes = (64, 4096) if smoke else (64, 4096, 65536)
    max_threads = 1024 if smoke else 65536
    nthreads = 128 if smoke else 512
    buddy = (64, 128) if smoke else (64, 256)
    roster = tuple(names())
    return [
        ("fig7", lambda: fig7.run(sizes=sizes, seed=seed,
                                  max_threads=max_threads)),
        ("shootout", lambda: shootout.run(nthreads=nthreads, iters=1,
                                          which=roster, seed=seed)),
        ("ablation_buddy", lambda: ablations.run_buddy_ablation(
            buddy, seed=seed)),
    ]


def alloc_churn_judge(res: dict) -> Tuple[Dict[str, bool], Dict[str, float]]:
    from repro.backends import get

    f7, so, ab = res["fig7"], res["shootout"], res["ablation_buddy"]
    ours = {p.size: p for p in f7.points if p.allocator == "ours"}
    cuda = {p.size: p for p in f7.points if p.allocator == "cuda"}
    by = {p.name: p for p in so.points}
    so_ours, so_cuda = by[get("ours").display], by[get("cuda").display]
    tbuddy, lock_buddy = ab.tbuddy.ys[-1], ab.lock_buddy.ys[-1]
    checks = {
        "fig7.ours_beats_cuda_64B":
            ours[64].throughput > cuda[64].throughput,
        "fig7.buddy_sizes_never_fail":
            all(p.failed == 0 for s, p in ours.items() if s >= 4096),
        "shootout.ours_and_cuda_never_fail":
            so_ours.failures == 0 and so_cuda.failures == 0,
        "shootout.ours_beats_cuda": so_ours.throughput > so_cuda.throughput,
        "ablation_buddy.tbuddy_beats_lock_buddy": tbuddy > lock_buddy,
    }
    virtual = {
        "alloc_ops_per_s": _geomean(
            [p.throughput for p in ours.values()]
            + [so_ours.throughput, tbuddy]),
        "speedup_gmean": _geomean([
            f7.mean_speedup(), so_ours.throughput / so_cuda.throughput,
            tbuddy / lock_buddy]),
    }
    return checks, virtual


# ----------------------------------------------------------------------
# sync_cohort: sync primitives, barrier- and warp-phased cohorts
# ----------------------------------------------------------------------
def sync_cohort_parts(seed: int, smoke: bool) -> List[Tuple[str, Callable]]:
    from repro.bench import ablations, fig5, fig6, lockstep

    fig5_threads = (256, 1024) if smoke else (1024, 4096)
    fig6_targets = (512,) if smoke else (2048,)
    lock_threads, rounds = (512, 4) if smoke else (4096, 24)
    coll = (64, 128) if smoke else (64, 256)
    return [
        ("fig5", lambda: fig5.run(fig5_threads, seed=seed)),
        ("fig6", lambda: fig6.run((32, 128), fig6_targets, seed=seed)),
        ("lockstep", lambda: lockstep.run(lock_threads, rounds=rounds,
                                          plain_rounds=3, seed=seed)),
        ("ablation_collective", lambda: ablations.run_collective_ablation(
            coll, seed=seed)),
    ]


def sync_cohort_judge(res: dict) -> Tuple[Dict[str, bool], Dict[str, float]]:
    f5, f6, ls, co = (res["fig5"], res["fig6"], res["lockstep"],
                      res["ablation_collective"])
    bulk, counting = f5.bulk.ys[-1], f5.counting.ys[-1]
    coll, plain = co.collective.ys[-1], co.plain.ys[-1]
    speedups = [p.speedup for p in f6.points]
    checks = {
        "fig5.bulk_beats_counting": bulk > counting,
        # paper: delegation costs at most about 1 % where it cannot help;
        # at 2,048 threads it need not win (both configurations measured
        # 0.99 on some seeds), so only its cost is checked
        "fig6.delegation_never_costs_much": min(speedups) > 0.85,
        "lockstep.coalesced_beats_plain": ls.speedup > 1.0,
        "ablation_collective.collective_beats_plain": coll > plain,
    }
    virtual = {
        "alloc_ops_per_s": 0.0,
        "speedup_gmean": _geomean([
            bulk / counting, _geomean(speedups), ls.speedup, coll / plain]),
    }
    return checks, virtual


#: deck workload -> (parts builder, judge)
DECKS = {
    "alloc_churn": (alloc_churn_parts, alloc_churn_judge),
    "sync_cohort": (sync_cohort_parts, sync_cohort_judge),
}


def run_deck_pass(parts: List[Tuple[str, Callable]], judge: Callable,
                  probe: Callable[[], float]) -> PassResult:
    """Run every part once, calling ``probe`` before the first part and
    after each; a part that raises fails the pass's checks."""
    walls: Dict[str, float] = {}
    results: dict = {}
    checks: Dict[str, bool] = {}
    refs = [probe()]
    for name, fn in parts:
        t = perf_counter()
        try:
            results[name] = fn()
        except Exception as exc:  # a broken part is a failed check
            checks[f"{name}.completed ({type(exc).__name__}: {exc})"] = False
        walls[name] = perf_counter() - t
        refs.append(probe())
    virtual = None
    if not checks:
        checks, virtual = judge(results)
    return PassResult(sum(walls.values()), walls, checks, virtual,
                      attempted=len(checks),
                      failed=sum(not ok for ok in checks.values()),
                      refs=refs)


# ----------------------------------------------------------------------
# verify_explore: the traced run loop, digest probes, repro.par
# ----------------------------------------------------------------------
EXPLORE_WORKERS = 2


def explore_budget(smoke: bool) -> int:
    """Cases per scenario and pass.  Every scenario gets the same budget:
    one session over all of them steers into a seed-dependent mix, and
    its cases differ sevenfold in cost (``storm_oom`` against the list
    scenarios), so whole-session walls ranged 2.4x across seeds."""
    return 2 if smoke else 9


def run_explore_pass(seed: int, smoke: bool,
                     probe: Callable[[], float]) -> PassResult:
    """One explore session per scenario, ``probe`` called before the
    first and after each."""
    from repro.verify.explore import explore
    from repro.verify.runner import SCENARIOS

    budget = explore_budget(smoke)
    walls: Dict[str, float] = {}
    checks: Dict[str, bool] = {}
    cases = failed = schedules = 0
    refs = [probe()]
    for name in sorted(SCENARIOS):
        t = perf_counter()
        report = explore(scenarios=[name], budget=budget,
                         workers=EXPLORE_WORKERS, master_seed=seed)
        walls[name] = perf_counter() - t
        refs.append(probe())
        cases += report.cases
        failed += len(report.failures) + len(report.budget_failures)
        schedules += report.distinct_schedules
        checks[f"explore.{name}.ran_full_budget"] = report.cases == budget
        checks[f"explore.{name}.no_protocol_failures"] = not report.failures
        checks[f"explore.{name}.no_budget_failures"] = (
            not report.budget_failures)
    return PassResult(sum(walls.values()), walls, checks,
                      {"schedules": schedules}, attempted=cases,
                      failed=failed, refs=refs)


def prepare_explore(seed: int, smoke: bool):
    """What an explore session builds before its first case."""
    from repro.verify.explore import Explorer
    from repro.verify.runner import SCENARIOS

    return [Explorer(scenarios=[name], budget=explore_budget(smoke),
                     workers=EXPLORE_WORKERS, master_seed=seed)
            for name in sorted(SCENARIOS)]

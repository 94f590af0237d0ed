"""Throughput degradation under injected fault rates (the resil bench).

One churn workload — every thread runs ``malloc_robust``/hold/``free``
cycles over a size mix spanning both allocators (UAlloc bins plus a
TBuddy-routed coarse size, so every fault site is live) — executed at
several *fault levels*: the same ``(seed,
workload)`` with no fault plan ("clean"), a light plan, and a heavy
plan layering null-allocs, split-ascent reneges and lock-holder stalls.
Reported per level:

* virtual throughput (successful malloc/free pairs per virtual second),
* the retained-throughput ratio vs the clean run (the graceful-
  degradation headline: how much of the fault-free rate survives),
* the hard-failure rate (robust retries exhausted -> NULL handed to the
  caller), and
* the injected-fault and retry counts.

Every level must end quiescent and leak-free — a fault plan that
corrupts recovery fails the bench rather than reporting a throughput
for a broken heap — so the bench doubles as a coarse resilience check
on exactly the configuration it measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..backends import get as get_backend
from ..sim import DeviceMemory, GPUDevice, Scheduler
from ..bench.reporting import format_table, si
from ..bench.workloads import churn
from .plan import FaultInjector, FaultPlan

#: (level name, fault-plan spec) — "" means no injector at all.
LEVELS: Tuple[Tuple[str, str], ...] = (
    ("clean", ""),
    ("light",
     "site=tbuddy.alloc,p=0.05,max=32;"
     "site=tbuddy.lock,p=0.03,cycles=4000;"
     "site=spinlock.hold,p=0.02,cycles=4000"),
    ("heavy",
     "site=tbuddy.alloc,p=0.5,max=256;"
     "site=tbuddy.split,p=0.3,max=64;"
     "site=tbuddy.lock,p=0.15,cycles=12000;"
     "site=spinlock.hold,p=0.1,cycles=12000"),
)

#: churn sizes, cycled through by thread id and iteration
SIZES = (64, 256, 4096)
#: heap bytes: 512 pages of 4 KB
POOL = 4096 << 9
#: a thread holds each block for a uniform draw below this many cycles
HOLD_CYCLES = 200


@dataclass
class ResilBenchPoint:
    """One fault level's measured outcome."""

    level: str
    plan: str
    throughput: float      # successful malloc/free pairs per virtual second
    failures: int          # NULLs surfaced to the workload (retries exhausted)
    retries: int           # robust retry attempts across all threads
    faults: int            # faults injected by the plan
    cycles: int
    attempts: int = 0      # malloc_robust calls issued

    @property
    def failure_rate(self) -> float:
        return self.failures / self.attempts if self.attempts else 0.0


@dataclass
class ResilBenchResult:
    sizes: Tuple[int, ...]
    nthreads: int
    iters: int
    points: List[ResilBenchPoint]

    def point(self, level: str) -> ResilBenchPoint:
        for p in self.points:
            if p.level == level:
                return p
        raise KeyError(f"no level {level!r} in resil bench result")

    def retained(self, level: str) -> float:
        """Fraction of clean throughput retained at ``level``."""
        clean = self.point("clean").throughput
        return self.point(level).throughput / clean if clean else 0.0

    def table(self) -> str:
        rows = []
        for p in self.points:
            rows.append([
                p.level, si(p.throughput),
                f"{self.retained(p.level):.2f}x",
                p.faults, p.retries, p.failures,
            ])
        return format_table(
            ["level", "pairs/s", "retained", "faults", "retries", "failures"],
            rows,
        )


def _run_level(plan_spec: str, nthreads: int, iters: int,
               seed: int) -> ResilBenchPoint:
    mem = DeviceMemory(16 << 20)
    device = GPUDevice(num_sms=4, max_resident_blocks=2)
    # The degradation bench measures ``malloc_robust``, which only the
    # paper allocator has; build it through the registry all the same so
    # its construction matches every other consumer.
    handle = get_backend("ours").build(mem, device, POOL)
    alloc = handle.allocator
    plan = FaultPlan.parse(plan_spec) if plan_spec else FaultPlan()
    inj = FaultInjector(plan, seed=seed) if plan else None
    kernel, failures = churn(alloc.malloc_robust, alloc.free, SIZES, iters,
                             HOLD_CYCLES)
    sched = Scheduler(mem, device, seed=seed, fault_injector=inj)
    sched.launch(kernel, -(-nthreads // 64), min(64, nthreads))
    report = sched.run()
    # The measured configuration must also *recover*: quiescent heap,
    # clean semaphore ledgers, zero live bytes.
    alloc.host_checkpoint(expect_leak_free=True)
    n_fail = sum(failures)
    ok_pairs = nthreads * iters - n_fail
    return ResilBenchPoint(
        level="",  # caller fills in
        plan=plan.spec,
        throughput=report.throughput(ok_pairs) if ok_pairs > 0 else 0.0,
        failures=n_fail,
        retries=alloc.stats.n_robust_retries,
        faults=inj.n_injected if inj is not None else 0,
        cycles=report.cycles,
        attempts=nthreads * iters,
    )


def run(nthreads: int, iters: int, *, seed: int) -> ResilBenchResult:
    """Run the degradation sweep; one fresh allocator per level."""
    points = []
    for name, spec in LEVELS:
        p = _run_level(spec, nthreads, iters, seed)
        p.level = name
        points.append(p)
    return ResilBenchResult(sizes=SIZES, nthreads=nthreads,
                            iters=iters, points=points)

"""Deterministic trace replay: drive any registered backend from a Trace.

The replayer turns a recorded :class:`~.trace.Trace` into simulator
kernels over the uniform :class:`~repro.backends.BackendHandle`, so the
same recorded stream measures every registered allocator design —
synthesized families and captured production traces alike.

Execution model
---------------
Each tenant's event stream is split round-robin across
``lanes_per_tenant`` simulated threads (lanes).  A lane walks its
events in stream order, sleeping the recorded inter-arrival gap before
each op — open-loop pacing per lane; when an op takes longer than the
recorded gap the lane falls behind rather than dropping work, which is
the honest behaviour for a replayer (recorded arrivals are a lower
bound on issue times).  A ``free`` whose ``malloc`` ran on another lane
spins (``cpu_yield``) until the shared id table publishes the address;
a ``free`` whose ``malloc`` failed (NULL under pressure) is *skipped*
and counted, so a balanced trace still ends leak-free under memory
pressure or injected faults.

Determinism: the trace is data, the scheduler is seeded, and the lanes
consume no host entropy — replaying the same trace on the same backend
at the same seed is byte-identical in every virtual metric and
per-tenant counter (pinned by tests and the acceptance gate).

Per-tenant QoS
--------------
Every lane accounts its ops to its tenant's :class:`TenantStats` — the
multi-tenant analogue of :class:`~repro.core.allocator.AllocStats` —
so a replay reports which tenant paid for contention: failure rates,
bytes requested/served, and service share under one shared pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from .. import backends as backend_registry
from ..bench.reporting import format_table, si
from ..sim import ops
from ..sim.device import GPUDevice
from ..sim.memory import DeviceMemory
from ..sim.scheduler import Scheduler
from .trace import OP_MALLOC, Trace, validate

_NULL = DeviceMemory.NULL

#: id-table sentinel for "malloc completed but returned NULL"
_FAILED = -1


@dataclass
class TenantStats:
    """Per-tenant allocation counters (the AllocStats of one tenant)."""

    n_malloc: int = 0
    n_malloc_failed: int = 0
    n_free: int = 0
    #: frees skipped because the paired malloc returned NULL
    n_free_skipped: int = 0
    bytes_requested: int = 0
    bytes_served: int = 0

    @property
    def failure_rate(self) -> float:
        """Fraction of this tenant's mallocs that returned NULL."""
        return self.n_malloc_failed / self.n_malloc if self.n_malloc else 0.0

    @property
    def ops_completed(self) -> int:
        """Successful mallocs plus completed frees."""
        return (self.n_malloc - self.n_malloc_failed) + self.n_free

    def add(self, other: "TenantStats") -> None:
        self.n_malloc += other.n_malloc
        self.n_malloc_failed += other.n_malloc_failed
        self.n_free += other.n_free
        self.n_free_skipped += other.n_free_skipped
        self.bytes_requested += other.bytes_requested
        self.bytes_served += other.bytes_served

    @classmethod
    def total(cls, ledgers: Iterable["TenantStats"]) -> "TenantStats":
        """The field-wise sum of ``ledgers``."""
        out = cls()
        for st in ledgers:
            out.add(st)
        return out


@dataclass
class ReplayReport:
    """Outcome of one trace replay on one backend."""

    backend: str
    seed: int
    lanes_per_tenant: int
    tenants: Dict[int, TenantStats]
    cycles: int
    events: int
    ops_per_s: float

    @property
    def totals(self) -> TenantStats:
        return TenantStats.total(self.tenants.values())

    def qos_rows(self) -> List[List[object]]:
        """Per-tenant QoS table rows (tenant, ops, fail%, share of
        served bytes) — the contention report."""
        total_served = self.totals.bytes_served or 1
        rows = []
        for t in sorted(self.tenants):
            st = self.tenants[t]
            rows.append([
                f"t{t}", st.n_malloc, st.n_free,
                f"{st.failure_rate:.1%}",
                si(float(st.bytes_served)) + "B",
                f"{st.bytes_served / total_served:.1%}",
            ])
        return rows

    def table(self) -> str:
        return format_table(
            ["tenant", "mallocs", "frees", "fail", "served", "share"],
            self.qos_rows(),
        )

    def fairness(self) -> float:
        """Jain's fairness index over per-tenant served bytes (1.0 =
        perfectly even service, 1/n = one tenant served everything)."""
        served = [st.bytes_served for st in self.tenants.values()]
        total = sum(served)
        if not total:
            return 1.0
        sq = sum(s * s for s in served)
        return (total * total) / (len(served) * sq)


def build_lanes(trace: Trace, lanes_per_tenant: int = 1):
    """Partition the trace into per-lane event lists.

    Returns ``(lane_events, stats)`` where ``lane_events[i]`` is lane
    ``i``'s ordered event list (lane ``t * lanes_per_tenant + j`` is
    tenant ``t``'s ``j``-th lane) and ``stats`` maps tenant ->
    :class:`TenantStats` (populated during replay).
    """
    if lanes_per_tenant < 1:
        raise ValueError(
            f"lanes_per_tenant must be >= 1 (got {lanes_per_tenant})")
    n_lanes = trace.tenants * lanes_per_tenant
    lane_events: List[List] = [[] for _ in range(n_lanes)]
    counters = [0] * trace.tenants
    for e in trace.events:
        j = counters[e.tenant] % lanes_per_tenant
        counters[e.tenant] += 1
        lane_events[e.tenant * lanes_per_tenant + j].append(e)
    stats = {t: TenantStats() for t in range(trace.tenants)}
    return lane_events, stats


def replay_kernel(handle, lane_events: Sequence[Sequence],
                  stats: Dict[int, TenantStats]):
    """Kernel closure: thread ``tid`` replays ``lane_events[tid]``.

    Threads beyond the lane count exit immediately (launch geometry may
    round up).  The shared ``table`` maps event id -> address (or
    ``_FAILED``); frees spin on it when their malloc ran on a sibling
    lane and has not completed yet.
    """
    table: Dict[int, int] = {}

    def kernel(ctx):
        if ctx.tid >= len(lane_events):
            return
        last_time = 0
        for e in lane_events[ctx.tid]:
            gap = e.time - last_time
            last_time = e.time
            if gap > 0:
                yield ops.sleep(gap)
            st = stats[e.tenant]
            if e.op == OP_MALLOC:
                st.n_malloc += 1
                st.bytes_requested += e.size
                p = yield from handle.malloc(ctx, e.size)
                if p == _NULL:
                    st.n_malloc_failed += 1
                    table[e.id] = _FAILED
                else:
                    st.bytes_served += e.size
                    table[e.id] = p
            else:
                while e.id not in table:
                    yield ops.cpu_yield()
                p = table.pop(e.id)
                if p == _FAILED:
                    st.n_free_skipped += 1
                else:
                    st.n_free += 1
                    yield from handle.free(ctx, p)

    return kernel


def launch_geometry(n_lanes: int):
    """``(grid, block)`` covering ``n_lanes`` threads, 32 per block."""
    block = min(32, max(1, n_lanes))
    grid = -(-n_lanes // block)
    return grid, block


def replay_on_scheduler(sched: Scheduler, handle, trace: Trace,
                        lanes_per_tenant: int = 1,
                        max_events: Optional[int] = None):
    """Replay a trace on an existing scheduler/handle pair.

    Returns ``(stats, report)`` — the per-tenant stats dict and the
    scheduler's :class:`~repro.sim.scheduler.SimReport`.  Used by the
    verify/resil scenarios, which own the harness lifecycle.
    """
    lane_events, stats = build_lanes(trace, lanes_per_tenant)
    kernel = replay_kernel(handle, lane_events, stats)
    grid, block = launch_geometry(len(lane_events))
    sched.launch(kernel, grid=grid, block=block)
    report = sched.run(max_events=max_events)
    return stats, report


def replay(trace: Trace, backend: str = "ours", seed: int = 0,
           lanes_per_tenant: int = 1, pool: int = 1 << 20) -> ReplayReport:
    """Standalone replay: build a fresh simulator, run, report.

    ``pool`` is the backend heap in bytes; the surrounding
    :class:`~repro.sim.memory.DeviceMemory` is sized generously around
    it (metadata, mailboxes).  Validates the trace first — a replayer
    must never drive a backend from a malformed stream.
    """
    validate(trace)
    device = GPUDevice(num_sms=4)
    mem, handle = backend_registry.build_standalone(backend, device, pool)
    sched = Scheduler(mem, device, seed=seed)
    stats, report = replay_on_scheduler(sched, handle, trace,
                                        lanes_per_tenant)
    n_ops = TenantStats.total(stats.values()).ops_completed
    return ReplayReport(
        backend=backend_registry.get(backend).name,
        seed=seed,
        lanes_per_tenant=lanes_per_tenant,
        tenants=stats,
        cycles=report.cycles,
        events=report.events,
        ops_per_s=report.throughput(n_ops) if n_ops else 0.0,
    )

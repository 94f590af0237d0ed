"""The episode batcher: an open request stream over a persistent backend.

The simulator is a discrete-event machine — it cannot take a request
"mid-flight".  The engine bridges the two worlds the way a real
throughput-oriented front end would: it **batches**.  Pending requests
are collected host-side, admission control (:mod:`.admission`) filters
them, and the survivors compile into one *episode* — a single kernel
launch in which lane ``i`` executes request ``i`` against the long-lived
:class:`~repro.backends.BackendHandle`.  The scheduler, device memory
and allocator state persist across episodes, so virtual time and heap
state are continuous for the whole service lifetime; each episode is as
concurrent as the batch it serves, which is exactly the paper's
throughput model (many simultaneous allocation requests per grid).

Determinism: given the same sequence of batches, the engine is
byte-deterministic — the scheduler is seeded, admission is pure host
arithmetic, and per-request latency falls out of lane completion times
(:attr:`~repro.sim.scheduler.LaunchHandle.finish_times`).  Socket-fed
batches (:mod:`.server`) vary with wall-clock arrival, which changes
latency but never accounting totals; the perf/verify/resil harnesses
feed deterministic batches (:mod:`.bench`) so their metrics gate exactly.

Accounting reuses :class:`~repro.workloads.replay.TenantStats` — the
service and the closed replayer describe traffic in the same vocabulary,
which is what makes the ledger-reconciliation acceptance gate (loadgen
vs. direct replay) a three-line comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .. import backends as backend_registry
from ..sim.device import GPUDevice
from ..sim.memory import DeviceMemory
from ..sim.scheduler import Scheduler
from ..workloads.replay import ReplayReport, TenantStats, launch_geometry
from ..workloads.trace import TraceRecorder
from .admission import (
    CAUSE_FOREIGN_FREE,
    CAUSE_NULL,
    CAUSE_UNKNOWN_ADDR,
    AdmissionController,
)
from .protocol import OP_FREE, OP_MALLOC

_NULL = DeviceMemory.NULL


@dataclass(frozen=True)
class ServeRequest:
    """One tenant request, already protocol-validated."""

    tenant: int
    op: str          # OP_MALLOC or OP_FREE
    size: int = 0    # malloc only
    addr: int = 0    # free only


@dataclass
class RequestOutcome:
    """What the engine decided (and the episode measured) for a request."""

    ok: bool
    #: address for a successful malloc (0 for frees)
    addr: int = 0
    #: rejection/failure cause (admission or episode), None when ok
    cause: Optional[str] = None
    #: virtual cycles from episode start to lane completion (None when
    #: the request never entered an episode)
    latency: Optional[int] = None
    #: episode ordinal the request ran in (None when rejected)
    episode: Optional[int] = None


class ServeEngine:
    """Long-lived allocator service core: admission + episode batching.

    Build standalone (the server, loadgen bench and CLI path)::

        engine = ServeEngine(backend="ours", pool=1 << 20, seed=0,
                             quota_bytes=64 << 10)
        outcomes = engine.submit([ServeRequest(0, "malloc", size=96)])

    or over an existing harness scheduler/handle pair (the verify
    scenario and resil deck do this so faults and perturbations flow
    through the served session)::

        engine = ServeEngine(sched=h.sched, handle=h.handle)

    ``recorder`` (a :class:`~repro.workloads.trace.TraceRecorder`) logs
    every *admitted* request at its admission virtual time — a served
    session becomes a replayable workload-zoo trace (the ``serve_small``
    fixture is recorded exactly this way).
    """

    def __init__(self, backend: str = "ours", pool: int = 1 << 20,
                 seed: int = 0,
                 quota_bytes: Optional[int] = None,
                 sched: Optional[Scheduler] = None,
                 handle=None,
                 recorder: Optional[TraceRecorder] = None):
        if (sched is None) != (handle is None):
            raise ValueError(
                "pass both sched and handle (harness mode) or neither "
                "(standalone mode)"
            )
        if handle is None:
            device = GPUDevice(num_sms=4)
            mem, handle = backend_registry.build_standalone(backend, device,
                                                            pool)
            sched = Scheduler(mem, device, seed=seed)
        self.handle = handle
        self.sched = sched
        self.backend_name = handle.name
        probe = None
        pressure_min = 0
        gauge_fn = getattr(handle.allocator, "host_pressure", None)
        if gauge_fn is not None:
            probe = lambda: gauge_fn().free_bytes  # noqa: E731
            # The gauge meters page-level (TBuddy) supply; gate only
            # sizes the backend routes straight to it.  Bin-served sizes
            # are invisible to the gauge and must be allowed to try (see
            # the admission module docstring).
            cfg = getattr(handle.allocator, "cfg", None)
            if cfg is not None:
                pressure_min = getattr(cfg, "max_ualloc_size", -1) + 1
        self.admission = AdmissionController(quota_bytes, probe,
                                             pressure_min_size=pressure_min)
        self.recorder = recorder
        #: live allocations: addr -> (tenant, size, trace event id)
        self._live: Dict[int, Tuple[int, int, int]] = {}
        self.stats: Dict[int, TenantStats] = {}
        #: failure counts by cause, admission and episode combined
        self.causes: Dict[str, int] = {}
        #: virtual latency -> number of executed requests that took it
        self.latencies: Dict[int, int] = {}
        self.episodes = 0
        self.requests = 0

    # ------------------------------------------------------------------
    # accounting helpers
    # ------------------------------------------------------------------
    def _tenant_stats(self, tenant: int) -> TenantStats:
        st = self.stats.get(tenant)
        if st is None:
            st = self.stats[tenant] = TenantStats()
        return st

    def _count_cause(self, cause: str) -> str:
        self.causes[cause] = self.causes.get(cause, 0) + 1
        return cause

    def count_skipped_free(self, tenant: int) -> None:
        """Account a free the *client* skipped because its malloc failed
        (the deterministic feeder and loadgen report these so totals
        reconcile with :func:`repro.workloads.replay.replay`)."""
        self._tenant_stats(tenant).n_free_skipped += 1

    # ------------------------------------------------------------------
    # the batch path
    # ------------------------------------------------------------------
    def submit(self, batch: Sequence[ServeRequest]) -> List[RequestOutcome]:
        """Admit, execute and account one batch; one outcome per request.

        Outcomes are positional: ``outcome[i]`` answers ``batch[i]``.
        Admission runs in batch order (earlier requests reserve quota
        and pressure budget first); the episode then runs every admitted
        request concurrently, one simulator lane each.
        """
        if not batch:
            return []
        self.requests += len(batch)
        self.admission.begin_batch()
        now = self.sched.now
        outcomes: List[RequestOutcome] = []
        # (slot, request, freed_size, recorder event id) per admitted req
        admitted: List[Tuple[int, ServeRequest, int, int]] = []
        for i, r in enumerate(batch):
            if r.op == OP_MALLOC:
                st = self._tenant_stats(r.tenant)
                st.n_malloc += 1
                st.bytes_requested += r.size
                cause = self.admission.admit_malloc(r.tenant, r.size)
                if cause is not None:
                    st.n_malloc_failed += 1
                    self._count_cause(cause)
                    outcomes.append(RequestOutcome(False, cause=cause))
                    continue
                eid = (self.recorder.malloc(r.tenant, r.size, now)
                       if self.recorder is not None else -1)
                admitted.append((i, r, 0, eid))
            elif r.op == OP_FREE:
                entry = self._live.get(r.addr)
                if entry is None:
                    cause = self._count_cause(CAUSE_UNKNOWN_ADDR)
                    outcomes.append(RequestOutcome(False, cause=cause))
                    continue
                if entry[0] != r.tenant:
                    cause = self._count_cause(CAUSE_FOREIGN_FREE)
                    outcomes.append(RequestOutcome(False, cause=cause))
                    continue
                # Claim the address now so a duplicate free in the same
                # batch is caught here, not corrupted in the episode.
                del self._live[r.addr]
                self.admission.admit_free(r.tenant)
                if self.recorder is not None:
                    self.recorder.free(entry[2], now)
                admitted.append((i, r, entry[1], entry[2]))
            else:
                raise ValueError(f"engine got non-batch op {r.op!r}")
            outcomes.append(RequestOutcome(True))
        if admitted:
            self._run_episode(admitted, outcomes)
        return outcomes

    def _run_episode(self, admitted: List[Tuple[int, ServeRequest, int, int]],
                     outcomes: List[RequestOutcome]) -> None:
        handle = self.handle
        # Thread ids are scheduler-global and keep counting across
        # episodes; the lane index is the offset from this launch's
        # first tid (filled in below, before run() resumes any thread).
        launch_base = [0]

        def kernel(ctx):
            lane = ctx.tid - launch_base[0]
            if lane >= len(admitted):
                return None
            r = admitted[lane][1]
            if r.op == OP_MALLOC:
                p = yield from handle.malloc(ctx, r.size)
                return p
            yield from handle.free(ctx, r.addr)
            return 0

        start = self.sched.now
        grid, block = launch_geometry(len(admitted))
        lh = self.sched.launch(kernel, grid=grid, block=block)
        launch_base[0] = lh.tids[0]
        self.sched.run()
        episode = self.episodes
        self.episodes += 1
        results = lh.results
        finishes = lh.finish_times
        for lane, (slot, r, freed_size, eid) in enumerate(admitted):
            out = outcomes[slot]
            latency = out.latency = finishes[lane] - start
            out.episode = episode
            self.latencies[latency] = self.latencies.get(latency, 0) + 1
            st = self._tenant_stats(r.tenant)
            if r.op == OP_MALLOC:
                p = results[lane]
                if p == _NULL:
                    out.ok = False
                    out.cause = self._count_cause(CAUSE_NULL)
                    st.n_malloc_failed += 1
                    self.admission.refund_malloc(r.tenant, r.size)
                else:
                    out.addr = p
                    st.bytes_served += r.size
                    self._live[p] = (r.tenant, r.size, eid)
            else:
                st.n_free += 1
                self.admission.on_freed(r.tenant, freed_size)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def live_allocations(self) -> int:
        return len(self._live)

    def totals(self) -> TenantStats:
        return TenantStats.total(self.stats.values())

    def latency_percentile(self, pct: float) -> int:
        """Deterministic nearest-rank percentile of per-request latency
        (0 with no executed requests yet); ``pct`` must lie in 0..100."""
        if not 0 <= pct <= 100:
            # a negative rank would index from the top of the ordering
            raise ValueError(f"pct must be in 0..100 (got {pct})")
        n = sum(self.latencies.values())
        if not n:
            return 0
        rank = min(n - 1, int(pct / 100.0 * n))
        for value in sorted(self.latencies):
            rank -= self.latencies[value]
            if rank < 0:
                break
        return value

    def report(self) -> ReplayReport:
        """The service session summarized as a
        :class:`~repro.workloads.replay.ReplayReport` — same QoS table,
        fairness index and throughput math as the closed replayer."""
        n_ops = self.totals().ops_completed
        cycles = self.sched.now
        return ReplayReport(
            backend=self.backend_name,
            seed=self.sched.seed,
            lanes_per_tenant=0,  # lanes are per-request in the service
            tenants=dict(self.stats),
            cycles=cycles,
            events=self.requests,
            ops_per_s=(self.sched.cost_model.throughput(n_ops, cycles)
                       if n_ops and cycles else 0.0),
        )

    def snapshot(self) -> dict:
        """JSON-safe stats snapshot (the ``stats`` protocol reply)."""
        tenants = {}
        for t in sorted(self.stats):
            st = self.stats[t]
            led = self.admission.ledger(t)
            tenants[str(t)] = {
                "n_malloc": st.n_malloc,
                "n_malloc_failed": st.n_malloc_failed,
                "n_free": st.n_free,
                "bytes_requested": st.bytes_requested,
                "bytes_served": st.bytes_served,
                "outstanding_bytes": led.outstanding_bytes,
                "peak_bytes": led.peak_bytes,
                "rejected": dict(sorted(led.rejected.items())),
            }
        return {
            "backend": self.backend_name,
            "episodes": self.episodes,
            "requests": self.requests,
            "cycles": self.sched.now,
            "live_allocations": self.live_allocations,
            "causes": dict(sorted(self.causes.items())),
            "latency_p50": self.latency_percentile(50),
            "latency_p99": self.latency_percentile(99),
            "tenants": tenants,
        }

"""Deterministic service benchmarking: trace in, fixed-size episodes out.

The socket front end batches by wall clock, which is honest for a live
service but useless for a regression gate.  This module is the
deterministic twin: :func:`feed_trace` walks a recorded
:class:`~repro.workloads.trace.Trace` in stream order and compiles it
into fixed-size episodes, so the same trace, backend, seed and batch
size produce byte-identical virtual metrics on every machine.  It is
what the ``serve_replay`` perf case, the ``serve_session`` verify
scenario and the resil deck all run.

Feeding rules (the whole batching policy, so it is auditable):

* requests enter the current batch in trace order;
* a batch flushes when it reaches ``batch_max`` requests;
* a ``free`` whose malloc is still in the current batch (its address is
  not yet known) flushes the batch first — a client cannot free memory
  it has not been handed yet, and the flush models exactly the
  round-trip it would wait for;
* a ``free`` whose malloc failed (admission reject or backend NULL) is
  *skipped* and counted, mirroring the replayer's skipped-free protocol
  so ledgers reconcile with :func:`repro.workloads.replay.replay`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..workloads.trace import OP_MALLOC, Trace, validate
from .engine import ServeEngine, ServeRequest
from .protocol import OP_FREE
from .protocol import OP_MALLOC as REQ_MALLOC

#: sentinel address table entry: "malloc completed but failed"
_FAILED = -1


@dataclass
class FeedResult:
    """Outcome of feeding one trace through a service engine."""

    engine: ServeEngine
    events: int
    episodes: int
    #: requests that entered batches (admitted or rejected there)
    submitted: int
    #: frees skipped host-side because the paired malloc failed
    frees_skipped: int
    #: flushes forced by a free-before-reply dependency
    dependency_flushes: int


def feed_trace(engine: ServeEngine, trace: Trace,
               batch_max: int = 32) -> FeedResult:
    """Drive ``trace`` through ``engine`` in deterministic episodes."""
    if batch_max < 1:
        raise ValueError(f"batch_max must be >= 1 (got {batch_max})")
    validate(trace)
    #: trace event id -> served address, or _FAILED
    addr_of: Dict[int, int] = {}
    batch: List[ServeRequest] = []
    #: per batch slot: the malloc's event id (None for frees)
    pending_ids: List[Optional[int]] = []
    #: event ids of mallocs waiting in the current (unflushed) batch
    pending: set = set()
    dependency_flushes = 0
    frees_skipped = 0
    submitted = 0

    def flush() -> None:
        nonlocal submitted
        if not batch:
            return
        outcomes = engine.submit(batch)
        submitted += len(batch)
        for req_eid, out in zip(pending_ids, outcomes):
            if req_eid is not None:
                addr_of[req_eid] = out.addr if out.ok else _FAILED
        batch.clear()
        pending_ids.clear()
        pending.clear()

    for e in trace.events:
        if e.op == OP_MALLOC:
            batch.append(ServeRequest(e.tenant, REQ_MALLOC, size=e.size))
            pending_ids.append(e.id)
            pending.add(e.id)
        else:
            if e.id in pending:
                dependency_flushes += 1
                flush()
            addr = addr_of.get(e.id)
            if addr is None:
                raise AssertionError(
                    f"free of event id {e.id} with no malloc outcome — "
                    "the trace validated, so this is a feeder bug"
                )
            if addr == _FAILED:
                frees_skipped += 1
                engine.count_skipped_free(e.tenant)
                continue
            batch.append(ServeRequest(e.tenant, OP_FREE, addr=addr))
            pending_ids.append(None)
        if len(batch) >= batch_max:
            flush()
    flush()
    return FeedResult(
        engine=engine,
        events=len(trace.events),
        episodes=engine.episodes,
        submitted=submitted,
        frees_skipped=frees_skipped,
        dependency_flushes=dependency_flushes,
    )


# ----------------------------------------------------------------------
# the perf-case runner
# ----------------------------------------------------------------------
@dataclass
class ServeBenchPoint:
    """One backend's measured service run."""

    backend: str
    ops_per_s: float
    latency_p50: int
    latency_p99: int
    failure_rate: float           # backend NULLs / mallocs
    admission_failure_rate: float  # admission rejects / mallocs
    episodes: int
    cycles: int
    causes: Dict[str, int] = field(default_factory=dict)


def run_backend(trace: Trace, backend: str, *, seed: int = 0,
                pool: int = 1 << 20, batch_max: int = 32,
                quota_bytes: Optional[int] = None) -> ServeBenchPoint:
    """Serve one trace on one backend and reduce to a bench point."""
    engine = ServeEngine(backend=backend, pool=pool, seed=seed,
                         quota_bytes=quota_bytes)
    feed_trace(engine, trace, batch_max=batch_max)
    totals = engine.totals()
    n_malloc = totals.n_malloc or 1
    rejected = (engine.causes.get("quota", 0)
                + engine.causes.get("pressure", 0))
    return ServeBenchPoint(
        backend=engine.backend_name,
        ops_per_s=engine.report().ops_per_s,
        latency_p50=engine.latency_percentile(50),
        latency_p99=engine.latency_percentile(99),
        failure_rate=engine.causes.get("null", 0) / n_malloc,
        admission_failure_rate=rejected / n_malloc,
        episodes=engine.episodes,
        cycles=engine.sched.now,
        causes=dict(sorted(engine.causes.items())),
    )

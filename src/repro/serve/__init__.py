"""``repro.serve`` — the allocator as a long-lived service.

Every harness before this package ran *closed decks*: a fixed kernel
launched, ran to completion, and the simulator was torn down.  A
production allocator lives the other way around — an **open stream** of
malloc/free requests arrives from many tenants, and the allocator state
persists across all of them.  This package is that front end:

:mod:`~repro.serve.protocol`
    The wire format: newline-framed JSON over a stream socket, versioned
    like every other schema in the repo (``repro.serve/1``).

:mod:`~repro.serve.admission`
    Per-tenant quota ledgers and a pool-pressure gate (backed by the
    paper allocator's ``host_pressure()`` gauge) deciding which requests
    may enter an episode at all — the shared-resource-management layer
    (Ausavarungnirun) the simulator core deliberately does not have.

:mod:`~repro.serve.engine`
    The episode batcher: a long-lived backend (any
    :mod:`repro.backends` registration) plus a persistent scheduler;
    each batch of admitted requests compiles into one deterministic
    simulator episode (one lane per request), and per-request virtual
    latency streams back from the lane completion times.

:mod:`~repro.serve.server`
    The socket front end: one event-loop thread reads every ready
    session, then runs all it read on the engine, in episodes of at
    most ``batch_max`` requests; a batch is what arrived while the
    previous episodes ran, never a wait on purpose.  The engine, and
    therefore the simulated device, stays single-threaded and
    deterministic per batch.

:mod:`~repro.serve.loadgen`
    An open-loop load generator replaying workload-zoo traces (or
    synthetic family traffic) against a running service, flat out or
    paced, one session per tenant driven from one event loop, keeping
    its own per-tenant ledgers for reconciliation.

:mod:`~repro.serve.bench`
    The deterministic (socket-free) feeder used by the perf suite, the
    verify scenario and the resil deck: trace in, fixed-size episodes
    out, virtual metrics byte-stable across machines.

CLI: ``python -m repro serve {run,bench,record}`` — see
:mod:`repro.serve.cli`.
"""

from .admission import AdmissionController, TenantLedger  # noqa: F401
from .engine import ServeEngine, ServeRequest  # noqa: F401
from .protocol import PROTOCOL, ProtocolError  # noqa: F401

"""Admission control: per-tenant quotas and a pool-pressure gate.

The allocator core is deliberately tenant-blind — every thread contends
for one pool on equal terms.  A *service* cannot afford that: one greedy
tenant would starve the rest (the shared-resource-management problem;
Ausavarungnirun's line of work motivates per-client policies at the
resource boundary, not inside the allocator).  Admission control is that
boundary.  It runs host-side, *before* a request is compiled into a
simulator episode, so a rejected request costs no device cycles at all.

Two independent gates:

**Quota** — each tenant may hold at most ``quota_bytes`` outstanding.
The controller keeps a per-tenant reservation ledger: a malloc reserves
its size at admission, the reservation becomes a charge when the backend
returns an address, is refunded on NULL, and is released by the paired
free.  Rejection is deterministic: the ledger is exact host state, so
the same request sequence always rejects the same requests
(``cause="quota"``).

**Pressure** — when the backend exposes a supply gauge (the paper
allocator's ``host_pressure()``; see
:class:`~repro.core.allocator.PressureGauge`), the controller samples
free bytes once per batch (:meth:`AdmissionController.begin_batch` —
episodes run to quiescence, so the gauge is exact there) and refuses
mallocs that could not possibly be served (``cause="pressure"``).  This
converts a doomed device-side NULL storm into an instant host-side
rejection — the service analogue of the paper's fail-fast philosophy.
Backends without a gauge simply skip the gate.

The gauge meters *page-level* (TBuddy) supply only: pages carved into
UAlloc chunks read as committed even when their bins are mostly free,
so bin-served sizes cannot be judged by it.  The gate therefore applies
only to requests of at least ``pressure_min_size`` bytes — the engine
sets that to the backend's direct-to-buddy routing threshold, exactly
the sizes that must come out of the metered supply.  Smaller requests
are always pressure-admitted and fail, if at all, in the episode
(``cause="null"``), where the refund path squares the ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

#: rejection causes (the per-cause failure telemetry vocabulary).
#: Admission owns the first two; the engine adds the rest.
CAUSE_QUOTA = "quota"
CAUSE_PRESSURE = "pressure"
CAUSE_NULL = "null"                  # backend returned NULL in the episode
CAUSE_UNKNOWN_ADDR = "unknown-addr"  # free of an address never handed out
CAUSE_FOREIGN_FREE = "foreign-free"  # free of another tenant's allocation


@dataclass
class TenantLedger:
    """Host-side byte accounting for one tenant."""

    #: bytes currently reserved or charged (outstanding allocations
    #: plus in-flight admissions)
    outstanding_bytes: int = 0
    #: high-water mark of ``outstanding_bytes``
    peak_bytes: int = 0
    #: admitted requests (mallocs and frees)
    admitted: int = 0
    #: rejections by cause
    rejected: Dict[str, int] = field(default_factory=dict)

    def _reject(self, cause: str) -> str:
        self.rejected[cause] = self.rejected.get(cause, 0) + 1
        return cause


class AdmissionController:
    """Decides, per request, whether the episode may see it.

    ``quota_bytes`` is the per-tenant outstanding-byte cap (``None`` =
    unlimited).  ``pressure_probe`` is a zero-argument callable
    returning currently-free pool bytes (or ``None`` to disable the
    pressure gate); it is sampled once per batch via
    :meth:`begin_batch`, never per request.  Only requests of at least
    ``pressure_min_size`` bytes are pressure-gated (see the module
    docstring: the gauge meters page-level supply only).
    """

    def __init__(self, quota_bytes: Optional[int] = None,
                 pressure_probe: Optional[Callable[[], int]] = None,
                 pressure_min_size: int = 0):
        if quota_bytes is not None and quota_bytes < 1:
            raise ValueError(f"quota_bytes must be >= 1 (got {quota_bytes})")
        self.quota_bytes = quota_bytes
        self._probe = pressure_probe
        self.pressure_min_size = pressure_min_size
        self._ledgers: Dict[int, TenantLedger] = {}
        #: free-byte budget for the current batch (None = gate off)
        self._batch_free: Optional[int] = None
        #: global rejection counts by cause
        self.rejections: Dict[str, int] = {}

    def ledger(self, tenant: int) -> TenantLedger:
        led = self._ledgers.get(tenant)
        if led is None:
            led = self._ledgers[tenant] = TenantLedger()
        return led

    def begin_batch(self) -> None:
        """Sample the pressure gauge for the next batch's budget.

        Called at every batch boundary — the engine has just run the
        previous episode to quiescence, so the gauge is exact.  Frees
        admitted in this batch do not credit the budget until the next
        one: the gate is conservative within a batch, exact across
        batches.
        """
        self._batch_free = self._probe() if self._probe is not None else None

    def _count(self, cause: str) -> str:
        self.rejections[cause] = self.rejections.get(cause, 0) + 1
        return cause

    def admit_malloc(self, tenant: int, size: int) -> Optional[str]:
        """Admit or reject one malloc; returns the rejection cause or
        ``None``.  Admission *reserves* ``size`` against both the
        tenant's quota and the batch's pressure budget."""
        led = self.ledger(tenant)
        if (self.quota_bytes is not None
                and led.outstanding_bytes + size > self.quota_bytes):
            return self._count(led._reject(CAUSE_QUOTA))
        metered = (self._batch_free is not None
                   and size >= self.pressure_min_size)
        if metered and size > self._batch_free:
            return self._count(led._reject(CAUSE_PRESSURE))
        led.outstanding_bytes += size
        if led.outstanding_bytes > led.peak_bytes:
            led.peak_bytes = led.outstanding_bytes
        led.admitted += 1
        if metered:
            self._batch_free -= size
        return None

    def admit_free(self, tenant: int) -> None:
        """Frees are never quota-rejected; count the admission."""
        self.ledger(tenant).admitted += 1

    def refund_malloc(self, tenant: int, size: int) -> None:
        """Undo a reservation whose malloc came back NULL."""
        self.ledger(tenant).outstanding_bytes -= size

    def on_freed(self, tenant: int, size: int) -> None:
        """Release the charge for a completed free."""
        led = self.ledger(tenant)
        led.outstanding_bytes -= size
        assert led.outstanding_bytes >= 0, (
            f"tenant {tenant} ledger went negative "
            f"({led.outstanding_bytes}): a free released bytes that were "
            "never charged"
        )

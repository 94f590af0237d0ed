"""The backend conformance deck: one contract, every allocator.

Each check builds a **fresh** backend through the registry and drives it
with small deterministic kernels, then audits the quiescent state
through the handle's host hooks.  Checks gate themselves on
:class:`~repro.backends.registry.BackendCaps` — a capability a backend
does not claim is recorded as a *skip*, never silently passed.

The same deck backs three consumers:

* ``tests/backends/`` parameterizes pytest over
  ``product(names(), CHECKS)``;
* ``python -m repro backends conform`` runs it from the CLI (and CI);
* the mutation tests assert the deck *fails* when an allocator is
  deliberately broken (the suite has teeth, not just green lights).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..sim import DeviceMemory, GPUDevice, Scheduler
from ..sim.errors import SimError
from .registry import build_standalone, names

_NULL = DeviceMemory.NULL

#: sizes every backend must serve (all within every ``caps.max_alloc``)
DECK_SIZES = (16, 64, 256, 1024)


class ConformanceError(AssertionError):
    """A backend broke the contract its caps advertise."""


@dataclass
class CheckOutcome:
    """Result of one (backend, check) cell of the deck."""

    backend: str
    check: str
    status: str  # "pass" | "fail" | "skip"
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status != "fail"


class Rig:
    """A fresh backend instance plus a one-call kernel launcher."""

    def __init__(self, backend: str, pool: int = 1 << 20):
        self.device = GPUDevice(num_sms=2)
        self.pool = pool
        self.mem, self.handle = build_standalone(backend, self.device, pool)

    def launch(self, kernel, nthreads: int = 1):
        sched = Scheduler(self.mem, self.device, seed=7)
        sched.launch(kernel, -(-nthreads // 256), min(256, nthreads))
        return sched.run()


def _expect_simerror(rig: Rig, kernel, what: str) -> None:
    """The launch must die with the backend's SimError subclass."""
    try:
        rig.launch(kernel)
    except SimError:
        return
    raise ConformanceError(f"{what} was accepted silently (expected a "
                           "SimError subclass)")


# ----------------------------------------------------------------------
# the checks
# ----------------------------------------------------------------------
def check_roundtrip(backend: str) -> Optional[str]:
    """Alloc/free round trips: in-pool, aligned, leak-free at the end."""
    rig = Rig(backend)
    h = rig.handle
    sizes = [s for s in DECK_SIZES
             if h.caps.max_alloc is None or s <= h.caps.max_alloc]
    results: List[Tuple[int, int]] = []

    def kernel(ctx):
        got = []
        for s in sizes:
            p = yield from h.malloc(ctx, s)
            got.append((s, p))
        for _, p in got:
            yield from h.free(ctx, p)  # free(NULL) must be absorbed
        results.extend(got)

    rig.launch(kernel, nthreads=32)
    if not any(p != _NULL for _, p in results):
        raise ConformanceError("every allocation failed on an empty pool")
    for s, p in results:
        if p == _NULL:
            continue
        if not (h.pool_base <= p < h.pool_base + h.pool_size):
            raise ConformanceError(
                f"malloc({s}) returned {p:#x}, outside the pool "
                f"[{h.pool_base:#x}, {h.pool_base + h.pool_size:#x})"
            )
        if p % h.caps.alignment:
            raise ConformanceError(
                f"malloc({s}) returned {p:#x}, not "
                f"{h.caps.alignment}-byte aligned as caps promise"
            )
    audit = h.used_bytes()
    if audit < 0:
        raise ConformanceError("backend provides no used_bytes audit")
    try:
        h.host_checkpoint(expect_leak_free=h.caps.supports_free)
    except (AssertionError, SimError) as exc:
        raise ConformanceError(
            f"post-quiescence checkpoint failed: {exc}"
        ) from exc
    return None


def check_free_null(backend: str) -> Optional[str]:
    """free(NULL) is a universal, uncounted no-op."""
    rig = Rig(backend)
    h = rig.handle

    def kernel(ctx):
        yield from h.free(ctx, _NULL)

    rig.launch(kernel, nthreads=4)
    count = h.invalid_free_count()
    if count:
        raise ConformanceError(
            f"free(NULL) was counted as {count} invalid frees"
        )
    return None


def check_oversize(backend: str) -> Optional[str]:
    """Requests beyond caps.max_alloc return NULL — never raise."""
    rig = Rig(backend)
    h = rig.handle
    if h.caps.max_alloc is None:
        return "no max_alloc: pool-bounded backend"
    results: List[int] = []

    def kernel(ctx):
        p = yield from h.malloc(ctx, h.caps.max_alloc + 8)
        results.append(p)

    rig.launch(kernel)
    if results != [_NULL]:
        raise ConformanceError(
            f"malloc(max_alloc + 8) returned {results}, expected NULL"
        )
    return None


def check_invalid_free_out_of_pool(backend: str) -> Optional[str]:
    """A free outside the pool always raises — silent corruption and
    unconditional no-ops are both banned, whatever caps.invalid_free
    says about *in-pool* garbage."""
    rig = Rig(backend)
    h = rig.handle
    for probe in (h.pool_base - 64, h.pool_base + h.pool_size + 64):
        def kernel(ctx, probe=probe):
            yield from h.free(ctx, probe)

        _expect_simerror(rig, kernel, f"free of out-of-pool {probe:#x}")
    return None


def check_invalid_free_in_pool(backend: str) -> Optional[str]:
    """An in-pool address that was never allocated either raises or is
    a counted no-op, per caps.invalid_free."""
    rig = Rig(backend)
    h = rig.handle
    probe = h.pool_base  # aligned for every backend, never handed out

    def kernel(ctx):
        yield from h.free(ctx, probe)

    if h.caps.invalid_free == "raises":
        _expect_simerror(rig, kernel, f"free of unallocated {probe:#x}")
        return None
    rig.launch(kernel)
    if h.invalid_free_count() != 1:
        raise ConformanceError(
            "caps say invalid frees are counted no-ops, but the counter "
            f"reads {h.invalid_free_count()} after one invalid free"
        )
    return None


def check_double_free(backend: str) -> Optional[str]:
    """Freeing the same block twice raises (when caps claim detection)."""
    rig = Rig(backend)
    h = rig.handle
    if not h.caps.detects_double_free:
        return "caps: double frees undetectable by design"

    def kernel(ctx):
        p = yield from h.malloc(ctx, 64)
        assert p != _NULL, "empty-pool malloc(64) failed"
        yield from h.free(ctx, p)
        yield from h.free(ctx, p)

    _expect_simerror(rig, kernel, "double free")
    return None


def check_exhaustion(backend: str) -> Optional[str]:
    """Exhausting the pool yields NULL, not an exception, and the
    allocator stays auditable afterwards."""
    pool = 1 << 18
    rig = Rig(backend, pool=pool)
    h = rig.handle
    nulls: List[int] = []

    def kernel(ctx):
        p = yield from h.malloc(ctx, 4096)
        if p == _NULL:
            nulls.append(ctx.tid)

    # 128 threads x 4 KB = 2x the pool: the second half must fail.
    rig.launch(kernel, nthreads=128)
    if not nulls:
        raise ConformanceError(
            "128 x 4 KB against a 256 KB pool produced no NULLs"
        )
    try:
        h.host_check()
    except SimError as exc:
        raise ConformanceError(
            f"host_check failed after exhaustion: {exc}"
        ) from exc
    return None


#: the deck: (check name, callable(backend) -> skip reason | None)
CHECKS: List[Tuple[str, Callable[[str], Optional[str]]]] = [
    ("roundtrip", check_roundtrip),
    ("free-null", check_free_null),
    ("oversize", check_oversize),
    ("invalid-free-out-of-pool", check_invalid_free_out_of_pool),
    ("invalid-free-in-pool", check_invalid_free_in_pool),
    ("double-free", check_double_free),
    ("exhaustion", check_exhaustion),
]


def run_check(backend: str, check: str) -> CheckOutcome:
    """Run one cell of the deck."""
    fn = dict(CHECKS)[check]
    try:
        skip = fn(backend)
    except ConformanceError as exc:
        return CheckOutcome(backend, check, "fail", str(exc))
    if skip is not None:
        return CheckOutcome(backend, check, "skip", skip)
    return CheckOutcome(backend, check, "pass")


def run_backend(backend: str) -> List[CheckOutcome]:
    """Run the full deck against one backend."""
    return [run_check(backend, name) for name, _ in CHECKS]


def run_all(which: Optional[List[str]] = None) -> List[CheckOutcome]:
    """Run the full deck against every (or the named) backends."""
    return [out for b in (which or names()) for out in run_backend(b)]

"""Cross-allocator shootout (extends the paper's Figure 7 comparison to
every §2.2 related-work design we implement).

One workload — a malloc/hold/free churn at a fixed small size — run
against any set of registered backends (:mod:`repro.backends`); the
default roster is the paper's comparison set: this paper's allocator
(scalar and warp-coalesced), the CUDA-like lock allocator,
XMalloc-style bin stacks, ScatterAlloc-style hashed pages, and the bump
pointer.  Reports virtual throughput and the failure count; the bump
pointer additionally demonstrates its fragmentation pathology (it fails
once the pool's been written through, regardless of frees).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..backends import get as get_backend
from ..sim import GPUDevice, DeviceMemory, Scheduler, ops
from .reporting import format_table, si
from .sweep import map_points

_NULL = DeviceMemory.NULL

#: the original comparison roster (registry names, in table order)
DEFAULT_BACKENDS = (
    "ours",
    "ours-coalesced",
    "cuda",
    "xmalloc",
    "scatteralloc",
    "bump",
)

#: heap bytes each backend manages
POOL = 1 << 20
#: bytes per churn request
SIZE = 64


@dataclass
class ShootoutPoint:
    name: str
    throughput: float  # successful ops (malloc+free pairs) per second
    failures: int
    cycles: int


@dataclass
class ShootoutResult:
    size: int
    nthreads: int
    iters: int
    points: List[ShootoutPoint]

    def table(self) -> str:
        base = {p.name: p for p in self.points}.get("ours (scalar)")
        rows = []
        for p in sorted(self.points, key=lambda p: -p.throughput):
            if base is not None and base.throughput > 0:
                rel = f"{p.throughput / base.throughput:.2f}x"
            else:
                rel = "-"
            rows.append([p.name, si(p.throughput), p.failures, rel])
        return format_table(
            ["allocator", "pairs/s", "failures", "vs ours"], rows
        )


def _churn_kernel(malloc_fn, free_fn, size, iters, failures):
    def kernel(ctx):
        f = 0
        for _ in range(iters):
            p = yield from malloc_fn(ctx, size)
            if p == _NULL:
                f += 1
                yield ops.cpu_yield()
                continue
            yield ops.sleep(ctx.rng.randrange(100))
            yield from free_fn(ctx, p)
        failures.append(f)

    return kernel


def _point(spec: tuple) -> ShootoutPoint:
    name, nthreads, iters, seed = spec
    backend = get_backend(name)
    device = GPUDevice(num_sms=2)
    mem = DeviceMemory(POOL * 4 + (8 << 20))
    handle = backend.build(mem, device, POOL)
    failures: List[int] = []
    kernel = _churn_kernel(handle.malloc, handle.free, SIZE, iters, failures)
    sched = Scheduler(mem, device, seed=seed)
    sched.launch(kernel, -(-nthreads // 256), min(256, nthreads))
    report = sched.run()
    n_fail = sum(failures)
    ok_pairs = nthreads * iters - n_fail
    # A total wipeout used to report throughput(1) — one phantom pair
    # per run — which ranked a 100%-failure allocator above a
    # slow-but-correct one.  Zero completed pairs is zero throughput.
    return ShootoutPoint(
        name=backend.display,
        throughput=report.throughput(ok_pairs) if ok_pairs > 0 else 0.0,
        failures=n_fail,
        cycles=report.cycles,
    )


def run(
    nthreads: int,
    iters: int,
    *,
    seed: int,
    which: Optional[Sequence[str]] = None,
) -> ShootoutResult:
    """Run the churn shootout; returns per-backend results.

    ``which`` names backends by registry name, display label, or alias
    (historic callers pass display labels like ``"ours (scalar)"``);
    ``None`` runs :data:`DEFAULT_BACKENDS`.
    """
    roster = which if which is not None else DEFAULT_BACKENDS
    # every name resolves here, so an unknown one fails before any point
    specs = [(get_backend(n).name, nthreads, iters, seed) for n in roster]
    return ShootoutResult(size=SIZE, nthreads=nthreads, iters=iters,
                          points=map_points(_point, specs))

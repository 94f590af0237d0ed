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

from ..backends import build_standalone, get as get_backend
from ..sim import GPUDevice, Scheduler
from .reporting import format_table, si
from .sweep import map_points
from .workloads import churn

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
#: a thread holds each block for a uniform draw below this many cycles
HOLD_CYCLES = 100


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


def _point(spec: tuple) -> ShootoutPoint:
    name, nthreads, iters, seed = spec
    device = GPUDevice(num_sms=2)
    mem, handle = build_standalone(name, device, POOL)
    kernel, failures = churn(handle.malloc, handle.free, (SIZE,), iters,
                             HOLD_CYCLES)
    sched = Scheduler(mem, device, seed=seed)
    sched.launch(kernel, -(-nthreads // 256), min(256, nthreads))
    report = sched.run()
    n_fail = sum(failures)
    ok_pairs = nthreads * iters - n_fail
    # A total wipeout used to report throughput(1) — one phantom pair
    # per run — which ranked a 100%-failure allocator above a
    # slow-but-correct one.  Zero completed pairs is zero throughput.
    return ShootoutPoint(
        name=get_backend(name).display,
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

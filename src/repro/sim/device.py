"""Device configuration and per-thread execution context.

:class:`GPUDevice` captures the machine shape: number of SMs, warp size,
and how many thread blocks may be resident on an SM at once.  Block
residency is what lets the simulator reproduce the paper's Figure 6
mechanism — a thread block occupies SM resources until *all* of its
threads finish, so threads stuck waiting on an RCU barrier delay every
queued block behind them.

:class:`ThreadCtx` is the device-code view of "who am I": global thread
id, block id, lane, warp, SM, plus a deterministic per-thread RNG used
for scattered (hashed) data-structure traversals as in ScatterAlloc,
seeded on first use.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class GPUDevice:
    """Shape of the simulated throughput-oriented processor.

    Defaults are a scaled-down Volta: real Titan V has 80 SMs x 2048
    resident threads; simulating that many Python generators is feasible
    but slow, so benchmarks default to a smaller part and scale thread
    counts accordingly (see DESIGN.md, substitutions).
    """

    num_sms: int = 8
    warp_size: int = 32
    max_resident_blocks: int = 4
    max_threads_per_block: int = 1024

    @property
    def max_resident_threads(self) -> int:
        """Upper bound on simultaneously executing threads."""
        return self.num_sms * self.max_resident_blocks * self.max_threads_per_block


#: A modest default device used throughout tests.
DEFAULT_DEVICE = GPUDevice()


class ThreadCtx:
    """Identity of one simulated GPU thread, passed to kernels.

    Attributes
    ----------
    tid: global thread index across the whole launch (0-based).
    block: block index within the grid.
    tid_in_block: thread index within the block.
    lane: index within the warp (0..warp_size-1).
    warp: global warp index across the launch.
    sm: SM the owning block is placed on.
    nthreads: total threads in the launch.
    block_dim: threads per block for this launch.
    rng: deterministic per-thread RNG; use for hashed traversal start
        points.  Unless one is passed in, it is built on first read as
        ``random.Random(rng_seed)``, so a thread that never draws never
        pays for seeding one.
    rng_seed: seed of the lazily built ``rng``.  The scheduler passes
        ``(seed << 20) ^ (tid * 0x9E3779B9)``; the default 0 makes a
        ctx built without an rng (host tests, ad-hoc harnesses) draw
        ``random.Random(0)``'s stream.
    trace: the scheduler's :class:`~repro.sim.trace.Tracer`, or ``None``
        when tracing is off.  Device-side primitives report telemetry
        through it, guarded by ``if ctx.trace is not None``.
    fault: the scheduler's :class:`~repro.resil.FaultInjector`, or
        ``None`` when fault injection is off.  Device-side failure
        sites yield :func:`~repro.sim.ops.fault_point` probes only when
        this is set, so unfaulted runs pay nothing.
    """

    # RNG-ownership contract (the replay guarantee): every draw on a
    # core path — allocator backoff, scattered traversals, robust-malloc
    # retries — goes through ``rng``, which the scheduler seeds from
    # (scenario seed, tid).  Nothing in device code may touch
    # module-level ``random``.  The default seed is fixed, so a ctx
    # never silently draws OS entropy and breaks byte-for-byte replay.
    # ``rng`` is a slot left unset until first read: the read misses,
    # ``__getattr__`` seeds and stores it, and later reads are plain
    # slot loads.
    __slots__ = ("tid", "block", "tid_in_block", "lane", "warp", "sm",
                 "nthreads", "block_dim", "rng", "rng_seed", "trace",
                 "fault")

    def __init__(self, tid: int, block: int, tid_in_block: int, lane: int,
                 warp: int, sm: int, nthreads: int, block_dim: int,
                 rng: Optional[random.Random] = None, trace: object = None,
                 fault: object = None, rng_seed: int = 0) -> None:
        self.tid = tid
        self.block = block
        self.tid_in_block = tid_in_block
        self.lane = lane
        self.warp = warp
        self.sm = sm
        self.nthreads = nthreads
        self.block_dim = block_dim
        if rng is not None:
            self.rng = rng
        self.rng_seed = rng_seed
        self.trace = trace
        self.fault = fault

    def __getattr__(self, name: str):
        if name != "rng":
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        rng = self.rng = random.Random(self.rng_seed)
        return rng

    def __repr__(self) -> str:
        return (f"ThreadCtx(tid={self.tid}, block={self.block}, "
                f"tid_in_block={self.tid_in_block}, lane={self.lane}, "
                f"warp={self.warp}, sm={self.sm}, nthreads={self.nthreads}, "
                f"block_dim={self.block_dim})")

    def is_warp_leader_of(self, mask: frozenset) -> bool:
        """True if this thread is the elected leader of converged ``mask``."""
        return self.lane == min(mask)


def rng_randbelow(rng: random.Random):
    """Return the cheapest exact equivalent of ``rng.randrange`` for a
    positive integer bound.

    CPython's ``Random.randrange(stop)`` validates its arguments and then
    delegates straight to ``Random._randbelow(stop)``, so for the hot
    backoff loops (one draw per spin iteration) binding the inner method
    skips one wrapper frame per draw while producing the *identical*
    random stream — replay and byte-for-byte report parity are
    unaffected.  Falls back to ``randrange`` on implementations without
    the private helper.  Callers must only pass bounds >= 1, which is
    what ``randrange`` would require anyway.
    """
    return getattr(rng, "_randbelow", rng.randrange)

"""Registrations for every allocator the repo implements.

The builders reproduce the exact construction sequences the benches
used before the registry existed (same ``host_alloc`` order and
alignment, same constructor arguments), so resolving a backend by name
yields byte-identical op and RNG streams — the perf trajectory's
``virtual:*`` metrics must not move when a bench is rewired through the
registry.
"""

from __future__ import annotations

from ..baselines import (
    BumpAllocator,
    CudaLikeAllocator,
    LockBuddy,
    ScatterAlloc,
    XMalloc,
)
from ..core.allocator import ThroughputAllocator
from ..core.config import AllocatorConfig
from ..sim.device import GPUDevice
from ..sim.memory import DeviceMemory
from .hostbased import HostBasedAllocator
from .registry import Backend, BackendCaps, BackendHandle, register


def _build_ours(mem: DeviceMemory, device: GPUDevice, pool: int,
                coalesced: bool = False) -> BackendHandle:
    config = AllocatorConfig(pool_order=AllocatorConfig.order_for_pool(pool))
    a = ThroughputAllocator(mem, device, config)
    return BackendHandle(
        name="ours-coalesced" if coalesced else "ours",
        allocator=a,
        caps=BackendCaps(supports_coalesced=True, alignment=8,
                         race_checkable=True),
        malloc=a.malloc_coalesced if coalesced else a.malloc,
        free=a.free,
        malloc_coalesced=a.malloc_coalesced,
        pool_base=a.pool_base,
        pool_size=config.pool_size,
        used_bytes=a.host_used_bytes,
        host_check=a.host_check,
        checkpoint=lambda leak: a.host_checkpoint(expect_leak_free=leak),
    )


def _build_cuda(mem: DeviceMemory, device: GPUDevice,
                pool: int) -> BackendHandle:
    base = mem.host_alloc(pool, align=16)
    a = CudaLikeAllocator(mem, base, pool)
    return BackendHandle(
        name="cuda", allocator=a,
        caps=BackendCaps(alignment=16),
        malloc=a.malloc, free=a.free,
        pool_base=base, pool_size=pool,
        used_bytes=a.host_used_bytes,
        host_check=a.host_check,
    )


def _build_xmalloc(mem: DeviceMemory, device: GPUDevice,
                   pool: int) -> BackendHandle:
    base = mem.host_alloc(pool, align=4096)
    a = XMalloc(mem, base, pool)
    return BackendHandle(
        name="xmalloc", allocator=a,
        # Blocks are laid at 8-byte strides behind their size headers;
        # a re-free of a block on the stack is undetectable (it has no
        # allocated-bit — the original's weakness, kept faithfully).
        caps=BackendCaps(alignment=8, max_alloc=a.max_alloc,
                         detects_double_free=False),
        malloc=a.malloc, free=a.free,
        pool_base=base, pool_size=pool,
        used_bytes=a.host_used_bytes,
        host_check=a.host_check,
    )


def _build_scatter(mem: DeviceMemory, device: GPUDevice,
                   pool: int) -> BackendHandle:
    base = mem.host_alloc(pool, align=4096)
    a = ScatterAlloc(mem, base, pool)
    return BackendHandle(
        name="scatteralloc", allocator=a,
        caps=BackendCaps(alignment=16, max_alloc=a.page_size),
        malloc=a.malloc, free=a.free,
        pool_base=base, pool_size=pool,
        used_bytes=a.host_used_bytes,
    )


def _build_lock_buddy(mem: DeviceMemory, device: GPUDevice,
                      pool: int) -> BackendHandle:
    page = 4096
    base = mem.host_alloc(pool, align=page)
    a = LockBuddy(mem, base, page, AllocatorConfig.order_for_pool(pool, page))
    return BackendHandle(
        name="lock-buddy", allocator=a,
        caps=BackendCaps(alignment=page),
        malloc=a.alloc_bytes, free=a.free,
        pool_base=base, pool_size=a.pool_size,
        used_bytes=a.host_used_bytes,
        host_check=a.host_check,
    )


def _build_bump(mem: DeviceMemory, device: GPUDevice,
                pool: int) -> BackendHandle:
    base = mem.host_alloc(pool, align=16)
    a = BumpAllocator(mem, base, pool)
    return BackendHandle(
        name="bump", allocator=a,
        # free is a documented counted no-op; used_bytes is the
        # high-water mark (individual frees recover nothing — the
        # design's defining weakness).
        caps=BackendCaps(supports_free=False, alignment=16,
                         invalid_free="counted-noop",
                         detects_double_free=False,
                         exact_used_bytes=False),
        malloc=a.malloc, free=a.free,
        pool_base=base, pool_size=pool,
        used_bytes=lambda: a.used_bytes,
        invalid_free_count=lambda: a.n_noop_frees,
    )


def _build_hostbased(mem: DeviceMemory, device: GPUDevice,
                     pool: int) -> BackendHandle:
    base = mem.host_alloc(pool, align=16)
    a = HostBasedAllocator(mem, base, pool)
    return BackendHandle(
        name="hostbased", allocator=a,
        caps=BackendCaps(alignment=16),
        malloc=a.malloc, free=a.free,
        pool_base=base, pool_size=pool,
        used_bytes=a.host_used_bytes,
        host_check=a.host_check,
    )


register(Backend(
    name="ours",
    display="ours (scalar)",
    description="the paper's combined allocator (UAlloc + TBuddy), "
                "scalar malloc path",
    builder=_build_ours,
))

register(Backend(
    name="ours-coalesced",
    display="ours (coalesced)",
    description="the paper's combined allocator, warp-coalescing "
                "malloc path",
    builder=lambda mem, device, pool:
        _build_ours(mem, device, pool, coalesced=True),
))

register(Backend(
    name="cuda",
    display="CUDA-like",
    description="CUDA-toolkit-style global-lock first-fit free list",
    builder=_build_cuda,
))

register(Backend(
    name="xmalloc",
    display="XMalloc-like",
    description="lock-free bin stacks over a bump region "
                "[Huang et al. 2010]",
    builder=_build_xmalloc,
))

register(Backend(
    name="scatteralloc",
    display="ScatterAlloc-like",
    description="hashed-bitmap pages [Steinberger et al. 2012]",
    builder=_build_scatter,
    aliases=("scatter",),
))

register(Backend(
    name="lock-buddy",
    display="lock-buddy",
    description="textbook buddy system behind one global lock "
                "(TBuddy ablation baseline)",
    builder=_build_lock_buddy,
    aliases=("lockbuddy",),
))

register(Backend(
    name="bump",
    display="bump pointer",
    description="Vinkler-style atomic bump pointer (no-op free)",
    builder=_build_bump,
))

register(Backend(
    name="hostbased",
    display="host-based",
    description="host-bookkept first-fit allocator [Bell et al. 2024]: "
                "zero device-side metadata, one host round trip per call",
    builder=_build_hostbased,
    aliases=("host-based", "bell"),
))

"""HostBasedAllocator unit tests: policy, exact audits, serialization."""

from __future__ import annotations

import pytest

from repro.backends.hostbased import (
    HostBasedAllocator,
    HostBasedError,
    REQUEST_CYCLES,
    SERVICE_CYCLES,
)
from repro.sim import DeviceMemory

_NULL = DeviceMemory.NULL

POOL = 1 << 16


@pytest.fixture
def alloc(mem):
    base = mem.host_alloc(POOL, align=16)
    return HostBasedAllocator(mem, base, POOL)


def test_rejects_misaligned_pool(mem):
    with pytest.raises(ValueError):
        HostBasedAllocator(mem, mem.host_alloc(64, align=16) + 8, 64)
    with pytest.raises(ValueError):
        HostBasedAllocator(mem, mem.host_alloc(64, align=16), 40)


def test_first_fit_reuses_lowest_freed_block(alloc, run_kernel):
    got = []

    def kernel(ctx):
        a = yield from alloc.malloc(ctx, 256)
        b = yield from alloc.malloc(ctx, 256)
        yield from alloc.free(ctx, a)
        c = yield from alloc.malloc(ctx, 128)  # fits the hole at a
        got.extend([a, b, c])

    run_kernel(kernel, 1, 1)
    a, b, c = got
    assert b == a + 256  # carved in address order
    assert c == a        # address-ordered first fit reuses the hole
    assert alloc.host_used_bytes() == 256 + 128


def test_free_coalesces_back_to_one_range(alloc, run_kernel):
    def kernel(ctx):
        ptrs = []
        for _ in range(8):
            p = yield from alloc.malloc(ctx, 512)
            ptrs.append(p)
        # free in a scrambled order: merges must happen on both sides
        for i in (3, 0, 7, 2, 5, 1, 6, 4):
            yield from alloc.free(ctx, ptrs[i])

    run_kernel(kernel, 1, 1)
    assert alloc._free == [(0, POOL)]
    assert alloc.host_used_bytes() == 0
    alloc.host_check()


def test_alignment_rounds_request_up(alloc, run_kernel):
    got = []

    def kernel(ctx):
        a = yield from alloc.malloc(ctx, 1)  # rounds to 16
        b = yield from alloc.malloc(ctx, 17)  # rounds to 32
        got.extend([a, b])

    run_kernel(kernel, 1, 1)
    a, b = got
    assert a % 16 == 0 and b % 16 == 0
    assert b == a + 16
    assert alloc.host_used_bytes() == 16 + 32


def test_exhaustion_returns_null_and_stays_auditable(alloc, run_kernel):
    got = []

    def kernel(ctx):
        p = yield from alloc.malloc(ctx, POOL // 2)
        q = yield from alloc.malloc(ctx, POOL // 2 + 16)  # cannot fit now
        got.extend([p, q])

    run_kernel(kernel, 1, 1)
    assert got[0] != _NULL and got[1] == _NULL
    assert alloc.n_malloc_failed == 1
    alloc.host_check()


def test_free_null_is_counted_noop(alloc, run_kernel):
    def kernel(ctx):
        yield from alloc.free(ctx, _NULL)

    run_kernel(kernel, 1, 4)
    assert alloc.n_free_null == 4
    assert alloc.host_used_bytes() == 0


def test_out_of_pool_free_raises(alloc, run_kernel):
    def kernel(ctx):
        yield from alloc.free(ctx, alloc.base + alloc.size + 64)

    with pytest.raises(HostBasedError, match="outside the pool"):
        run_kernel(kernel, 1, 1)


def test_double_free_detected_exactly(alloc, run_kernel):
    def kernel(ctx):
        p = yield from alloc.malloc(ctx, 64)
        yield from alloc.free(ctx, p)
        yield from alloc.free(ctx, p)

    with pytest.raises(HostBasedError, match="not a live block"):
        run_kernel(kernel, 1, 1)
    # the bad request must not poison the host queue for later callers
    assert alloc.mem.load_word(alloc.queue.addr) == 0


def test_host_check_catches_uncoalesced_free_list(alloc):
    alloc._free = [(0, 256), (256, POOL - 256)]
    with pytest.raises(HostBasedError, match="uncoalesced"):
        alloc.host_check()


def test_host_check_catches_accounting_leak(alloc):
    alloc._free = [(0, POOL - 64)]
    with pytest.raises(HostBasedError, match="accounting leak"):
        alloc.host_check()


def test_requests_serialize_at_the_host(alloc, run_kernel):
    """N concurrent mallocs pay the travel latency once (overlapped) but
    queue for the single host thread: total time grows with N x
    service_cycles, the single-server ceiling the model exists to
    charge."""
    n = 16

    def kernel(ctx):
        yield from alloc.malloc(ctx, 64)

    report, _ = run_kernel(kernel, 1, n)
    assert report.cycles >= REQUEST_CYCLES + n * SERVICE_CYCLES
    assert alloc.n_malloc == n
    assert alloc.host_used_bytes() == n * 64
